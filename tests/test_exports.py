import ast
from pathlib import Path

import antbatch


def test_all_names_resolve_without_duplicates():
    names = antbatch.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(antbatch, name)] == []


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant of the package
    # may rest on one
    found = []
    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_modules_import_no_unused_name():
    # no linter runs on this package, so this stands in for pyflakes' F401;
    # __init__.py re-exports by design, and a line marked noqa: F401 keeps
    # a name reachable for callers outside the package
    found = []
    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno} {name}")
    assert found == []


def test_package_defines_no_unreferenced_private_name():
    # the other half of the F401 stand-in: a private module-level function,
    # class or constant that no module of the package reads is dead code
    # (an import alone does not count; the guard above catches that)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(Path(antbatch.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{name}:{node.lineno} {d}" for d in defined
                      if d.startswith("_") and not d.startswith("__") and d not in used]
    assert found == []


def test_only_the_construction_and_its_oracle_draw_construction_streams():
    # how an iteration's start cities and step blocks are drawn is known to
    # colony.construct_tours and oracle.sequential_aco_step alone; any other
    # module reads a start city from the tours, which begin at it
    callers = set()
    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers |= {path.name for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None))
                    == "construction_draws"}
    assert callers == {"colony.py", "oracle.py"}


def test_only_the_colony_builds_transition_matrices():
    # a Colony builds prob from the tau it holds, so prob is always the
    # matrix of that tau; any other module reads Colony.prob
    found = []
    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        if path.name == "colony.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  == "compute_probability_matrix"]
    assert found == []


def test_package_gathers_into_out_without_a_buffer():
    # np.take(..., out=) stages out through a hidden buffer under its
    # default mode="raise"; a call that passes out must name its mode
    found = []
    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            keywords = {k.arg for k in node.keywords}
            if name == "take" and "out" in keywords and "mode" not in keywords:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_rng_names_the_bit_generators():
    # rng keys every stream of a run; no other module builds a seed
    # sequence or a bit generator of its own
    names = {"SeedSequence", "Philox", "SFC64"}
    found = []
    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        if path.name == "rng.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if getattr(node, "id", getattr(node, "attr", None)) in names
                  or isinstance(node, ast.alias) and node.name in names]
    assert found == []


def test_no_module_level_random_state():
    # each draw comes from a generator its caller builds and owns, so no
    # module holds random state that calls in several threads would share:
    # nothing outside a function body calls into np.random at import time
    found = []

    def visit(node, where):
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith(
                ("np.random.", "numpy.random.")):
            found.append(f"{where}:{node.lineno}")
        for name, child in ast.iter_fields(node):
            if name == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                    ast.Lambda)):
                continue
            for c in child if isinstance(child, list) else [child]:
                if isinstance(c, ast.AST):
                    visit(c, where)

    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name)
    assert found == []


def test_only_model_adopts_arrays():
    # model._adopt is the one path that stores an array without a copy, so
    # no other module marks an array read-only or builds a value past its
    # __post_init__, and within model only _adopt does the latter
    owners = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition(':')[0]}:{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in ("writeable", "setflags", "__new__"):
            owners.add((node.attr, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(antbatch.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
              f"{path.name}:<module>")
    assert owners == {("writeable", "model.py:_frozen"), ("writeable", "model.py:_adopt"),
                      ("__new__", "model.py:_adopt")}


# the oracle's reference implementations exist for the tests to compare
# against, so no run calls them
_TEST_ONLY_MODULES = {"oracle"}
# the parser acceptance gate holds the package to TSPLIB's tour format
# through parse_tour, which no run reads
_TEST_ONLY_NAMES = {"tsplib.parse_tour"}


def test_every_public_name_serves_a_run():
    # a public function or class of the package is referenced by the
    # package itself, by scripts/ or by perfbench/; one that only tests
    # call belongs in the tests (docstrings and __init__'s re-exports do
    # not count as references)
    package = Path(antbatch.__file__).parent
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem in ("__init__", *_TEST_ONLY_MODULES):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used
                    and f"{path.stem}.{node.name}" not in _TEST_ONLY_NAMES):
                found.append(f"{path.stem}.{node.name}")
    assert found == []
