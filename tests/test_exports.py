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
