"""Wrappers put around the program's public functions from outside.

``Patches`` replaces a function at every module-level name in the package
that is bound to it, so a call is seen whichever name the program uses
(``colony.argmax_select_block`` and ``selection.argmax_select_block`` are
one function). A target that no longer exists is recorded in ``missing``.

``Capture`` hands the values a colony run passes between its layers to a
consumer. It queues them while the program runs and delivers them when the
program reads its clock, that is, outside the timed part of an iteration,
and then times a calibration kernel there.

``Tracer`` records a span per call: label, start, end, self time (the span
minus its wrapped children), nesting depth, and the deviates and kernel
entries the call handled.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


class Patches:
    def __init__(self, package: str):
        self.package = package
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def wrap(self, target: str, make_wrapper) -> bool:
        """Replace ``<package>.<module>.<name>`` everywhere it is bound."""
        modname, _, attr = target.rpartition(".")
        module = sys.modules.get(f"{self.package}.{modname}")
        fn = getattr(module, attr, None) if module is not None else None
        if fn is None:
            self.missing.append(target)
            return False
        wrapper = make_wrapper(fn)
        for m in self._modules():
            for name, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, name, wrapper)
                    self._undo.append((m, name, fn))
        return True

    def restore(self) -> None:
        for m, name, fn in reversed(self._undo):
            setattr(m, name, fn)
        self._undo.clear()


class Capture:
    """Delivers (kind, *values) events to ``consumer`` between iterations.

    ``clock`` is passed to the program as its clock. Each reading is taken
    first and returned unchanged; queued events are delivered after it, so
    a consumer's work lands between the program's readings. After each
    delivery ``calibrate`` runs and its result is kept with the time it
    started. ``readings`` and ``deliveries`` let the caller confirm that no
    delivery fell inside a timed iteration.
    """

    # target -> (event kind, how the event is built from args and result)
    TARGETS = {
        "colony.compute_probability_matrix": ("probabilities", lambda a, out: (a[0], out)),
        "colony.construct_tours": ("tours", lambda a, out: (out,)),
        "pheromone.select_elite": ("elite", lambda a, out: (out,)),
        "pheromone.apply_update": ("update", lambda a, out: (a[0], out)),
    }

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.consumer = None
        self.pending: list[tuple] = []
        self.readings: list[float] = []
        self.deliveries: list[tuple[float, float]] = []
        self.calibrations: list[tuple[float, float]] = []

    def install(self, patches: Patches) -> None:
        for target, (kind, build) in self.TARGETS.items():
            patches.wrap(target, lambda fn, kind=kind, build=build: self._wrapper(fn, kind, build))

    def _wrapper(self, fn, kind, build):
        pending = self.pending

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            pending.append((kind, *build(args, out)))
            return out
        return wrapper

    def start(self, consumer) -> None:
        self.consumer = consumer
        self.pending.clear()
        self.readings.clear()
        self.deliveries.clear()
        self.calibrations.clear()

    def deliver(self) -> None:
        if not self.pending:
            return
        t0 = time.perf_counter()
        events = list(self.pending)
        self.pending.clear()
        for event in events:
            self.consumer(*event)
        t1 = time.perf_counter()
        self.calibrations.append((t1, self.calibrate()))
        self.deliveries.append((t0, time.perf_counter()))

    def clock(self) -> float:
        t = time.perf_counter()
        self.readings.append(t)
        self.deliver()
        return t


@dataclass
class Span:
    label: str
    start: float
    end: float
    self_time: float
    depth: int
    deviates: int = 0  # drawn (step_exponentials) or read (the others)
    entries: int = 0   # size of a selection kernel's (m, n) block


def _read_by_argmax(args, out):
    visited = args[3]
    return visited.size - int(visited.sum()), visited.size


# What a traced call counts, from its arguments and result: deviates, and
# the entries of the (m, n) block a selection kernel sweeps.
COUNTS = {
    "rng.step_exponentials": lambda args, out: (out.size, 0),
    "rng.step_uniforms": lambda args, out: (out.size, 0),
    "selection.argmax_select_block": _read_by_argmax,
    "selection.rw_spin_block": lambda args, out: (0, args[4].size),
}

TRACED = (
    "tsplib.parse_instance",
    "model.build_instance",
    "rng.step_exponentials",
    "rng.step_uniforms",
    "selection.argmax_select_block",
    "selection.rw_spin_block",
    "selection.scaled_log_weights",
    "model.batch_costs",
    "colony.construct_tours",
    "colony.compute_probability_matrix",
    "pheromone.select_elite",
    "pheromone.accumulate_increments",
    "pheromone.apply_update",
)


class Tracer:
    """Records a Span for every call of the TRACED functions while installed."""

    def __init__(self, package: str):
        self.patches = Patches(package)
        self.spans: list[Span] = []
        self._stack: list[list[float]] = []

    def __enter__(self) -> "Tracer":
        for label in TRACED:
            self.patches.wrap(label, lambda fn, label=label: self._wrapper(fn, label))
        return self

    def __exit__(self, *exc) -> None:
        self.patches.restore()

    def _wrapper(self, fn, label):
        stack = self._stack
        spans = self.spans
        count = COUNTS.get(label)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
            deviates, entries = count(args, out) if count else (0, 0)
            spans.append(Span(label, t0, t1, t1 - t0 - children[0], len(stack),
                              deviates, entries))
            return out
        return wrapper
