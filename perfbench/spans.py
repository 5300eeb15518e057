"""In-memory spans and call counters for the traced benchmark run.

The program is not instrumented.  Tracing replaces the public names of each
module by wrappers *as the calling module binds them* (``spectrum.refine_root``
is what ``scan_roots`` calls, ``cli.secular_t`` is what the fig command calls,
and so on) for the duration of one timed call, and restores them afterwards,
so untraced runs and the benchmark's own output checks see the original
functions.  A span is ``[name, start, end, parent, op, failed, extent]``;
``parent`` is the index of the enclosing span or -1, ``op`` the index of the
benchmark operation that caused it, and ``extent`` a size recorded for the
few spans that need one (the Z interval of a continuation).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

# (module, attribute, span name, extent of the call or None)
SPANNED = (
    ("ptcircle", "scan_roots", "spectrum.scan_roots", None),
    ("ptcircle.spectrum", "scan_roots", "spectrum.scan_roots", None),
    ("ptcircle.cli", "scan_roots", "spectrum.scan_roots", None),
    ("ptcircle.spectrum", "refine_root", "spectrum.refine_root", None),
    ("ptcircle.transition", "critical_sequence", "transition.critical_sequence", None),
    ("ptcircle.transition", "find_double_root", "transition.find_double_root", None),
    ("ptcircle.transition", "solve_broken", "transition.solve_broken", None),
    ("ptcircle.transition", "continue_in_Z", "transition.continue_in_Z",
     lambda args: abs(args[1] - args[0])),
    ("ptcircle.oracle", "boundary_determinant", "oracle.boundary_determinant", None),
    ("ptcircle.oracle", "nullspace_solution", "oracle.nullspace_solution", None),
    ("ptcircle.oracle", "residual_check", "oracle.residual_check", None),
    ("ptcircle.verify", "run_checks", "verify.run_checks", None),
)

# Kernels called too often to span: (module, attribute, counter name).
COUNTED = (
    ("ptcircle.spectrum", "factor_value", "secular.factor_value"),
    ("ptcircle.transition", "t_sinh_t", "secular.t_sinh_t"),
    ("ptcircle.secular", "secular_t", "secular.secular_t"),
    ("ptcircle.cli", "secular_t", "secular.secular_t"),
    ("ptcircle.transition", "broken_secular", "transition.broken_secular"),
)

NAME, START, END, PARENT, OP, FAILED, EXTENT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, extent=None, **kwargs):
        """Run ``fn`` inside a span; an exception marks the span failed."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, False, extent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn, extent):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, extent=extent(args) if extent else None, **kwargs)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block.  A name that the
        program no longer binds raises AttributeError and aborts the run:
        SPANNED and COUNTED must follow the program's renames."""
        saved = []
        try:
            for module_name, attr, name, extent in SPANNED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._spanned(name, fn, extent))
            for module_name, attr, name in COUNTED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._counted(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, dumped: dict) -> None:
        """Append the spans and counts of a child process, under this
        tracer's current operation."""
        offset = len(self.spans)
        for rec in dumped["spans"]:
            rec = list(rec)
            if rec[PARENT] >= 0:
                rec[PARENT] += offset
            rec[OP] = self.op
            self.spans.append(rec)
        self.counts.update(dumped["counts"])

    # --- summaries -------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[NAME] == name)

    def seconds(self, name: str) -> float:
        return sum(rec[END] - rec[START] for rec in self.spans if rec[NAME] == name)

    def failed(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[NAME] == name and rec[FAILED])

    def self_seconds(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with ``prefix``,
        minus the part covered by their direct child spans."""
        own = {i: rec[END] - rec[START] for i, rec in enumerate(self.spans)
               if rec[NAME].startswith(prefix)}
        for rec in self.spans:
            if rec[PARENT] in own:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return sum(own.values())

    def children_of(self, child: str, parent: str) -> int:
        return sum(1 for rec in self.spans
                   if rec[NAME] == child and rec[PARENT] >= 0
                   and self.spans[rec[PARENT]][NAME] == parent)

    def extent(self, name: str) -> float:
        return sum(rec[EXTENT] or 0.0 for rec in self.spans if rec[NAME] == name)
