"""In-process tracing of ``superweyl`` from outside the package.

``Tracer.install`` replaces chosen public functions by timing wrappers in
every ``superweyl`` module that holds a reference to them, including the
names that one module imports from another, so that a call made through an
imported name is counted too.  Each call becomes a
span (name, start, end, parent span, problem id) kept in memory; the
caller writes them out at the end.  Per (problem, function) the tracer also
sums calls, inclusive time of the outermost calls and self time (duration
minus the time covered by wrapped callees).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

# Public functions wrapped, per module.  Hot leaves that are not layer
# boundaries (contract, sym_product, as_scalar, pair) stay unwrapped.
TARGETS: dict[str, tuple[str, ...]] = {
    "exactla": ("solve_linear", "invert", "solve_overdetermined"),
    "symplectic": ("validate_space", "is_in_sp"),
    "weyl": ("weyl_product", "bilinear_form", "grade"),
    "spbridge": ("sp_to_quadratic", "quadratic_to_sp", "trace_ratio_constant"),
    "liealg": ("validate_lie", "casimir_pairs"),
    "engine": ("validate_rep", "quadratic_lift", "quadratic_lift_adjoint", "casimir_image",
               "decide", "construct_superalgebra_unchecked", "construct_superalgebra",
               "verify_superalgebra", "form_invariance_witness"),
    "catalog": ("build_instance", "build_osp_even", "build_spin_rep", "build_gl11_even",
                "build_double", "double_base", "matrix_structure_constants"),
    "jsonio": ("load_problem", "problem_to_json", "report_to_json", "superalgebra_to_json",
               "odd_brackets_to_json", "write_json_atomic", "file_digest"),
}


class Stats:
    __slots__ = ("calls", "inclusive", "self_time")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0   # outermost calls only, so recursion is not double counted
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[tuple] = []          # (name, start, end, parent index, problem)
        self.stats: dict[tuple[str, str], Stats] = defaultdict(Stats)
        self.problem = ""
        self.observers: dict[str, Callable] = {}
        self._stack: list[list] = []          # [span index, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans[frame[0]] = (name, start - self.origin, end - self.origin,
                                parent[0] if parent is not None else -1, self.problem)
        stats = self.stats[(self.problem, name)]
        stats.calls += 1
        stats.self_time += duration - frame[1]
        if self._depth[name] == 0:
            stats.inclusive += duration

    @contextmanager
    def span(self, name: str, problem: str):
        """A root span for one verb call on one problem."""
        self.problem = problem
        frame = self._enter()
        start = self.clock()
        try:
            yield
        finally:
            self._leave(name, frame, start, self.clock())
            self.problem = ""

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock, depth, enter, leave = self.clock, self._depth, self._enter, self._leave
        observers = self.observers

        def traced(*args, **kwargs):
            frame = enter()
            start = clock()
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                leave(name, frame, start, end)
            observer = observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the targets for the duration of the block."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        modules = {m.split(".")[-1]: sys.modules[m] for m in list(sys.modules)
                   if m == "superweyl" or m.startswith("superweyl.")}
        wrappers = {}
        for modname, names in TARGETS.items():
            for fn_name in names:
                original = getattr(modules[modname], fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{modname}.{fn_name}", original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def total(self, name: str, field: str, problems: Callable[[str], bool] = lambda p: True):
        return sum(getattr(s, field) for (p, n), s in self.stats.items()
                   if n == name and problems(p))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, problem in self.spans:
                handle.write(json.dumps({"name": name, "start": round(start, 9),
                                         "end": round(end, 9), "parent": parent,
                                         "problem": problem}) + "\n")
