"""Spans around library functions, installed from outside the program.

A :class:`Tracer` wraps each named function once and, while installed,
binds the wrapper to every module attribute of the package that refers to
the original, so `witness.rotate` (imported from `loo`) is traced too.
Spans are named after the target, i.e. the defining module, and kept in
memory as ``(name, start_ns, end_ns, parent_index, request)`` tuples.
Targets that no longer exist are reported as absent instead of failing, so
the benchmark keeps running after a refactor deletes a function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

TARGETS = (
    "cli.main",
    "cli.scan_score",
    "qstate.load_state",
    "qstate.validate",
    "qstate.trace_norm",
    "loo.rotate",
    "loo.expectation_matrix",
    "loo.gell_mann_basis",
    "witness.optimal_linear_min",
    "witness.optimal_nonlinear_min",
    "witness.correlation_matrix",
    "witness.covariance_matrix",
    "criteria.criterion_score",
    "criteria.concurrence_lower_bounds",
)


class Tracer:
    def __init__(self, package: str = "loowit", targets=TARGETS):
        self.package = package
        self.spans: list = []
        self.request = -1
        self.absent: list[str] = []
        self.defined_in: dict[str, str] = {}
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._patched: list = []
        for target in targets:
            module_name, func_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            func = getattr(module, func_name, None)
            if not isinstance(func, types.FunctionType):
                self.absent.append(target)
                continue
            self.defined_in[target] = func.__module__
            self._wrappers[func] = self._wrap(target, func)

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def install(self) -> None:
        prefix = self.package + "."
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, int]]:
        """Calls and self time (span minus the spans it directly caused) per name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - inner
        return out

    def write(self, path, header: str) -> None:
        """CSV, one span per line; parent is a span index, -1 for a root."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\nspan,parent,request,name,start_ns,end_ns\n")
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{index},{parent},{request},{name},{start},{end}\n")
