"""Span recording around the public functions the workloads call.

The package itself carries no tracing. `Tracer.installed()` swaps each
traced module attribute for a wrapper that records one span per call
and restores the originals on exit. Call sites inside the package look
these names up in their module's globals at call time, so the wrappers
see every call that a workload makes, including the nested ones
(`table1_experiment` -> `run_monte_carlo` -> `run_trial`).

Spans are kept in memory as (name, start, end, parent, cell, tag)
tuples, where parent is the index of the enclosing span (-1 for none),
cell numbers the enclosing `run_monte_carlo` call (-1 outside one) and
tag is the algorithm of a `run_monte_carlo` span. Spans from pool
workers are not collected, so traced runs are serial.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

# (module attribute path, span name) of every traced public function.
TRACED = (
    ("cli.main", "cli.main"),
    ("sim.run_monte_carlo", "sim.run_monte_carlo"),
    ("sim.solve_prior_for_r_mech", "prior.solve_prior_for_r_mech"),
    ("cli.solve_prior_for_r_mech", "prior.solve_prior_for_r_mech"),
    ("sim.build_environment", "sim.build_environment"),
    ("sim.run_trial", "sim.run_trial"),
    ("certificates.certificate_report", "certificates.certificate_report"),
    ("sweep.sweep_2d", "sweep.sweep_2d"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._cells = 0
        self._cell = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_cell = name == "sim.run_monte_carlo"

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer_cell = self._cell
            tag = ""
            if is_cell:
                self._cell, self._cells = self._cells, self._cells + 1
                tag = args[1] if len(args) > 1 else kwargs.get("algorithm", "")
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._cell, tag)
                self._cell = outer_cell

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every TRACED function; `modules` maps 'cli', 'sim', ... to modules."""
        saved = []
        try:
            for path, name in TRACED:
                mod_name, attr = path.split(".")
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> dict:
        """{span name: (calls, total s, self s)}; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _cell, _tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _p, _c, _t) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def cell_times(self) -> list:
        """(algorithm, seconds) of every run_monte_carlo span."""
        return [(tag, end - start) for name, start, end, _p, _c, tag in self.spans
                if name == "sim.run_monte_carlo"]

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, *_ in self.spans if n == name)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "cell", "tag"],
                       "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, c, t]
                                 for n, s, e, p, c, t in self.spans]}, fh)
