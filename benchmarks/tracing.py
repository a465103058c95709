"""Per-layer tracing of the solver from outside the library.

Spans are recorded by wrappers around the public callables at each module
boundary.  A hook wraps a name where its caller binds it
(``sobrlw.scheme.l2_norm``, not ``sobrlw.norms.l2_norm``), so only the calls
made across that boundary are seen.  Problem callables (sources and the
reference solution) are traced by building the problem from wrapped
functions, see ``workloads.build``.  Nothing in the library is edited: hooks
are installed around one traced unit and removed after it.  A hook whose
target no longer exists is skipped, and every metric that needs it reads
``None``.

Spans (name, start, end, parent, unit id, tag) are kept in memory, written
out at the end, and reduced to per-layer counts and times.  A span's self
time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import STUDY_LEVELS

# span name -> (module, attribute), each bound where its caller looks it up
HOOKS = {
    "penta.setup": ("sobrlw.scheme", "TensorLineSolver"),   # wraps .solve too
    "penta.factor": ("sobrlw.scheme", "factor"),
    "penta.solve_line": ("sobrlw.scheme", "solve_line"),
    "scheme.fill": ("sobrlw.scheme", "fill_boundary_layers"),
    "stencils.wide_first": ("sobrlw.scheme", "wide_first_values"),
    "norms.l2": ("sobrlw.scheme", "l2_norm"),
    "norms.h2": ("sobrlw.scheme", "h2_norm"),
    "scheme.run": ("sobrlw.harness", "run"),
}

# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "penta.solve.calls": "count",
    "penta.solve.s": "s",
    "penta.solve.ns_per_unknown": "ns",
    "penta.solves_per_substep": "ratio",
    "penta.setup.calls": "count",
    "penta.setup.s": "s",
    "penta.line.calls": "count",
    "penta.line.s": "s",
    "problems.source.calls": "count",
    "problems.source.s": "s",
    "problems.reference.calls": "count",
    "problems.reference.s": "s",
    "scheme.fill.calls": "count",
    "scheme.fill.s": "s",
    "scheme.self.s": "s",
    "scheme.substeps": "count",
    "scheme.picard_iters": "count",
    "stencils.wide_first.calls": "count",
    "stencils.wide_first.s": "s",
    "norms.calls": "count",
    "norms.s": "s",
    **{f"harness.level{l}.s": "s" for l in STUDY_LEVELS},
    "harness.self.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _first_arg_size(*args, **kwargs):
    return int(np.size(args[0])) if args else 0


def grid_size(*args, **kwargs):
    """Tag of a run span: M of the grid it was called with."""
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    return getattr(grid, "M", None)


class Tracer:
    """Records spans of the wrapped callables; one instance per traced run."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, unit id, tag)
        self.results = []    # per unit: the SolutionRecords its runs returned
        self.missing = set()
        self.unit = -1
        self._stack = []

    def wrap(self, name, fn, tag=None, keep=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            value = tag(*args, **kwargs) if tag else None
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit, value)
            if keep:
                self.results[-1].append(out)
            return out

        return traced

    def _solver_factory(self, cls):
        construct = self.wrap("penta.setup", cls)

        def make(*args, **kwargs):
            solver = construct(*args, **kwargs)
            try:
                solver.solve = self.wrap("penta.solve", solver.solve,
                                         tag=_first_arg_size)
            except AttributeError:
                self.missing.add("penta.solve")
            return solver

        return make

    def _hook(self, name, target):
        if name == "penta.setup":
            return self._solver_factory(target)
        if name == "scheme.run":
            return self.wrap(name, target, tag=grid_size, keep=True)
        return self.wrap(name, target)

    @contextmanager
    def unit_scope(self):
        """Install every hook for one traced unit of work."""
        self.unit += 1
        self.results.append([])
        saved = []
        try:
            for name, (module_name, attr) in HOOKS.items():
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                target = getattr(module, attr, None)
                if target is None:
                    self.missing.add(name)
                    if name == "penta.setup":
                        self.missing.add("penta.solve")
                    continue
                saved.append((module, attr, target))
                setattr(module, attr, self._hook(name, target))
            yield
        finally:
            for module, attr, target in reversed(saved):
                setattr(module, attr, target)

    def unit_metrics(self) -> list:
        """Per-layer metrics of each traced unit (trace.overhead_ratio excluded)."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, unit, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows = defaultdict(list)
        for i, (name, start, end, parent, unit, tag) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent >= 0 else None
            rows[unit].append((name, end - start, end - start - child[i],
                               parent_name, tag))
        return [_reduce(rows[u], self.results[u], self.missing)
                for u in range(self.unit + 1)]

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("unit\tid\tparent\tname\tstart_s\tend_s\ttag\n")
            for i, (name, start, end, parent, unit, tag) in enumerate(self.spans):
                fh.write(f"{unit}\t{i}\t{parent}\t{name}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{'' if tag is None else tag}\n")


def _diagnostics_totals(records):
    try:
        iters = [list(r.diagnostics.picard_iterations) for r in records]
    except AttributeError:
        return None, None
    return sum(len(i) for i in iters), sum(sum(i) for i in iters)


def _reduce(rows, records, missing) -> dict:
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    level_s = defaultdict(float)
    unknowns = 0
    for name, dur, self_s, parent_name, tag in rows:
        calls[name] += 1
        total[name] += dur
        own[name] += self_s
        if name == "scheme.run" and parent_name == "harness.study":
            level_s[tag] += dur
        elif name == "penta.solve":
            unknowns += tag
    substeps, picard = _diagnostics_totals(records)
    solves = calls["penta.solve"]

    def need(*names):
        return lambda value: None if any(n in missing for n in names) else value

    solve, setup = need("penta.solve"), need("penta.setup")
    line = need("penta.factor", "penta.solve_line")
    fill, stencil = need("scheme.fill"), need("stencils.wide_first")
    norms, study_runs = need("norms.l2", "norms.h2"), need("scheme.run")
    out = {
        "penta.solve.calls": solve(solves),
        "penta.solve.s": solve(total["penta.solve"]),
        "penta.solve.ns_per_unknown": solve(
            1e9 * total["penta.solve"] / unknowns if unknowns else 0.0),
        "penta.solves_per_substep": solve(
            solves / substeps if substeps else None),
        "penta.setup.calls": setup(calls["penta.setup"]),
        "penta.setup.s": setup(total["penta.setup"]),
        "penta.line.calls": line(calls["penta.factor"] + calls["penta.solve_line"]),
        "penta.line.s": line(total["penta.factor"] + total["penta.solve_line"]),
        # source time includes the reference calls it makes
        "problems.source.calls": calls["problems.source"],
        "problems.source.s": total["problems.source"],
        "problems.reference.calls": calls["problems.reference"],
        "problems.reference.s": total["problems.reference"],
        "scheme.fill.calls": fill(calls["scheme.fill"]),
        "scheme.fill.s": fill(own["scheme.fill"]),
        "scheme.self.s": own["scheme.run"],
        "scheme.substeps": substeps,
        "scheme.picard_iters": picard,
        "stencils.wide_first.calls": stencil(calls["stencils.wide_first"]),
        "stencils.wide_first.s": stencil(total["stencils.wide_first"]),
        "norms.calls": norms(calls["norms.l2"] + calls["norms.h2"]),
        "norms.s": norms(total["norms.l2"] + total["norms.h2"]),
        **{f"harness.level{l}.s": study_runs(level_s[2 ** l]) for l in STUDY_LEVELS},
        "harness.self.s": own["harness.study"],
    }
    return out


COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")


def combine(per_unit: list) -> tuple:
    """Counts of the first unit and medians of everything else; also the
    names of counts that did not repeat exactly across units."""
    merged, unsteady = {}, []
    for key in per_unit[0]:
        values = [m[key] for m in per_unit]
        if key in COUNT_METRICS:
            merged[key] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(key)
        elif any(v is None for v in values):
            merged[key] = None
        else:
            merged[key] = statistics.median(values)
    return merged, unsteady
