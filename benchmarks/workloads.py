"""Workloads of the solver benchmark: inputs, one unit of work, checked outputs.

Each workload is one closed-loop caller making back-to-back calls into the
public ``sobrlw`` API.  One unit of work is one ``run()`` or one
``convergence_study()``.  Inputs are fixed by the workload name and the seed;
seed 0 reproduces the inputs of the pinned table in ``pins.json``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import sobrlw
from sobrlw.problems import MANUFACTURED_PRESETS

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

M_BENCH = 64
STUDY_LEVELS = (2, 3, 4, 5, 6)
# Horizons.  manufactured-source stops at T/8 (32 of 256 time levels), so
# that one unit takes about a second instead of 8-11 and a run holds many
# units.  The others keep the problem's T: the study stays the paper's
# protocol, whose solve share (about 80%) shrinks when its horizon does.
HORIZONS = {"manufactured-source": 0.125}

PIN_RTOL = 1e-12
# seeds other than 0 draw a new manufactured solution; its discrete error
# (sup over time levels of the l2 error) must stay below this bound
SEEDED_SUP_ERR_TOL = 1e-5

NAMES = ("conv-example1", "manufactured-source", "split-fidelity")


def _plain(name: str, fn: Callable) -> Callable:
    return fn


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    problem: sobrlw.ProblemSpec
    cfg: sobrlw.SchemeConfig
    T: Optional[float]          # horizon passed to the API; None = problem.T
    M: int                      # grid size of a single run (unused by a study)
    levels: tuple               # refinement levels of a study; () for a run
    grid: Optional[sobrlw.Grid2D]
    steps: int                  # integer time levels completed per unit
    seeded: bool                # inputs depend on the seed (checked by tolerance)

    def call(self, run=sobrlw.run, study=sobrlw.convergence_study):
        """One unit of work; ``run`` and ``study`` may be traced wrappers."""
        if self.levels:
            return study(self.problem, self.levels, self.cfg, T=self.T)
        return run(self.problem, self.grid, self.cfg, T=self.T)

    def with_wrap(self, wrap) -> "Workload":
        """The same inputs built from problem callables passed through ``wrap``."""
        return build(self.name, self.seed, M=self.M, T=self.T,
                     levels=self.levels, wrap=wrap)

    def outputs(self, result) -> dict:
        """The checked outputs of one unit, by name."""
        if self.levels:
            out = {}
            for row in result:
                if row.failed:
                    raise RuntimeError(f"level {row.level} failed: {row.note}")
                for key in ("k", "error", "norm_U", "rate"):
                    out[f"level{row.level}.{key}"] = getattr(row, key)
            return out
        if result.failed:
            raise RuntimeError(f"run failed: {result.failure}")
        return {"N": result.N, "k": result.k, "sup_err": result.sup_err,
                "sup_U": result.sup_U, "sup_h2_U": result.sup_h2_U}

    def mismatches(self, out: dict, pins: dict) -> list:
        """Names of outputs that differ from the pinned values."""
        if self.seeded:
            bad = [k for k in ("N", "k") if out.get(k) != pins[k]]
            if not (math.isfinite(out["sup_U"])
                    and out["sup_err"] <= SEEDED_SUP_ERR_TOL):
                bad.append("sup_err")
            return bad
        bad = [k for k, v in pins.items() if not _close(out.get(k), v)]
        return bad + sorted(set(out) - set(pins))


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return abs(got - want) <= PIN_RTOL * abs(want)


def load_pins(name: str) -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)[name]


def _count_steps(problem, T, M_values) -> int:
    horizon = problem.T if T is None else T
    total = 0
    for M in M_values:
        grid = sobrlw.make_grid(problem.L1, problem.L2, problem.L3, problem.L4, M)
        total += sobrlw.make_time_grid(
            horizon, sobrlw.time_step_rule(grid.hx, grid.hy)).N
    return total


def _example(spec: sobrlw.ProblemSpec, wrap) -> sobrlw.ProblemSpec:
    return replace(spec, f1=wrap("problems.source", spec.f1),
                   f2=wrap("problems.source", spec.f2),
                   exact=wrap("problems.reference", spec.exact))


def _manufactured_wave(seed: int, wrap) -> sobrlw.ProblemSpec:
    """The 'wave' manufactured problem; seeds other than 0 draw alpha and
    gamma in (0.5, 1] and a phase of the travelling wave."""
    if seed == 0:
        alpha, gamma, reference = 1.0, 1.0, MANUFACTURED_PRESETS["wave"]
    else:
        rng = np.random.default_rng(seed)
        alpha, gamma = (float(v) for v in 1.0 - 0.5 * rng.random(2))
        phase = float(2.0 * np.pi * rng.random())

        def reference(X, Y, t):
            return np.sin(np.pi * (X - t) + phase) * np.sin(np.pi * Y)

    spec = sobrlw.manufactured(alpha, 0.0, gamma,
                               wrap("problems.reference", reference),
                               name="manufactured:wave")
    return replace(spec, f1=wrap("problems.source", spec.f1),
                   f2=wrap("problems.source", spec.f2))


def build(name: str, seed: int, *, M: int = M_BENCH, T: Optional[float] = None,
          levels: tuple = STUDY_LEVELS, wrap=_plain) -> Workload:
    """Inputs of one workload.  ``M``, ``T`` and ``levels`` override the
    benchmark sizes (the smoke test uses tiny ones); ``wrap(span, fn)`` lets
    the tracer hand the program problem callables that record spans."""
    cfg = sobrlw.SchemeConfig()
    seeded = False
    T = HORIZONS.get(name) if T is None else T
    if name == "conv-example1":
        problem = _example(sobrlw.example1(), wrap)
    elif name == "manufactured-source":
        problem = _manufactured_wave(seed, wrap)
        seeded = seed != 0
    elif name == "split-fidelity":
        problem = _example(sobrlw.example1(), wrap)
        cfg = sobrlw.SchemeConfig(stepper="split")
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    if name != "conv-example1":
        levels = ()
    if levels:
        grid = None
        steps = _count_steps(problem, T, [2 ** l for l in levels if 2 ** l >= 4])
    else:
        grid = sobrlw.make_grid(problem.L1, problem.L2, problem.L3, problem.L4, M)
        steps = _count_steps(problem, T, [M])
    return Workload(name=name, seed=seed, problem=problem, cfg=cfg, T=T, M=M,
                    levels=tuple(levels), grid=grid, steps=steps, seeded=seeded)
