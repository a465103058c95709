"""Three-level time-split steppers for the model equation.

Two compositions are provided, selected by SchemeConfig.stepper:

"coupled" (default)
    Two-level trapezoidal half-steps chained through a three-level window.
    Every implicit solve keeps the full mass operator I - a*Lap4 (both
    directions), which is what makes the composition converge: the mixed
    time-space term couples the directions globally, and splitting the mass
    per direction changes the dynamics at leading order (each directional
    sub-flow of the first benchmark decays at rate 0.954 instead of the
    two composing to rate 1).  The solve is direct at line-solve cost: the
    symmetric x-operator is diagonalized once, each x-eigenmode yields one
    pentadiagonal y-line system, and the systems of all modes are factored
    and solved in one batched sweep over rows.

        startup   (M - (k/4)G) U^{1/2} = (M + s(k/4)G) U^0
                                         + (k/4)[f(t_{1/2}) + f(t_0)]
        chain     (M - (k/2)G) U^{q+1/2} = (M + s(k/2)G) U^{q-1/2}
                                           + k f(t_q, U^q, wide_first U^q)

    with M = I - a*Lap4, G = gamma*Lap4 - beta*(wide_first_x + wide_first_y),
    f = f1 + f2, s = +1 ("derived") or -1 ("paper").  The chain advances by
    half-steps; each update spans k with the source at the centered level
    (the leapfrog part) and the trapezoid across the outer levels (the
    Crank-Nicolson part).

"split"
    The literal directional composition: an x-direction trapezoidal
    half-step with f1, a y-direction one with f2, then a cycle of explicit
    x-leapfrog and implicit y half-steps, each sub-step using only its own
    direction's mass I - a*wide_second_z.  Kept for fidelity experiments;
    it does not converge (the y-direction physics cancels between
    consecutive cycles), which the convergence harness demonstrates.

Boundary layers {0,1,M-1,M} are filled at each sub-step's target time,
either from the reference solution ("exact") or by the copy rule
("paper_copy": outer layer from g, second layer copied outward).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BlowUpError, ConfigurationError, PicardError
from .grid import Field, Grid2D, TimeGrid, sample
from .norms import RunningMax, h2_norm, l2_norm
from .penta import (PentaBands, TensorLineSolver, factor, solve_line,
                    stencil_coefficients)
from .problems import ProblemSpec
from .stencils import Axis, axis_first, five_point, wide_first_values

STEPPERS = ("coupled", "split")
RHS_SIGNS = ("derived", "paper")
BOUNDARY_MODES = ("exact", "paper_copy")
# A fixed-point iteration (implicit source, transport lag) stops once its
# update is at most PICARD_TOL * (1 + max|iterate|).
PICARD_TOL = 1e-12
PICARD_MAX_ITERS = 50


@dataclass(frozen=True)
class SchemeConfig:
    stepper: str = "coupled"
    rhs_sign: str = "derived"
    leapfrog_alpha: str = "on"
    boundary_mode: str = "exact"
    k_rule: object = "auto"     # "auto" or an explicit time step (float)

    def __post_init__(self):
        if self.stepper not in STEPPERS:
            raise ConfigurationError(f"stepper must be one of {STEPPERS}")
        if self.rhs_sign not in RHS_SIGNS:
            raise ConfigurationError(f"rhs_sign must be one of {RHS_SIGNS}")
        if self.leapfrog_alpha not in ("on", "off"):
            raise ConfigurationError("leapfrog_alpha must be 'on' or 'off'")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ConfigurationError(f"boundary_mode must be one of {BOUNDARY_MODES}")


@dataclass
class StepDiagnostics:
    """Iterations per sub-step: fixed-point iterations of the trapezoidal
    half-steps with an implicit source, transport-lag iterations of the chain
    steps (1 without transport), 0 for the explicit leapfrog."""

    picard_iterations: list = dc_field(default_factory=list)


@dataclass(frozen=True)
class SchemeState:
    """Chain window: the two newest levels, at t_{n-1/2} and t_n."""

    n: int
    U_half: Field
    U_int: Field


def time_step_rule(hx: float, hy: float) -> float:
    """Benchmark time step k = min(hx, hy)^(4/3)."""
    if hx <= 0 or hy <= 0:
        raise ConfigurationError("mesh steps must be positive")
    return min(hx, hy) ** (4.0 / 3.0)


def make_time_grid(T: float, k_raw: float) -> TimeGrid:
    """Round k so an integer number of steps lands exactly on T."""
    if not (math.isfinite(T) and math.isfinite(k_raw)):
        raise ConfigurationError(f"T and k must be finite, got T={T}, k={k_raw}")
    if k_raw <= 0:
        raise ConfigurationError(f"time step must be positive, got {k_raw}")
    N = max(1, round(T / k_raw))
    return TimeGrid(T=float(T), N=int(N))


def resolve_time_grid(grid: Grid2D, cfg: SchemeConfig, T: float) -> TimeGrid:
    if cfg.k_rule == "auto":
        return make_time_grid(T, time_step_rule(grid.hx, grid.hy))
    return make_time_grid(T, float(cfg.k_rule))


def fill_boundary_layers(values: np.ndarray, t: float, problem: ProblemSpec,
                         grid: Grid2D, mode: str) -> np.ndarray:
    """Return a copy with node layers {0,1,M-1,M} set for time t."""
    M = grid.M
    X, Y = grid.mesh()
    out = np.array(values, dtype=float, copy=True)
    if mode == "exact":
        if problem.exact is not None:
            E = np.asarray(problem.exact(X, Y, t), dtype=float)
        elif problem.g_extends:
            E = np.broadcast_to(np.asarray(problem.g(X, Y, t), float), X.shape)
        else:
            raise ConfigurationError(
                "boundary_mode='exact' needs a reference solution or a g "
                "defined on the whole closure (g_extends)")
        for l in (0, 1, M - 1, M):
            out[l, :] = E[l, :]
            out[:, l] = E[:, l]
        return out
    if mode == "paper_copy":
        G = np.broadcast_to(np.asarray(problem.g(X, Y, t), float), X.shape)
        out[0, :] = G[0, :]
        out[M, :] = G[M, :]
        out[1, :] = out[0, :]
        out[M - 1, :] = out[M, :]
        out[:, 0] = G[:, 0]
        out[:, M] = G[:, M]
        out[:, 1] = out[:, 0]
        out[:, M - 1] = out[:, M]
        return out
    raise ConfigurationError(f"unknown boundary mode {mode!r}")


def _fixed_point(x: np.ndarray, step: Callable, what: str, t: float):
    """Iterate x <- step(x) to a fixed point; return it and the iteration count."""
    trace = []
    for _ in range(PICARD_MAX_ITERS):
        new = step(x)
        upd = float(np.abs(new - x).max())
        trace.append(upd)
        x = new
        if upd <= PICARD_TOL * (1.0 + float(np.abs(new).max())):
            return x, len(trace)
    raise PicardError(f"{what} did not converge at t={t:g} "
                      f"(last updates {trace[-3:]})", trace=trace)


class _Operator(NamedTuple):
    """One kind of sub-step: (I + lhs) V = rhs(U_old) + ...

    lhs and rhs are (x, y) pairs of identity-free five-point stencils, None
    where a direction is absent; solve(b, guess, t) returns the interior
    values and an iteration count.
    """

    lhs: tuple
    rhs: tuple
    solve: Callable


class _Engine:
    """Precomputed machinery for one (problem, grid, cfg, k) combination.

    Every sub-step fills the boundary layers of the new level, moves the
    frame to the right-hand side as rhs - lhs(frame), solves for the
    interior, and iterates an implicit source to a fixed point.  A
    subclass per stepper builds its operators in _build and defines

        startup(U^0) -> U^{1/2}
        half_update(U^{n-1/2}, U^n, t_n) -> U^{n+1/2}
        int_update(U^n, U^{n+1/2}, t_{n+1/2}) -> U^{n+1}
    """

    def __init__(self, problem: ProblemSpec, grid: Grid2D, cfg: SchemeConfig, k: float):
        if grid.n_interior < 1:
            raise ConfigurationError("grid has no interior nodes")
        self.problem = problem
        self.grid = grid
        self.cfg = cfg
        self.k = k
        self.n = grid.n_interior
        self.X, self.Y = grid.mesh()
        self.s = +1.0 if cfg.rhs_sign == "derived" else -1.0
        self.a_mass = problem.alpha if cfg.leapfrog_alpha == "on" else 1.0
        self.diagnostics = StepDiagnostics()
        self._build()

    # -- shared helpers ----------------------------------------------------

    def _interior(self, values: np.ndarray) -> np.ndarray:
        s = self.grid.interior
        return values[s, s]

    def _apply(self, U: np.ndarray, cx=None, cy=None) -> np.ndarray:
        """Directional five-point sums of a full field, on the interior block."""
        s = self.grid.interior
        if cy is None:
            return five_point(U[:, s], cx, Axis.X)
        if cx is None:
            return five_point(U[s, :], cy, Axis.Y)
        return five_point(U[:, s], cx, Axis.X) + five_point(U[s, :], cy, Axis.Y)

    def f_total(self, t: float, U: np.ndarray) -> np.ndarray:
        ux = wide_first_values(U, self.grid.hx, Axis.X)
        uy = wide_first_values(U, self.grid.hy, Axis.Y)
        p = self.problem
        return np.asarray(p.f1(self.X, self.Y, t, U, ux)
                          + p.f2(self.X, self.Y, t, U, uy), dtype=float)

    def fill(self, values: np.ndarray, t: float) -> np.ndarray:
        return fill_boundary_layers(values, t, self.problem, self.grid,
                                    self.cfg.boundary_mode)

    def _check_finite(self, values: np.ndarray, t: float) -> None:
        if not np.isfinite(values).all():
            raise BlowUpError(f"non-finite values at t={t:g}", level=t)

    def _substep(self, op: _Operator, U_from: np.ndarray, t_next: float,
                 rhs: np.ndarray, guess=None, implicit=None, what: str = "") -> np.ndarray:
        """New level at t_next: the layers of U_from filled, the interior solved.

        With implicit(U), the right-hand side rhs + implicit(V) is iterated
        to a fixed point in V; guess seeds the solver's own iteration.
        """
        s = self.grid.interior
        Un = self.fill(U_from, t_next)
        frame = Un.copy()
        frame[s, s] = 0.0
        moved = self._apply(frame, *op.lhs)
        if implicit is None:
            new, its = op.solve(rhs - moved, guess, t_next)
        else:
            def step(x):
                Un[s, s] = x
                return op.solve(rhs + implicit(Un) - moved, x, t_next)[0]
            new, its = _fixed_point(Un[s, s], step, what, t_next)
        Un[s, s] = new
        self._check_finite(Un, t_next)
        self.diagnostics.picard_iterations.append(its)
        return Un


class _CoupledEngine(_Engine):
    """Full-mass trapezoidal half-steps chained through the three-level window."""

    def _build(self):
        g, p, k, n = self.grid, self.problem, self.k, self.n
        self._ops = {}
        def both(th):
            return (stencil_coefficients(g.hx, self.a_mass, p.beta, p.gamma, th),
                    stencil_coefficients(g.hy, self.a_mass, p.beta, p.gamma, th))

        for tag, theta in (("startup", k / 4.0), ("chain", k / 2.0)):
            lhs, rhs = both(theta), both(-self.s * theta)
            # symmetric x part (wide_second only) is diagonalized; the skew
            # beta part along x is iterated, along y it sits in the bands.
            sym_x = stencil_coefficients(g.hx, self.a_mass, 0.0, p.gamma, theta)
            solver = TensorLineSolver(PentaBands(*sym_x, n=n), PentaBands(*lhs[1], n=n))
            skew_x = None
            if p.beta != 0.0:
                skew = stencil_coefficients(g.hx, 0.0, p.beta, 0.0, theta)
                skew_x = PentaBands(*skew, n=n).dense()
            self._ops[tag] = _Operator(lhs, rhs,
                                       partial(_coupled_solve, solver, skew_x))

    def startup(self, U0: np.ndarray) -> np.ndarray:
        """Trapezoidal half-step 0 -> k/2 with the source iterated implicitly."""
        k, op = self.k, self._ops["startup"]
        t1 = k / 2.0
        rhs = (self._interior(U0) + self._apply(U0, *op.rhs)
               + (k / 4.0) * self._interior(self.f_total(0.0, U0)))
        return self._substep(
            op, U0, t1, rhs, what="startup iteration",
            implicit=lambda U: (k / 4.0) * self._interior(self.f_total(t1, U)))

    def chain_step(self, base: np.ndarray, mid: np.ndarray, t_mid: float) -> np.ndarray:
        """Three-level update spanning k, centered at t_mid."""
        k, op = self.k, self._ops["chain"]
        rhs = (self._interior(base) + self._apply(base, *op.rhs)
               + k * self._interior(self.f_total(t_mid, mid)))
        return self._substep(op, base, t_mid + k / 2.0, rhs,
                             guess=self._interior(mid))

    half_update = int_update = chain_step


class _SplitEngine(_Engine):
    """The literal directional composition (see the module docstring)."""

    def _build(self):
        g, p, k, n = self.grid, self.problem, self.k, self.n
        th = k / 4.0

        def line_op(axis, lhs, rhs):
            fact = factor(PentaBands(*lhs[axis.value], n=n).shifted(1.0))
            return _Operator(lhs, rhs, partial(_line_solve, fact, axis))

        self._ops = {}
        for axis, h in ((Axis.X, g.hx), (Axis.Y, g.hy)):
            def along(theta, axis=axis, h=h):
                c = stencil_coefficients(h, p.alpha, p.beta, p.gamma, theta)
                return (c, None) if axis is Axis.X else (None, c)
            self._ops[axis] = line_op(axis, along(th), along(-self.s * th))
        mass = (stencil_coefficients(g.hx, self.a_mass, 0.0, 0.0, 0.0), None)
        self._ops["leapfrog"] = line_op(Axis.X, mass, mass)
        # +(gamma*wide_second - beta*wide_first), the explicit middle term
        self._c_mid = -stencil_coefficients(g.hx, 0.0, p.beta, p.gamma, 1.0)

    def cn(self, axis: Axis, U_from: np.ndarray, t_from: float) -> np.ndarray:
        """Directional trapezoidal half-step (x carries f1, y carries f2)."""
        g, p, k = self.grid, self.problem, self.k
        t_next = t_from + k / 2.0
        h, fsrc = (g.hx, p.f1) if axis is Axis.X else (g.hy, p.f2)

        def source(t, U):
            d = wide_first_values(U, h, axis)
            return (k / 4.0) * self._interior(
                np.asarray(fsrc(self.X, self.Y, t, U, d), dtype=float))

        op = self._ops[axis]
        rhs = self._interior(U_from) + self._apply(U_from, *op.rhs) + source(t_from, U_from)
        return self._substep(op, U_from, t_next, rhs,
                             implicit=partial(source, t_next),
                             what=f"directional implicit step along {axis.name}")

    def startup(self, U0: np.ndarray) -> np.ndarray:
        return self.cn(Axis.X, U0, 0.0)

    def leapfrog(self, U_half_prev: np.ndarray, U_int: np.ndarray,
                 t_n: float) -> np.ndarray:
        """Explicit-midpoint x-direction update spanning k."""
        g, p, k = self.grid, self.problem, self.k
        t_next = t_n + k / 2.0
        op = self._ops["leapfrog"]
        ux = wide_first_values(U_int, g.hx, Axis.X)
        fmid = np.asarray(p.f1(self.X, self.Y, t_n, U_int, ux), dtype=float)
        rhs = (self._interior(U_half_prev) + self._apply(U_half_prev, *op.rhs)
               + k * self._apply(U_int, self._c_mid)
               + k * self._interior(fmid))
        if not np.isfinite(rhs).all():
            raise BlowUpError(f"non-finite right-hand side at t={t_next:g}",
                              level=t_next)
        return self._substep(op, U_half_prev, t_next, rhs)

    half_update = leapfrog

    def int_update(self, base: np.ndarray, mid: np.ndarray, t_mid: float) -> np.ndarray:
        return self.cn(Axis.Y, mid, t_mid)


_ENGINES = {"coupled": _CoupledEngine, "split": _SplitEngine}


def _engine(problem: ProblemSpec, grid: Grid2D, cfg: SchemeConfig, k: float) -> _Engine:
    return _ENGINES[cfg.stepper](problem, grid, cfg, k)


def _coupled_solve(solver, skew_x, b: np.ndarray, guess: np.ndarray, t: float):
    """Solve (I + Ax + Ay) V = b, lagging the x-skew part."""
    if skew_x is None:
        return solver.solve(b), 1
    return _fixed_point(guess, lambda x: solver.solve(b - skew_x @ x),
                        "transport lag iteration", t)


def _line_solve(fact, axis: Axis, b: np.ndarray, guess, t: float):
    """Solve the pentadiagonal systems of the lines along axis."""
    return axis_first(solve_line(fact, axis_first(b, axis)), axis), 0


def _step(eng: _Engine, half: np.ndarray, cur: np.ndarray, n: int):
    """(U^{n-1/2}, U^n) -> (U^{n+1/2}, U^{n+1})."""
    new_half = eng.half_update(half, cur, n * eng.k)
    return new_half, eng.int_update(cur, new_half, (n + 0.5) * eng.k)


# ---------------------------------------------------------------------------
# public operations (spec surface); each wraps an engine call


def init_half_step(U0: Field, problem: ProblemSpec, k: float,
                   cfg: SchemeConfig = SchemeConfig()) -> Field:
    """First half-step U^0 -> U^{1/2}.

    coupled: full-operator trapezoidal half-step; split: the literal
    x-direction half-step carrying f1.
    """
    eng = _engine(problem, U0.grid, cfg, k)
    return Field(U0.grid, eng.startup(np.array(U0.values)))


def cn_y_step(U_from: Field, t_from: float, k: float, problem: ProblemSpec,
              cfg: SchemeConfig = SchemeConfig()) -> Field:
    """Directional y-trapezoid half-step t_from -> t_from + k/2 (carries f2)."""
    eng = _SplitEngine(problem, U_from.grid, cfg, k)
    return Field(U_from.grid, eng.cn(Axis.Y, np.array(U_from.values), t_from))


def cn_x_step(U_from: Field, t_from: float, k: float, problem: ProblemSpec,
              cfg: SchemeConfig = SchemeConfig()) -> Field:
    """Directional x-trapezoid half-step t_from -> t_from + k/2 (carries f1)."""
    eng = _SplitEngine(problem, U_from.grid, cfg, k)
    return Field(U_from.grid, eng.cn(Axis.X, np.array(U_from.values), t_from))


def leapfrog_x_step(U_half_prev: Field, U_int: Field, t_n: float, k: float,
                    problem: ProblemSpec, cfg: SchemeConfig = SchemeConfig()) -> Field:
    """Explicit-midpoint x-direction update t_{n-1/2} -> t_{n+1/2}."""
    U_half_prev.same_grid(U_int)
    eng = _SplitEngine(problem, U_int.grid, cfg, k)
    return Field(U_int.grid, eng.leapfrog(np.array(U_half_prev.values),
                                          np.array(U_int.values), t_n))


def advance(state: SchemeState, problem: ProblemSpec, k: float,
            cfg: SchemeConfig = SchemeConfig()) -> SchemeState:
    """Advance the (t_{n-1/2}, t_n) window one full step to (t_{n+1/2}, t_{n+1})."""
    g = state.U_int.grid
    half, cur = _step(_engine(problem, g, cfg, k), np.array(state.U_half.values),
                      np.array(state.U_int.values), state.n)
    return SchemeState(n=state.n + 1, U_half=Field(g, half), U_int=Field(g, cur))


@dataclass
class SolutionRecord:
    """Per-integer-level norms, running maxima, and the final field."""

    problem_name: str
    M: int
    k: float
    N: int
    cfg: SchemeConfig
    times: list = dc_field(default_factory=list)
    l2_u: list = dc_field(default_factory=list)
    l2_U: list = dc_field(default_factory=list)
    l2_err: list = dc_field(default_factory=list)
    sup_u: float = 0.0
    sup_U: float = 0.0
    sup_err: float = 0.0
    sup_h2_u: float = 0.0
    sup_h2_U: float = 0.0
    sup_h2_err: float = 0.0
    final: Optional[Field] = None
    snapshots: dict = dc_field(default_factory=dict)
    diagnostics: Optional[StepDiagnostics] = None
    failed: bool = False
    failure: str = ""


def run(problem: ProblemSpec, grid: Grid2D, cfg: SchemeConfig = SchemeConfig(),
        T: Optional[float] = None, dump_times=()) -> SolutionRecord:
    """Integrate to T, tracking norms over the integer levels n = 0..N."""
    T = problem.T if T is None else float(T)
    tg = resolve_time_grid(grid, cfg, T)
    k, N = tg.k, tg.N
    eng = _engine(problem, grid, cfg, k)
    rec = SolutionRecord(problem_name=problem.name, M=grid.M, k=k, N=N, cfg=cfg,
                         diagnostics=eng.diagnostics)
    X, Y = grid.mesh()
    have_exact = problem.exact is not None
    max_u, max_U, max_e = RunningMax(), RunningMax(), RunningMax()
    max_h2u, max_h2U, max_h2e = RunningMax(), RunningMax(), RunningMax()
    dump_left = sorted(float(t) for t in dump_times)

    def observe(level_n: int, values: np.ndarray):
        t = level_n * k
        f = Field(grid, values)
        rec.times.append(t)
        lU = l2_norm(f)
        rec.l2_U.append(lU)
        max_U.update(lU)
        max_h2U.update(h2_norm(f, problem.alpha).h2)
        if have_exact:
            ex = Field(grid, np.asarray(problem.exact(X, Y, t), float))
            err = Field(grid, ex.values - f.values)
            nu, ne = h2_norm(ex, problem.alpha), h2_norm(err, problem.alpha)
            rec.l2_u.append(nu.l2)
            rec.l2_err.append(ne.l2)
            max_u.update(nu.l2)
            max_e.update(ne.l2)
            max_h2u.update(nu.h2)
            max_h2e.update(ne.h2)
        while dump_left and t >= dump_left[0] - 0.25 * k:
            rec.snapshots[dump_left.pop(0)] = (t, f)

    U0 = sample(grid, lambda X_, Y_, t_: problem.u0(X_, Y_), 0.0).values
    try:
        observe(0, U0)
        half = eng.startup(U0)
        cur = eng.int_update(U0, half, 0.5 * k)
        observe(1, cur)
        for n in range(1, N):
            half, cur = _step(eng, half, cur, n)
            observe(n + 1, cur)
        rec.final = Field(grid, cur)
    except (BlowUpError, PicardError) as exc:
        rec.failed = True
        rec.failure = f"{type(exc).__name__}: {exc}"
    rec.sup_u, rec.sup_U, rec.sup_err = max_u.max, max_U.max, max_e.max
    rec.sup_h2_u, rec.sup_h2_U, rec.sup_h2_err = max_h2u.max, max_h2U.max, max_h2e.max
    return rec
