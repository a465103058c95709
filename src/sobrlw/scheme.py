"""Three-level time-split steppers for the model equation.

Two compositions, selected by SchemeConfig.stepper, are built from two
kinds of sub-step: the two-level trapezoidal (Crank-Nicolson) half-step and
the three-level (leapfrog) update spanning k.

"coupled" (default)
    Two-level trapezoidal half-steps chained through a three-level window.
    Every implicit solve keeps the full mass operator I - a*Lap4 (both
    directions), which is what makes the composition converge: the mixed
    time-space term couples the directions globally, and splitting the mass
    per direction changes the dynamics at leading order (each directional
    sub-flow of the first benchmark decays at rate 0.954 instead of the
    two composing to rate 1).  Each sub-step is one direct solve at
    line-solve cost: the whole x-operator, transport part included, is
    diagonalized once, each x-eigenmode yields one pentadiagonal y-line
    system, and the systems of all modes are factored and solved in one
    batched sweep over rows.

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
from functools import partial, reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BlowUpError, ConfigurationError, PicardError
from .grid import Field, Grid2D, TimeGrid, _real, sample
# h2_norm and l2_norm are bound only for the norms hooks of benchmarks/tracing.py
# (ROADMAP item 11 re-points them); run() calls the stacked kernel _h2_reports
from .norms import _h2_reports, h2_norm, l2_norm  # noqa: F401
from .penta import (PentaBands, TensorLineSolver, factor, solve_line,
                    stencil_coefficients)
from .problems import ProblemSpec
from .stencils import Axis, axis_first, five_point, wide_first_values

STEPPERS = ("coupled", "split")
RHS_SIGNS = ("derived", "paper")
LEAPFROG_ALPHAS = ("on", "off")
BOUNDARY_MODES = ("exact", "paper_copy")
# The fixed-point iteration of an implicit source stops once its update is
# at most PICARD_TOL * (1 + max|iterate|).
PICARD_TOL = 1e-12
PICARD_MAX_ITERS = 50
# A solved level with |U| > BLOW_UP_BOUND (or non-finite) raises BlowUpError
# at that level: below it the squares in the norms and the quadratic sources
# of the next sub-step stay finite, so a blow-up is named before any overflow.
BLOW_UP_BOUND = 1e100


@dataclass(frozen=True)
class SchemeConfig:
    stepper: str = "coupled"
    rhs_sign: str = "derived"
    leapfrog_alpha: str = "on"
    boundary_mode: str = "exact"
    k_rule: object = "auto"     # "auto" or an explicit time step (float)

    def __post_init__(self):
        for name, choices in (("stepper", STEPPERS), ("rhs_sign", RHS_SIGNS),
                              ("leapfrog_alpha", LEAPFROG_ALPHAS),
                              ("boundary_mode", BOUNDARY_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigurationError(f"{name} must be one of {choices}")
        k = self.k_rule
        if not (k == "auto" if isinstance(k, str) else _real(k) and math.isfinite(k) and k > 0):
            raise ConfigurationError(
                f"k_rule must be 'auto' or a finite positive time step, got {k!r}")


@dataclass
class StepDiagnostics:
    """Linear solves per sub-step: 1 for a three-level update (one direct
    solve), the fixed-point iterations (one solve each) for a trapezoidal
    half-step with an implicit source."""

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
    """Return a copy with node layers {0,1,M-1,M} set for time t.

    The reference (or g) is called once, through Grid2D.evaluate (open
    coordinates, result broadcast to the mesh); it must be elementwise in
    X and Y.
    """
    M = grid.M
    layers = (0, 1, M - 1, M)
    if mode == "exact":
        if problem.exact is not None:
            fn = problem.exact
        elif problem.g_extends:
            fn = problem.g
        else:
            raise ConfigurationError(
                "boundary_mode='exact' needs a reference solution or a g "
                "defined on the whole closure (g_extends)")
        sources = layers
    elif mode == "paper_copy":      # the second layer copies the outer one
        fn, sources = problem.g, (0, 0, M, M)
    else:
        raise ConfigurationError(f"unknown boundary mode {mode!r}")
    E = grid.evaluate(fn, t)
    out = np.array(values, dtype=float, copy=True)
    for l, src in zip(layers, sources):     # rows first: the columns own the corners
        out[l, :] = E[src, :]
    for l, src in zip(layers, sources):
        out[:, l] = E[:, src]
    return out


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
    """One kind of sub-step: (I + lhs) V = (I + rhs) U_from + ...

    lhs and rhs hold one (Axis, identity-free five-point stencil) pair per
    direction of the sub-step, X first; solve(b) returns the interior values.
    """

    lhs: tuple
    rhs: tuple
    solve: Callable


class _Engine:
    """Precomputed machinery for one (problem, grid, cfg, k) combination.

    Every sub-step, a trapezoid or a three-level update, is one _substep:
    it forms the right-hand side (I + rhs) U_from plus explicit terms,
    fills the boundary layers of the new level, moves the frame to the
    right-hand side as rhs - lhs(frame), solves for the interior, and
    iterates an implicit source to a fixed point.  A subclass per stepper
    builds its operators in _build and defines

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
        # the sources read the interior only: its open coordinates (read-only)
        s, (X, Y) = grid.interior, grid.open_mesh()
        self.X, self.Y = X[s], Y[:, s]
        self.s = +1.0 if cfg.rhs_sign == "derived" else -1.0
        self.a_mass = problem.alpha if cfg.leapfrog_alpha == "on" else 1.0
        self.diagnostics = StepDiagnostics()
        self._build()

    # -- shared helpers ----------------------------------------------------

    def _apply(self, U: np.ndarray, terms) -> np.ndarray:
        """Five-point sums of a full field along each direction of terms,
        (Axis, stencil) pairs, summed in order, on the interior block."""
        s = self.grid.interior
        return reduce(np.add, (five_point(U[:, s] if axis is Axis.X else U[s, :], c, axis)
                               for axis, c in terms))

    def _frame_moved(self, U: np.ndarray, terms) -> np.ndarray:
        """_apply(frame, terms) for the frame of U: its layers {0,1,M-1,M}
        with a zero interior.

        Per direction, one five_point runs over the two layers at each end
        with m = min(n, 4) zeros between; its first two and last m - 2 sums
        are the interior lines that the frame reaches (all n when n < 4),
        and +0 fills the lines between.  The directions are summed as _apply
        sums them: for n >= 3 each strip sum has a +0 product from an
        interior zero, so it is never -0 and the other direction's +0 keeps
        it (adding into one zero block would turn a -0 sum of n <= 2 to +0).
        """
        n, s = self.n, self.grid.interior
        m = min(n, 4)

        def strips(axis, c):
            lines = axis_first(U, axis)[:, s]
            ends = np.concatenate((lines[:2], np.zeros((m, n)), lines[-2:]))
            sums = five_point(ends, c, Axis.X)
            return axis_first(np.concatenate((sums[:2], np.zeros((n - m, n)), sums[2:])), axis)

        return reduce(np.add, (strips(axis, c) for axis, c in terms))

    def source(self, axis: Axis, t: float, U: np.ndarray) -> np.ndarray:
        """f1 (axis X) or f2 (axis Y) of the full field U at time t, on the
        interior block: the source gets the open interior coordinates (X an
        n x 1 column, Y a 1 x n row), and U and its wide first derivative
        along axis as n x n interior blocks."""
        g, s = self.grid, self.grid.interior
        if axis is Axis.X:
            fsrc, d = self.problem.f1, wide_first_values(U[:, s], g.hx, axis)[s]
        else:
            fsrc, d = self.problem.f2, wide_first_values(U[s, :], g.hy, axis)[:, s]
        return np.asarray(fsrc(self.X, self.Y, t, U[s, s], d), dtype=float)

    def f_total(self, t: float, U: np.ndarray) -> np.ndarray:
        return self.source(Axis.X, t, U) + self.source(Axis.Y, t, U)

    def _substep(self, op: _Operator, U_from: np.ndarray, t_next: float,
                 *terms: np.ndarray, implicit=None, what: str = "") -> np.ndarray:
        """New level at t_next: the layers of U_from filled, the interior solved.

        The right-hand side is (I + rhs) U_from plus the explicit terms, in
        order; with implicit(U), rhs + implicit(V) is iterated to a fixed
        point in V.  Records its solves: 1, or the iterations.
        """
        s = self.grid.interior
        rhs = sum(terms, U_from[s, s] + self._apply(U_from, op.rhs))
        if not np.isfinite(rhs).all():
            raise BlowUpError(f"non-finite right-hand side at t={t_next:g}", level=t_next)
        Un = fill_boundary_layers(U_from, t_next, self.problem, self.grid,
                                  self.cfg.boundary_mode)
        moved = self._frame_moved(Un, op.lhs)
        if implicit is None:
            new, its = op.solve(rhs - moved), 1
        else:
            def step(x):
                Un[s, s] = x
                return op.solve(rhs + implicit(Un) - moved)
            new, its = _fixed_point(Un[s, s], step, what, t_next)
        Un[s, s] = new
        if not np.abs(Un).max() <= BLOW_UP_BOUND:      # NaN fails too
            raise BlowUpError(f"|U| > {BLOW_UP_BOUND:g} at t={t_next:g}", level=t_next)
        self.diagnostics.picard_iterations.append(its)
        return Un

    def _trapezoid(self, op: _Operator, U_from: np.ndarray, t_from: float,
                   f: Callable, what: str) -> np.ndarray:
        """Half-step t_from -> t_from + k/2 with the trapezoid of the source
        f(t, U): at t_from explicitly, at the new level iterated implicitly."""
        w, t_next = self.k / 4.0, t_from + self.k / 2.0
        return self._substep(op, U_from, t_next, w * f(t_from, U_from), what=what,
                             implicit=lambda U: w * f(t_next, U))


class _CoupledEngine(_Engine):
    """Full-mass trapezoidal half-steps chained through the three-level window."""

    def _build(self):
        g, p, k, n = self.grid, self.problem, self.k, self.n
        self._ops = {}
        for tag, theta in (("startup", k / 4.0), ("chain", k / 2.0)):
            lhs, rhs = (((Axis.X, stencil_coefficients(g.hx, self.a_mass, p.beta, p.gamma, th)),
                         (Axis.Y, stencil_coefficients(g.hy, self.a_mass, p.beta, p.gamma, th)))
                        for th in (theta, -self.s * theta))
            solver = TensorLineSolver(*(PentaBands(*c, n=n) for _, c in lhs))
            self._ops[tag] = _Operator(lhs, rhs, solver.solve)

    def startup(self, U0: np.ndarray) -> np.ndarray:
        """Trapezoidal half-step 0 -> k/2 with the source iterated implicitly."""
        return self._trapezoid(self._ops["startup"], U0, 0.0, self.f_total,
                               "startup iteration")

    def chain_step(self, base: np.ndarray, mid: np.ndarray, t_mid: float) -> np.ndarray:
        """Three-level update spanning k, centered at t_mid."""
        k = self.k
        return self._substep(self._ops["chain"], base, t_mid + k / 2.0,
                             k * self.f_total(t_mid, mid))

    half_update = int_update = chain_step


class _SplitEngine(_Engine):
    """The literal directional composition (see the module docstring)."""

    def _build(self):
        g, p, k, n = self.grid, self.problem, self.k, self.n
        th = k / 4.0

        def line_op(lhs, rhs):
            # stacked, one main diagonal per line: factor rows take the
            # shape of the (n, n) right-hand side rows, with no broadcast
            (axis, c), = lhs
            fact = factor(PentaBands(*c, n=n).shifted(np.ones(n)))
            return _Operator(lhs, rhs, partial(_line_solve, fact, axis))

        self._ops = {}
        for axis, h in ((Axis.X, g.hx), (Axis.Y, g.hy)):
            self._ops[axis] = line_op(*(
                ((axis, stencil_coefficients(h, p.alpha, p.beta, p.gamma, theta)),)
                for theta in (th, -self.s * th)))
        mass = ((Axis.X, stencil_coefficients(g.hx, self.a_mass, 0.0, 0.0, 0.0)),)
        self._ops["leapfrog"] = line_op(mass, mass)
        # +(gamma*wide_second - beta*wide_first), the explicit middle term
        self._c_mid = ((Axis.X, -stencil_coefficients(g.hx, 0.0, p.beta, p.gamma, 1.0)),)

    def cn(self, axis: Axis, U_from: np.ndarray, t_from: float) -> np.ndarray:
        """Directional trapezoidal half-step (x carries f1, y carries f2)."""
        return self._trapezoid(self._ops[axis], U_from, t_from,
                               partial(self.source, axis),
                               f"directional implicit step along {axis.name}")

    def startup(self, U0: np.ndarray) -> np.ndarray:
        return self.cn(Axis.X, U0, 0.0)

    def leapfrog(self, U_half_prev: np.ndarray, U_int: np.ndarray,
                 t_n: float) -> np.ndarray:
        """Explicit-midpoint x-direction update spanning k."""
        k = self.k
        return self._substep(self._ops["leapfrog"], U_half_prev, t_n + k / 2.0,
                             k * self._apply(U_int, self._c_mid),
                             k * self.source(Axis.X, t_n, U_int))

    half_update = leapfrog

    def int_update(self, base: np.ndarray, mid: np.ndarray, t_mid: float) -> np.ndarray:
        return self.cn(Axis.Y, mid, t_mid)


_ENGINES = {"coupled": _CoupledEngine, "split": _SplitEngine}


def _engine(problem: ProblemSpec, grid: Grid2D, cfg: SchemeConfig, k: float) -> _Engine:
    return _ENGINES[cfg.stepper](problem, grid, cfg, k)


def _line_solve(fact, axis: Axis, b: np.ndarray) -> np.ndarray:
    """Solve the pentadiagonal systems of the lines along axis."""
    return axis_first(solve_line(fact, axis_first(b, axis)), axis)


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


def _sup(series: str) -> property:
    return property(lambda rec: max(getattr(rec, series), default=0.0))


@dataclass
class SolutionRecord:
    """Per-integer-level norms and the final field.

    l2_* and h2_* hold the l2 and weighted-H2 norms of U, of the reference u
    and of the error u - U (these two need a reference) at each level in
    times; sup_* are their read-only maxima, 0.0 for an empty series.  A
    failed run keeps the levels before the failure, names it and its level
    in failure (BlowUpError, PicardError), and leaves final None.
    """

    problem_name: str
    M: int
    k: float
    N: int
    cfg: SchemeConfig
    times: list = dc_field(default_factory=list)
    l2_u: list = dc_field(default_factory=list)
    l2_U: list = dc_field(default_factory=list)
    l2_err: list = dc_field(default_factory=list)
    h2_u: list = dc_field(default_factory=list)
    h2_U: list = dc_field(default_factory=list)
    h2_err: list = dc_field(default_factory=list)
    final: Optional[Field] = None
    snapshots: dict = dc_field(default_factory=dict)
    diagnostics: Optional[StepDiagnostics] = None
    failed: bool = False
    failure: str = ""

    sup_u, sup_U, sup_err = _sup("l2_u"), _sup("l2_U"), _sup("l2_err")
    sup_h2_u, sup_h2_U, sup_h2_err = _sup("h2_u"), _sup("h2_U"), _sup("h2_err")


def run(problem: ProblemSpec, grid: Grid2D, cfg: SchemeConfig = SchemeConfig(),
        T: Optional[float] = None, dump_times=()) -> SolutionRecord:
    """Integrate to T, tracking norms over the integer levels n = 0..N and a
    snapshot at each dump time, which must lie in [0, T]."""
    T = problem.T if T is None else float(T)
    tg = resolve_time_grid(grid, cfg, T)
    k, N = tg.k, tg.N
    end = max(T, N * k)     # N k, the time of the last level, may round above T
    dump_left = sorted(float(t) for t in dump_times)
    outside = [t for t in dump_left if not 0.0 <= t <= end]     # NaN too
    if outside:
        raise ConfigurationError(f"dump times {outside} lie outside [0, T={T:g}]")
    eng = _engine(problem, grid, cfg, k)
    rec = SolutionRecord(problem_name=problem.name, M=grid.M, k=k, N=N, cfg=cfg,
                         diagnostics=eng.diagnostics)
    have_exact = problem.exact is not None
    # U, and with a reference u and e = u - U, at one level as the rows of
    # one stack; each row's norms go to its pair of series
    V = np.empty((3 if have_exact else 1, grid.M + 1, grid.M + 1))
    series = ((rec.l2_U, rec.h2_U), (rec.l2_u, rec.h2_u), (rec.l2_err, rec.h2_err))

    def observe(level_n: int, values: np.ndarray):
        t = level_n * k
        V[0] = values
        if have_exact:
            V[1] = grid.evaluate(problem.exact, t)
            if not np.isfinite(V[1]).all():
                raise ConfigurationError(f"reference solution is non-finite at t={t:g}")
            np.subtract(V[1], V[0], V[2])
        for (l2, h2), report in zip(series, _h2_reports(V, grid, problem.alpha)):
            l2.append(report.l2)
            h2.append(report.h2)
        rec.times.append(t)
        while dump_left and t >= dump_left[0] - 0.25 * k:
            rec.snapshots[dump_left.pop(0)] = (t, Field(grid, values))

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
    return rec
