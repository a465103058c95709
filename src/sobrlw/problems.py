"""Problem definitions: coefficients, split sources, initial/boundary/exact data.

The model is

    u_t - alpha*Lap(u_t) - gamma*Lap(u) + beta*(u_x + u_y) = f1 + f2

on a rectangle with Dirichlet data g and initial state u0.  The two source
pieces carry the directional derivative arguments: f1(x,y,t,u,ux) and
f2(x,y,t,u,uy).  How the total source is split between f1 and f2 is a
modelling choice; the built-in problems put the x-derivative-flavored terms
in f1, the y-flavored ones in f2, and halve derivative-free terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .grid import _positive, make_grid

_DIFF_STEP = 1e-2   # step for the high-order finite differences below


@dataclass(frozen=True)
class ProblemSpec:
    """A complete initial-boundary value problem for the model equation.

    u0, exact, g, f1 and f2 must be elementwise in their array arguments.
    Every library call of u0, exact and g is on the open coordinates of
    the whole grid (X a column, Y a row) through Grid2D.evaluate, which
    broadcasts the result: the initial state, the boundary fill, the
    observed norms, the slice CSV and compatibility_mismatch.  f1 and f2
    get the open coordinates of the interior {2..M-2}^2, with U and the
    wide first derivative as interior blocks.  A spec whose f1 and f2 never
    read their fifth argument sets sources_read_derivative False: the
    steppers then pass None there and do not compute the derivative
    (dataclasses.replace keeps the field, so set it again with new sources).

    The bounds L1 < L2 and L3 < L4 and the horizon T > 0 must be finite.
    """

    name: str
    alpha: float
    beta: float
    gamma: float
    f1: Callable      # (X, Y, t, U, UX) -> array
    f2: Callable      # (X, Y, t, U, UY) -> array
    u0: Callable      # (X, Y) -> array
    g: Callable       # (X, Y, t) -> array, used on the boundary
    exact: Optional[Callable] = None    # (X, Y, t) -> array
    L1: float = 0.0
    L2: float = 1.0
    L3: float = 0.0
    L4: float = 1.0
    T: float = 1.0
    g_extends: bool = True   # g is a formula valid on the whole closure
    sources_read_derivative: bool = True     # f1, f2 read UX, UY

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.alpha, self.beta, self.gamma)):
            raise ConfigurationError(
                f"alpha, beta and gamma must be finite, got alpha={self.alpha}, "
                f"beta={self.beta}, gamma={self.gamma}")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(
                f"alpha must lie in (0, 1], got {self.alpha}")
        if abs(self.beta) > 1.0 or abs(self.gamma) > 1.0:
            raise ConfigurationError(
                f"|beta| and |gamma| must not exceed 1, got "
                f"beta={self.beta}, gamma={self.gamma}")
        if not (self.L1 < self.L2 and self.L3 < self.L4):      # NaN fails too
            raise ConfigurationError(f"degenerate domain bounds ({self.L1},{self.L2})"
                                     f"x({self.L3},{self.L4})")
        bounds = (self.L1, self.L2, self.L3, self.L4)
        if not all(math.isfinite(b) for b in bounds):
            raise ConfigurationError(f"domain bounds must be finite, got {bounds}")
        if not _positive(self.T):
            raise ConfigurationError(f"T must be a finite positive horizon, got T={self.T!r}")

    def compatibility_mismatch(self, M: int = 16) -> float:
        """Max |u0 - exact(.,0)| and |g - exact| on the boundary, sampled."""
        if self.exact is None:
            return 0.0
        grid = make_grid(self.L1, self.L2, self.L3, self.L4, M)
        u0 = grid.evaluate(lambda X, Y, t: self.u0(X, Y), 0.0)
        d0 = float(np.abs(u0 - grid.evaluate(self.exact, 0.0)).max())
        frame = np.ones((M + 1, M + 1), dtype=bool)
        frame[1:M, 1:M] = False
        dg = max(float(np.abs(grid.evaluate(self.g, t)
                              - grid.evaluate(self.exact, t))[frame].max())
                 for t in np.linspace(0.0, self.T, 7))
        return max(d0, dg)


def example1() -> ProblemSpec:
    """Decaying product-sine solution of the constant-coefficient model.

    u_t - Lap(u_t) - Lap(u) + u = 0 on the unit square, homogeneous
    Dirichlet data, u = e^{-t} sin(pi x) sin(pi y).
    """
    def exact(X, Y, t):
        return np.exp(-t) * np.sin(np.pi * X) * np.sin(np.pi * Y)

    return ProblemSpec(
        name="example1", alpha=1.0, beta=0.0, gamma=1.0,
        f1=lambda X, Y, t, U, UX: -0.5 * U,
        f2=lambda X, Y, t, U, UY: -0.5 * U,
        u0=lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y),
        g=lambda X, Y, t: np.zeros_like(X),
        exact=exact, sources_read_derivative=False)


def example2() -> ProblemSpec:
    """Growing forced solution u = sin(pi x) sin(pi y) e^{x+y+t}.

    The matching source is (4 pi^2 - 3) u - 4 pi e^{x+y+t} [sin(pi x) cos(pi y)
    + cos(pi x) sin(pi y)]; its sign in the model form was fixed by the
    residual check (residual_check(example2()) is ~1e-9 with this sign and
    O(1) with the opposite one).
    """
    def exact(X, Y, t):
        return np.sin(np.pi * X) * np.sin(np.pi * Y) * np.exp(X + Y + t)

    c = 4.0 * np.pi ** 2 - 3.0

    def f1(X, Y, t, U, UX):
        return 0.5 * c * U - 4.0 * np.pi * np.exp(X + Y + t) * np.sin(np.pi * X) * np.cos(np.pi * Y)

    def f2(X, Y, t, U, UY):
        return 0.5 * c * U - 4.0 * np.pi * np.exp(X + Y + t) * np.cos(np.pi * X) * np.sin(np.pi * Y)

    return ProblemSpec(
        name="example2", alpha=1.0, beta=0.0, gamma=1.0,
        f1=f1, f2=f2,
        u0=lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y) * np.exp(X + Y),
        g=lambda X, Y, t: np.zeros_like(X),
        exact=exact, sources_read_derivative=False)


def example3() -> ProblemSpec:
    """Travelling sech^2 pulse with transport and quadratic nonlinearity.

    u_t - Lap(u_t) - (u_x + u_y) + u u_x + u u_y = 0, boundary traces and
    reference solution sech^2(x + y - t).

    The reference u does NOT satisfy the equation identically (its residual
    is O(1); see residual_check), so errors measured against it grow under
    refinement instead of converging: 1.9e-2, 8.0e-2, 1.25e-1 and 1.50e-1 at
    levels 2-5 of the benchmark protocol.  The initial state is taken
    from the reference at t = 0 so that boundary and initial data are
    mutually consistent.
    """
    def exact(X, Y, t):
        return 1.0 / np.cosh(X + Y - t) ** 2

    return ProblemSpec(
        name="example3", alpha=1.0, beta=-1.0, gamma=0.0,
        f1=lambda X, Y, t, U, UX: -U * UX,
        f2=lambda X, Y, t, U, UY: -U * UY,
        u0=lambda X, Y: 1.0 / np.cosh(X + Y) ** 2,
        g=lambda X, Y, t: 1.0 / np.cosh(X + Y - t) ** 2,
        exact=exact)


# ---------------------------------------------------------------------------
# high-order numeric differentiation of a reference solution
#
# sixth-order central stencils; the benchmark sources carry factors up to
# pi^7 e^3, so fourth-order differencing would leave ~1e-6 residual noise

_W1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0])      # /(60 h)
_W2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])  # /(180 h^2)


def _add_term(acc, k, w, s, tmp):
    """acc holding 0 + w_0 s_0 + ... + w_k s_k, given the sum up to k - 1.

    The terms are added in the order, and with the leading 0, of sum() over
    the products, so the bits are sum()'s (a sum of -0.0 terms is +0.0).
    """
    if k == 0:
        np.add(0, np.multiply(w, s, acc), acc)
    else:
        np.add(acc, np.multiply(w, s, tmp), acc)


def _directional_derivatives(fn, X, Y, t, axis):
    """u_t, u_z, u_zz and u_tzz of fn for z = x (axis 0) or y (axis 1).

    Sixth-order central differences with step _DIFF_STEP, u_tzz nested as
    d/dt of d2/dz2, over 49 samples; each time offset t + n*h takes all seven
    z offsets in one call of fn on a stack of coordinates, so the four
    derivatives cost 7 calls of fn.  fn gets the coordinates as given, the
    shifted one stacked on a new first axis, and its result is broadcast to
    that stack; on open coordinates it evaluates each coordinate once.

    One pass over the time offsets holds one stack at a time: the u_zz of
    each offset and its middle sample go into the u_tzz and u_t sums as it
    is read.  Every sum is formed by _add_term in buffers of the input
    shape; fn's result is only read.  Scalar inputs give numpy scalars.
    """
    h = _DIFF_STEP
    shape = np.broadcast_shapes(np.shape(X), np.shape(Y))
    shift = (np.arange(-3, 4) * h).reshape((7,) + (1,) * len(shape))
    coords = (X + shift, Y) if axis == 0 else (X, Y + shift)
    for i in range(7):
        Z = np.broadcast_to(fn(*coords, t + (i - 3) * h), (7,) + shape)
        if i == 0:
            dtype = np.result_type(_W1[0], Z)
            u_t, u_z, u_zz, u_tzz, zz, tmp = (np.empty(shape, dtype) for _ in range(6))
        _add_term(u_t, i, _W1[i], Z[3], tmp)
        zz_i = u_zz if i == 3 else zz
        for k in range(7):
            _add_term(zz_i, k, _W2[k], Z[k], tmp)
        if i == 3:
            for k in range(7):
                _add_term(u_z, k, _W1[k], Z[k], tmp)
        del Z       # freed before fn makes the next stack
        np.divide(zz_i, 180.0 * h * h, zz_i)
        _add_term(u_tzz, i, _W1[i], zz_i, tmp)
    for d in (u_t, u_z, u_tzz):
        np.divide(d, 60.0 * h, d)
    if not shape:
        return u_t[()], u_z[()], u_zz[()], u_tzz[()]
    return u_t, u_z, u_zz, u_tzz


def manufactured(alpha: float, beta: float, gamma: float, exact_u: Callable,
                 name: str = "manufactured", T: float = 1.0,
                 bounds=(0.0, 1.0, 0.0, 1.0)) -> ProblemSpec:
    """Build a problem whose solution is the given smooth function.

    The source f = u_t - alpha*Lap(u_t) - gamma*Lap(u) + beta*(u_x + u_y)
    is computed from exact_u by sixth-order central differences with step
    1e-2 (nested for u_txx and u_tyy) and split as: f1 takes the
    x-derivative terms plus half of u_t, f2 the y terms plus the other half.
    Neither reads U or its derivative, so the spec declares
    sources_read_derivative False.

    exact_u(X, Y, t) must be elementwise in X and Y and broadcast over a
    leading axis: the sources call it with a scalar t and a stack of seven
    shifted copies of X (or Y) on a new first axis.  The steppers pass open
    coordinates (X a column, Y a row; see ProblemSpec), so it must not
    reduce over its inputs or rely on X.shape.  A result that ignores a
    coordinate or is a scalar is broadcast to the stack; results are only
    read, so exact_u may return an array it keeps.
    """
    def source(axis):
        def f(X, Y, t, U, UZ):
            u_t, u_z, u_zz, u_tzz = _directional_derivatives(exact_u, X, Y, t, axis)
            return 0.5 * u_t - alpha * u_tzz - gamma * u_zz + beta * u_z
        return f

    return ProblemSpec(
        name=name, alpha=alpha, beta=beta, gamma=gamma,
        f1=source(0), f2=source(1),
        u0=lambda X, Y: exact_u(X, Y, 0.0),
        g=lambda X, Y, t: exact_u(X, Y, t),
        exact=exact_u,
        L1=bounds[0], L2=bounds[1], L3=bounds[2], L4=bounds[3], T=T,
        sources_read_derivative=False)


@dataclass(frozen=True)
class ResidualCheck:
    """Sampled PDE residual of a problem's reference solution."""

    max_residual: float
    n_points: int
    residuals: np.ndarray = field(repr=False)


def residual_check(spec: ProblemSpec, n_points: int = 20, seed: int = 0) -> ResidualCheck:
    """Max |u_t - alpha*Lap(u_t) - gamma*Lap(u) + beta*(u_x+u_y) - f1 - f2|
    of the reference solution at random interior space-time points,
    with all derivatives taken by sixth-order central differences (step
    1e-2) of the reference, one point at a time.

    The value is reported, not asserted: a reference that is not an actual
    solution (see example3) shows up here as an O(1) residual.
    """
    if spec.exact is None:
        raise ConfigurationError(f"problem {spec.name!r} has no reference solution")
    rng = np.random.default_rng(seed)
    pad_x = 0.05 * (spec.L2 - spec.L1)
    pad_y = 0.05 * (spec.L4 - spec.L3)
    X = rng.uniform(spec.L1 + pad_x, spec.L2 - pad_x, n_points)
    Y = rng.uniform(spec.L3 + pad_y, spec.L4 - pad_y, n_points)
    ts = rng.uniform(0.05 * spec.T, 0.95 * spec.T, n_points)
    # one scalar sample per call: numpy rounds a scalar ** through pow and an
    # array ** by multiplication, so a stacked call could move the last bits
    exact = np.vectorize(spec.exact, otypes=[float])
    res = np.empty(n_points)
    for m in range(n_points):
        x, y, t = X[m], Y[m], ts[m]
        u = spec.exact(x, y, t)
        ut, ux, uxx, utxx = _directional_derivatives(exact, x, y, t, 0)
        _, uy, uyy, utyy = _directional_derivatives(exact, x, y, t, 1)
        lhs = (ut - spec.alpha * (utxx + utyy) - spec.gamma * (uxx + uyy)
               + spec.beta * (ux + uy))
        rhs = spec.f1(x, y, t, u, ux) + spec.f2(x, y, t, u, uy)
        res[m] = abs(lhs - rhs)
    return ResidualCheck(max_residual=float(res.max()), n_points=n_points, residuals=res)


# named reference solutions for manufactured problems (CLI presets)
MANUFACTURED_PRESETS = {
    "poly": lambda X, Y, t: (1.0 + t) * X ** 2 * Y ** 2,
    "trig": lambda X, Y, t: np.exp(-t) * np.sin(np.pi * X) * np.sin(np.pi * Y),
    "wave": lambda X, Y, t: np.sin(np.pi * (X - t)) * np.sin(np.pi * Y),
}


def get_problem(name: str, alpha: Optional[float] = None,
                beta: Optional[float] = None,
                gamma: Optional[float] = None) -> ProblemSpec:
    """Look up a problem by CLI name: example1|example2|example3|manufactured:<preset>.

    alpha, beta and gamma are the coefficients of a manufactured problem
    (None gives 1, 0 and 1); example1-3 fix their own, and giving any of
    them there is a ConfigurationError.
    """
    examples = {"example1": example1, "example2": example2, "example3": example3}
    if name in examples:
        given = [key for key, value in (("alpha", alpha), ("beta", beta),
                                        ("gamma", gamma)) if value is not None]
        if given:
            raise ConfigurationError(
                f"{given[0]} applies only to manufactured:<preset> problems; "
                f"{name} fixes its own coefficients")
        return examples[name]()
    if name.startswith("manufactured:"):
        preset = name.split(":", 1)[1]
        if preset not in MANUFACTURED_PRESETS:
            raise ConfigurationError(
                f"unknown manufactured preset {preset!r}; "
                f"available: {sorted(MANUFACTURED_PRESETS)}")
        return manufactured(1.0 if alpha is None else alpha,
                            0.0 if beta is None else beta,
                            1.0 if gamma is None else gamma,
                            MANUFACTURED_PRESETS[preset], name=name)
    raise ConfigurationError(
        f"unknown problem {name!r}; expected example1|example2|example3|"
        f"manufactured:<preset>")
