"""Direct solvers for the constant-coefficient pentadiagonal line systems.

The implicit sweeps produce, per grid line, a system with five constant
diagonals plus coupling of the first/last two rows to known boundary
layers.  Systems are factored once (LU without pivoting, O(n)) and reused
across all lines and time steps; right-hand sides may be batched.

The wide second-derivative stencil makes the assembled operators lose
strict diagonal dominance (|row off-diagonal sum| = 34w against a diagonal
of 1 + 30w), so dominance is checked and reported, not assumed; the
factorization is protected by residual tests instead.

A factorization may stack several systems that share four diagonals and
differ in the main one (PentaBands.c_0 holding one value per system): every
row operation then runs on all systems at once, with the arithmetic of each
system unchanged.  TensorLineSolver couples the two directions this way: it
diagonalizes the symmetric x-line operator once, and the y-line systems of
all x-eigenmodes are factored, and solved, in one batched sweep over rows.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularSystemError
from .grid import Grid2D
from .stencils import Axis, WIDE_FIRST_W, WIDE_SECOND_W


class DominanceWarning(UserWarning):
    """Assembled line operator is not strictly diagonally dominant."""


@dataclass(frozen=True)
class PentaBands:
    """Five constant diagonals of a line operator, offsets -2..+2.

    c_0 may be an (m,) array: m stacked systems that differ only in their
    main diagonal, factored together by factor().
    """

    c_mm: float
    c_m: float
    c_0: float | np.ndarray
    c_p: float
    c_pp: float
    n: int

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.c_mm, self.c_m, self.c_0, self.c_p, self.c_pp])

    @property
    def dominance_margin(self) -> float:
        return abs(self.c_0) - (abs(self.c_mm) + abs(self.c_m)
                                + abs(self.c_p) + abs(self.c_pp))

    def shifted(self, delta: float) -> "PentaBands":
        """Same bands with delta added to the main diagonal; an (m,) delta
        gives m stacked systems."""
        return PentaBands(self.c_mm, self.c_m, self.c_0 + delta,
                          self.c_p, self.c_pp, self.n)

    def dense(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for off, v in zip(range(-2, 3), self.coefficients):
            A += v * np.eye(self.n, k=off)
        return A


def stencil_coefficients(h: float, alpha: float, beta: float, gamma: float,
                         theta: float) -> np.ndarray:
    """Stencil of  -alpha*wide_second - theta*(gamma*wide_second - beta*wide_first)  (no identity)."""
    return (-(alpha + theta * gamma) / (12.0 * h * h)) * WIDE_SECOND_W \
        + (theta * beta / (12.0 * h)) * WIDE_FIRST_W


def assemble_line_operator(grid: Grid2D, axis: Axis, alpha: float, beta: float,
                           gamma: float, theta: float, warn: bool = True) -> PentaBands:
    """Bands of  I - alpha*wide_second_z - theta*(gamma*wide_second_z - beta*wide_first_z)
    on the interior unknowns 2..M-2 of one grid line (n = M-3).
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if theta < 0:
        raise ConfigurationError(f"theta must be nonnegative, got {theta}")
    h = grid.hx if axis is Axis.X else grid.hy
    c = stencil_coefficients(h, alpha, beta, gamma, theta)
    c[2] += 1.0
    bands = PentaBands(*c, n=grid.n_interior)
    if warn and bands.dominance_margin <= 0.0:
        off = abs(c[0]) + abs(c[1]) + abs(c[3]) + abs(c[4])
        warnings.warn(
            f"line operator is not strictly diagonally dominant "
            f"(|diag|/off-diagonal = {abs(c[2]) / off:.4f}); factoring without "
            f"pivoting anyway, residuals are verified by the test suite",
            DominanceWarning, stacklevel=2)
    return bands


@dataclass(frozen=True)
class PentaFactorization:
    """LU factors (no pivoting) of a pentadiagonal matrix, bandwidth 2.

    Each array is (n,) for one system or (n, m) for m stacked systems.
    """

    a: np.ndarray   # subsub multipliers
    b: np.ndarray   # sub multipliers
    d: np.ndarray   # pivots
    e: np.ndarray   # superdiagonal of U
    f: np.ndarray   # supersuper diagonal of U
    n: int


def factor(bands: PentaBands) -> PentaFactorization:
    """Factor one system, or all stacked systems at once (shape of c_0)."""
    n = bands.n
    if n < 1:
        raise ConfigurationError(f"system size must be >= 1, got {n}")
    shape = (n,) + np.shape(bands.c_0)
    a = np.full(shape, bands.c_mm)
    b = np.full(shape, bands.c_m)
    d = np.full(shape, bands.c_0)
    e = np.full(shape, bands.c_p)
    f = np.full(shape, bands.c_pp)
    for i in range(1, n):
        if i >= 2:
            if (d[i - 2] == 0.0).any():
                raise SingularSystemError(f"zero pivot at row {i - 2}")
            m2 = a[i] / d[i - 2]
            a[i] = m2
            b[i] -= m2 * e[i - 2]
            d[i] -= m2 * f[i - 2]
        if (d[i - 1] == 0.0).any():
            raise SingularSystemError(f"zero pivot at row {i - 1}")
        m1 = b[i] / d[i - 1]
        b[i] = m1
        d[i] -= m1 * e[i - 1]
        if i <= n - 2:
            e[i] -= m1 * f[i - 1]
    if (d[n - 1] == 0.0).any():
        raise SingularSystemError(f"zero pivot at row {n - 1}")
    return PentaFactorization(a=a, b=b, d=d, e=e, f=f, n=n)


def solve_line(fact: PentaFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve for one right-hand side (n,) or a batch (n, m).

    A stacked factorization of m systems takes (n, m), column l solved
    with system l.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = fact.n
    if rhs.shape[0] != n:
        raise ConfigurationError(f"rhs length {rhs.shape[0]} != system size {n}")
    a, b, d, e, f = fact.a, fact.b, fact.d, fact.e, fact.f
    y = rhs.copy()
    for i in range(1, n):
        y[i] -= b[i] * y[i - 1]
        if i >= 2:
            y[i] -= a[i] * y[i - 2]
    x = np.empty_like(y)
    x[n - 1] = y[n - 1] / d[n - 1]
    if n >= 2:
        x[n - 2] = (y[n - 2] - e[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - e[i] * x[i + 1] - f[i] * x[i + 2]) / d[i]
    return x


def multiply_line(bands: PentaBands, x: np.ndarray) -> np.ndarray:
    """Forward multiply A @ x for testing and residual checks."""
    x = np.asarray(x, dtype=float)
    out = bands.c_0 * x.copy()
    if bands.n >= 2:
        out[1:] += bands.c_m * x[:-1]
        out[:-1] += bands.c_p * x[1:]
    if bands.n >= 3:
        out[2:] += bands.c_mm * x[:-2]
        out[:-2] += bands.c_pp * x[2:]
    return out


def symmetric_eigendecomposition(bands: PentaBands):
    """Eigendecomposition A = Q diag(lam) Q^T of a symmetric penta operator."""
    if not (np.isclose(bands.c_m, bands.c_p) and np.isclose(bands.c_mm, bands.c_pp)):
        raise ConfigurationError("eigendecomposition requires symmetric bands")
    lam, Q = np.linalg.eigh(bands.dense())
    return lam, Q


class TensorLineSolver:
    """Direct solver for (I + Ax (+) Ay) V = B on the (M-3)^2 interior.

    Ax must be symmetric (its bands are diagonalized once); Ay may carry a
    skew part.  Each x-eigenmode i leaves the pentadiagonal y-line system
    (1 + lam_i) I + Ay; the n systems are factored together once and solved
    together in one sweep over rows, each row operation running on all
    modes.  B and V are (n, n) arrays indexed [i-line, j].
    """

    def __init__(self, ax_bands: PentaBands, ay_bands: PentaBands):
        self.lam, self.Q = symmetric_eigendecomposition(ax_bands)
        self.fact = factor(ay_bands.shifted(1.0 + self.lam))

    def solve(self, B: np.ndarray) -> np.ndarray:
        Bt = self.Q.T @ B                                   # [mode, j]
        # the sweep runs over rows j with all modes at once; V goes back to
        # a C-contiguous [mode, j] array, so Q @ V keeps one operand layout
        V = np.ascontiguousarray(solve_line(self.fact, Bt.T).T)
        return self.Q @ V
