"""Direct solvers for the constant-coefficient pentadiagonal line systems.

The implicit sweeps produce, per grid line, a system with five constant
diagonals plus coupling of the first/last two rows to known boundary
layers.  Systems are factored once (LU without pivoting, O(n)) and reused
across all lines and time steps; right-hand sides may be batched.

The wide second-derivative stencil makes the line operators not
diagonally dominant (|row off-diagonal sum| = 34w against a diagonal of
1 + 30w), so nothing guarantees the pivots: factor checks every one and
raises SingularSystemError on a zero, and the dense oracles of the test
suite bound the residuals of the solves.

A factorization may stack several systems that share four diagonals and
differ in the main one (PentaBands.c_0 holding one value per system): every
row operation then runs on all systems at once, with the arithmetic of each
system unchanged.  TensorLineSolver couples the two directions this way: it
diagonalizes the symmetric x-line operator once, and the y-line systems of
all x-eigenmodes are factored, and solved, in one batched sweep over rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularSystemError
from .stencils import WIDE_FIRST_W, WIDE_SECOND_W


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
    """Stencil of  -alpha*wide_second - theta*(gamma*wide_second - beta*wide_first)  (no identity).

    PentaBands(*c, n=n).shifted(1.0) are the bands of I plus this stencil on
    the n interior unknowns of one grid line.
    """
    return (-(alpha + theta * gamma) / (12.0 * h * h)) * WIDE_SECOND_W \
        + (theta * beta / (12.0 * h)) * WIDE_FIRST_W


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


class TensorLineSolver:
    """Direct solver for (I + Ax (+) Ay) V = B on the (M-3)^2 interior.

    Ax must be symmetric (its bands are diagonalized once); Ay may carry a
    skew part.  Each x-eigenmode i leaves the pentadiagonal y-line system
    (1 + lam_i) I + Ay; the n systems are factored together once and solved
    together in one sweep over rows, each row operation running on all
    modes.  B and V are (n, n) arrays indexed [i-line, j].
    """

    def __init__(self, ax_bands: PentaBands, ay_bands: PentaBands):
        if not (np.isclose(ax_bands.c_m, ax_bands.c_p)
                and np.isclose(ax_bands.c_mm, ax_bands.c_pp)):
            raise ConfigurationError("TensorLineSolver requires symmetric x-bands")
        self.lam, self.Q = np.linalg.eigh(ax_bands.dense())
        self.fact = factor(ay_bands.shifted(1.0 + self.lam))

    def solve(self, B: np.ndarray) -> np.ndarray:
        Bt = self.Q.T @ B                                   # [mode, j]
        # the sweep runs over rows j with all modes at once; V goes back to
        # a C-contiguous [mode, j] array, so Q @ V keeps one operand layout
        V = np.ascontiguousarray(solve_line(self.fact, Bt.T).T)
        return self.Q @ V
