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
system unchanged (in the result dtype of bands and right-hand side, at
least float64).  TensorLineSolver couples the two directions this way: it
diagonalizes the whole x-line operator once, and the y-line systems of
all x-eigenmodes are factored, and solved, in one batched sweep over rows.

solve_line sweeps over rows and row pairs,

    y_i = (y_i - b_i y_{i-1}) - a_i y_{i-2}
    x_i = ((y_i - e_i x_{i+1}) - f_i x_{i+2}) / d_i,

in a workspace that the factorization caches per right-hand side shape
and dtype.  factor stores [a_i; b_i] and [e_i; f_i] as pairs, so a row
takes one multiply of its pair by the contiguous rows y[i-2:i] (or
x[i+1:i+3]) into a 2-row scratch, then one ufunc call per subtraction and
division, in the order above: 3 calls per forward row, 4 per backward row,
each on all right-hand sides at once (out passed by position, the cheaper
call), and the arithmetic of an indexed row loop.  A one-system
factorization broadcasts (2, 1) pairs over the columns, which costs more
per row than it saves, so the split stepper stacks its line systems too.
The workspace makes one factorization's solve_line not reentrant: threads
need one factorization each.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    d is (n,) for one system or (n, m) for m stacked systems; ab and ef
    hold the row pairs [a_i; b_i] and [e_i; f_i], (n, 2) or (n, 2, m), and
    a, b, e, f are views of them.  The sweep workspaces of solve_line are
    cached per right-hand side shape and dtype.
    """

    ab: np.ndarray  # subsub and sub multipliers
    d: np.ndarray   # pivots
    ef: np.ndarray  # superdiagonal and supersuper diagonal of U
    n: int
    _work: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    a = property(lambda self: self.ab[:, 0])
    b = property(lambda self: self.ab[:, 1])
    e = property(lambda self: self.ef[:, 0])
    f = property(lambda self: self.ef[:, 1])


class _Sweep:
    """A right-hand side buffer y, (n, k), its 2-row scratch, and the row
    and row-pair views of y and of the factors that the sweeps run over."""

    def __init__(self, fact: PentaFactorization, shape: tuple, dtype):
        n = fact.n
        y = np.empty((n, int(np.prod(shape[1:], dtype=int))), dtype)
        self.rhs_view = y.reshape(shape)
        # one system: (2, 1) pairs and (1,) rows broadcast over the k columns
        ab, ef = (v.reshape(n, 2, -1) for v in (fact.ab, fact.ef))
        d = fact.d.reshape(n, -1)
        self.tmp = np.empty((2, y.shape[1]), dtype)
        self.y, self.d = list(y), list(d)
        self.b1 = ab[1, 1] if n >= 2 else None
        self.e2 = ef[n - 2, 0] if n >= 2 else None
        self.forward = [(ab[i], y[i - 2:i], y[i]) for i in range(2, n)]
        self.backward = [(ef[i], y[i + 1:i + 3], y[i], d[i])
                         for i in range(n - 3, -1, -1)]


def factor(bands: PentaBands) -> PentaFactorization:
    """Factor one system, or all stacked systems at once (shape of c_0)."""
    n = bands.n
    if n < 1:
        raise ConfigurationError(f"system size must be >= 1, got {n}")
    shape = (n,) + np.shape(bands.c_0)
    diagonals = (bands.c_mm, bands.c_m, bands.c_0, bands.c_p, bands.c_pp)
    dtype = np.result_type(*diagonals, float)
    ab = np.empty((n, 2) + shape[1:], dtype)
    ef = np.empty_like(ab)
    a, b, e, f = ab[:, 0], ab[:, 1], ef[:, 0], ef[:, 1]
    a[...], b[...], e[...], f[...] = bands.c_mm, bands.c_m, bands.c_p, bands.c_pp
    d = np.full(shape, bands.c_0, dtype=dtype)
    for i in range(1, n):
        if i >= 2:      # pivot i - 2 was tested at row i - 1
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
    return PentaFactorization(ab=ab, d=d, ef=ef, n=n)


def solve_line(fact: PentaFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve for one right-hand side (n,) or a batch (n, m), in the result
    dtype of factors and right-hand side (at least float64), into a new array.

    A stacked factorization of m systems takes (n, m), column l solved
    with system l.  Any other shape, a 0-d rhs included, is a
    ConfigurationError naming it.  The solvers pass (n, m) to a stacked
    factorization, so factor and right-hand side rows have one shape; a
    one-system factorization broadcasts its rows over the columns, and
    one (n,) system runs every row operation (see the module docstring)
    on a single value.  Not reentrant: the sweep runs in the
    factorization's workspace.
    """
    rhs = np.asarray(rhs)
    n = fact.n
    if rhs.ndim == 0 or rhs.shape[0] != n:
        raise ConfigurationError(f"rhs of shape {rhs.shape} does not match "
                                 f"the system size {n}")
    if fact.d.ndim == 2 and rhs.shape != fact.d.shape:
        raise ConfigurationError(f"rhs shape {rhs.shape} does not match the "
                                 f"factorization of shape {fact.d.shape}")
    key = (rhs.shape, np.result_type(rhs, fact.d, float))
    w = fact._work.get(key) or fact._work.setdefault(key, _Sweep(fact, *key))
    np.copyto(w.rhs_view, rhs)
    y, d, tmp = w.y, w.d, w.tmp
    t0, t1 = tmp
    mul, sub, div = np.multiply, np.subtract, np.divide
    if n >= 2:
        sub(y[1], mul(w.b1, y[0], t1), y[1])
    for ab, pair, yi in w.forward:
        mul(ab, pair, tmp)
        sub(yi, t1, yi)
        sub(yi, t0, yi)
    # back substitution in place: x_i overwrites y_i, read only for x_i
    div(y[n - 1], d[n - 1], y[n - 1])
    if n >= 2:
        sub(y[n - 2], mul(w.e2, y[n - 1], t0), y[n - 2])
        div(y[n - 2], d[n - 2], y[n - 2])
    for ef, pair, xi, di in w.backward:
        mul(ef, pair, tmp)
        sub(xi, t0, xi)
        sub(xi, t1, xi)
        div(xi, di, xi)
    return w.rhs_view.copy()


class TensorLineSolver:
    """Direct solver for (I + Ax (+) Ay) V = B on the (M-3)^2 interior.

    Ax = P diag(lam) P^-1 is diagonalized once: exactly symmetric x-bands
    by eigh (P^-1 = P.T), any others, such as a transport part, by eig and
    inv(P), which must have cond(P) <= 1e8; complex mode pairs are solved
    in complex arithmetic and V is the real part.  Each x-eigenmode i leaves
    the pentadiagonal y-line system (1 + lam_i) I + Ay; the n systems are
    factored together once and solved together in one sweep over rows,
    each row operation running on all modes.  B and V are (n, n) arrays
    indexed [i-line, j].
    """

    def __init__(self, ax_bands: PentaBands, ay_bands: PentaBands):
        if ax_bands.c_m == ax_bands.c_p and ax_bands.c_mm == ax_bands.c_pp:
            self.lam, self.Q = np.linalg.eigh(ax_bands.dense())
            self.Q_inv = self.Q.T
        else:
            self.lam, self.Q = np.linalg.eig(ax_bands.dense())
            cond = np.linalg.cond(self.Q)
            if not cond <= 1e8:     # also inf: a defective Ax has singular P
                raise ConfigurationError(
                    f"ill-conditioned x-eigenvectors: cond(P) = {cond:.3g} > 1e8")
            self.Q_inv = np.linalg.inv(self.Q)
        self.fact = factor(ay_bands.shifted(1.0 + self.lam))

    def solve(self, B: np.ndarray) -> np.ndarray:
        Bt = self.Q_inv @ B                                 # [mode, j]
        # the sweep runs over rows j with all modes at once; V goes back to
        # a C-contiguous [mode, j] array, so Q @ V keeps one operand layout
        V = np.ascontiguousarray(solve_line(self.fact, Bt.T).T)
        return (self.Q @ V).real
