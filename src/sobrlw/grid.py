"""Uniform tensor-product grid, nodal fields, and function sampling.

The grid covers the closed rectangle [L1,L2] x [L3,L4] with M subdivisions
per axis, so fields hold (M+1) x (M+1) nodal values.  The wide five-point
stencils and all discrete norms operate on the interior index set
{2..M-2}^2; the two outermost node layers {0,1,M-1,M} on each side are
boundary-owned and are never updated by the interior scheme.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, GridMismatchError, SamplingError


@dataclass(frozen=True)
class Grid2D:
    """Uniform 2D grid over (L1,L2) x (L3,L4) with M subdivisions per axis."""

    L1: float
    L2: float
    L3: float
    L4: float
    M: int

    @property
    def hx(self) -> float:
        return (self.L2 - self.L1) / self.M

    @property
    def hy(self) -> float:
        return (self.L4 - self.L3) / self.M

    @property
    def n_interior(self) -> int:
        """Number of interior nodes per axis (indices 2..M-2)."""
        return self.M - 3

    def x(self, i):
        return self.L1 + np.asarray(i) * self.hx

    def y(self, j):
        return self.L3 + np.asarray(j) * self.hy

    def xs(self) -> np.ndarray:
        return self.L1 + np.arange(self.M + 1) * self.hx

    def ys(self) -> np.ndarray:
        return self.L3 + np.arange(self.M + 1) * self.hy

    def open_mesh(self):
        """Coordinates as a column X, (M+1) x 1, and a row Y, 1 x (M+1).

        An elementwise function of them broadcasts to its values on the
        mesh, each coordinate computed once.  Built once per grid and
        read-only.
        """
        return self._open_mesh

    @cached_property
    def _open_mesh(self):
        X, Y = self.xs()[:, None], self.ys()[None, :]
        X.flags.writeable = Y.flags.writeable = False
        return X, Y

    def evaluate(self, fn: Callable, t: float) -> np.ndarray:
        """fn(X, Y, t) on the open coordinates, as (M+1) x (M+1) values.

        fn must be elementwise in X and Y.  A result of that shape is
        returned as is; any other (a scalar, or one that ignores a
        coordinate) is broadcast to it, read-only.
        """
        values = np.asarray(fn(*self.open_mesh(), t), dtype=float)
        shape = (self.M + 1, self.M + 1)
        return values if values.shape == shape else np.broadcast_to(values, shape)

    @property
    def interior(self) -> slice:
        return slice(2, self.M - 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps of size k = T/N."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ConfigurationError(f"need at least one time step, got N={self.N}")
        if self.T <= 0:
            raise ConfigurationError(f"final time must be positive, got T={self.T}")

    @property
    def k(self) -> float:
        return self.T / self.N

    def t(self, level: float) -> float:
        """Time of an integer or half-integer level."""
        return level * self.k


@dataclass(frozen=True)
class Field:
    """Nodal scalar values on a Grid2D; values[i, j] lives at (x_i, y_j).

    values is a read-only C-ordered copy of the input.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")
        m = self.grid.M + 1
        if v.shape != (m, m):
            raise ConfigurationError(
                f"field shape {v.shape} does not match grid ({m}, {m})")
        if not np.isfinite(v).all():
            raise ConfigurationError("field contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def interior(self) -> np.ndarray:
        s = self.grid.interior
        return self.values[s, s]

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    def same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")


def _real(value) -> bool:
    """value is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive(value) -> bool:
    """value is a finite positive real number other than a bool."""
    return _real(value) and bool(np.isfinite(value)) and value > 0


def make_grid(L1: float, L2: float, L3: float, L4: float, M: int) -> Grid2D:
    """Build a uniform grid of finite bounds; M, an integer (an integral float
    too), is at least 4 so the interior {2..M-2} is nonempty.  M >= 8 is
    recommended for convergence studies: at M = 4 the interior is a single
    node and observed rates are dominated by boundary data.
    """
    if not (_real(M) and float(M).is_integer()):
        raise ConfigurationError(f"M must be an integer, got {M!r}")
    if not all(_real(b) and np.isfinite(b) for b in (L1, L2, L3, L4)):
        raise ConfigurationError(f"domain bounds must be finite numbers, got {(L1, L2, L3, L4)}")
    if not (L1 < L2 and L3 < L4):
        raise ConfigurationError(
            f"degenerate domain bounds ({L1},{L2})x({L3},{L4})")
    if M < 4:
        raise ConfigurationError(
            f"M={M} leaves no interior nodes; the five-point stencils need M >= 4")
    return Grid2D(float(L1), float(L2), float(L3), float(L4), int(M))


def sample(grid: Grid2D, phi: Callable, t: float = 0.0) -> Field:
    """Evaluate phi(x, y, t) at every node, through Grid2D.evaluate.

    phi must be elementwise in numpy coordinate arrays (all built-in
    problems are).  Non-finite results are reported with the offending
    node index.
    """
    vals = grid.evaluate(phi, t)
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SamplingError(
            f"sampled function returned non-finite value at node "
            f"(i={i}, j={j}), (x={grid.x(i):g}, y={grid.y(j):g}), t={t:g}")
    return Field(grid, vals)
