"""Discrete norms, inner products, and summation-by-parts identities.

All sums use the interior-anchored index ranges that make the discrete
summation-by-parts identities exact for fields vanishing on the two
outermost node layers each side ("frame-vanishing" fields):

  quantity                 i range      j range
  ---------------------------------------------
  plain values             2 .. M-2     2 .. M-2
  x half-differences       1 .. M-2     2 .. M-2   (at half points i+1/2)
  y half-differences       2 .. M-2     1 .. M-2
  x second differences     1 .. M-1     2 .. M-2
  y second differences     2 .. M-2     1 .. M-1

The identities verified by sbp_residuals (for frame-vanishing w, v):

  (wide_first w, w)  = 0                       and antisymmetry in (w, v)
  (-wide_second w, w) = |half w|^2 + (h^2/12) |second w|^2
  (wide_second w, v) = -(half w, half v) - (h^2/12)(second w, second v)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FrameError
from .grid import Field
from .stencils import (Axis, _h, _second_diff, half_diff_values,
                       wide_first_values, wide_second_values)

INNER_VARIANTS = ("plain", "half_x", "half_y", "second_x", "second_y",
                  "wide1_x", "wide1_y", "wide2_x", "wide2_y")


def _weight(grid) -> float:
    return grid.hx * grid.hy


def l2_norm(field: Field) -> float:
    """sqrt(hx*hy * sum over the interior {2..M-2}^2)."""
    return float(np.sqrt(_weight(field.grid) * np.sum(field.interior ** 2)))


def _stack(field: Field, *more: Field) -> np.ndarray:
    """Values of fields on one grid along a new leading axis (the stack)."""
    for other in more:
        field.same_grid(other)
    if not more:
        return field.values[None]
    return np.array([f.values for f in (field, *more)])


def _interior_block(V: np.ndarray, grid) -> np.ndarray:
    """Values at i, j = 2..M-2 of each field of the stack V, as a new array."""
    s = grid.interior
    return V[:, s, s].copy()


def _half_block(V: np.ndarray, grid, axis: Axis) -> np.ndarray:
    """Half differences at i+1/2 for i = 1..M-2 along axis (see the table),
    of each field of the stack V."""
    M = grid.M
    nodes = V[:, 1:M, 2:M - 1] if axis is Axis.X else V[:, 2:M - 1, 1:M]
    return half_diff_values(nodes, _h(grid, axis), axis)


def _second_block(V: np.ndarray, grid, axis: Axis) -> np.ndarray:
    """Second differences at i = 1..M-1 along axis (see the table), of each
    field of the stack V."""
    M = grid.M
    nodes = V[:, :, 2:M - 1] if axis is Axis.X else V[:, 2:M - 1]
    return _second_diff(nodes, _h(grid, axis), axis)


def _sq_sums(block: np.ndarray, grid) -> list:
    """hx*hy times the sum of squares of each field's block, squared in place.

    Each field's block is contiguous, and one reduction over the stack sums
    it in the order np.sum takes over that block alone.
    """
    w = _weight(grid)
    return [w * s for s in np.square(block, block).sum(axis=(1, 2)).tolist()]


def _axis_sq_sums(V: np.ndarray, grid, axis: Axis) -> tuple[list, list]:
    """|half|^2 and |second|^2 along axis, one entry per field of the stack V."""
    return (_sq_sums(_half_block(V, grid, axis), grid),
            _sq_sums(_second_block(V, grid, axis), grid))


@dataclass(frozen=True)
class NormReport:
    """L2 and weighted-H2 norms with the five squared components."""

    l2: float
    h2: float
    l2_sq: float
    half_x_sq: float
    half_y_sq: float
    second_x_sq: float
    second_y_sq: float


def _h2_reports(V: np.ndarray, grid, alpha: float) -> tuple[NormReport, ...]:
    """The NormReport of each field of the C-ordered stack V on grid, in order.

    Each block of the table is formed once over the whole stack and reduced
    with one sum; each report is bit for bit the one-field report.
    """
    l2 = _sq_sums(_interior_block(V, grid), grid)
    gx, cx = _axis_sq_sums(V, grid, Axis.X)
    gy, cy = _axis_sq_sums(V, grid, Axis.Y)
    wx, wy = grid.hx ** 2 / 12.0, grid.hy ** 2 / 12.0
    return tuple(
        NormReport(l2=math.sqrt(l2_sq), h2=math.sqrt(l2_sq + alpha * (hx + hy + wx * sx + wy * sy)),
                   l2_sq=l2_sq, half_x_sq=hx, half_y_sq=hy, second_x_sq=sx, second_y_sq=sy)
        for l2_sq, hx, hy, sx, sy in zip(l2, gx, gy, cx, cy))


def h2_norm(field: Field, alpha: float, *more: Field) -> NormReport | tuple[NormReport, ...]:
    """Weighted H2 norm:

    h2^2 = l2^2 + alpha*[ |half_x|^2 + |half_y|^2
                          + (hx^2/12)|second_x|^2 + (hy^2/12)|second_y|^2 ]

    h2_norm(field, alpha) returns the NormReport of field;
    h2_norm(field, alpha, *more) returns a tuple with one NormReport per
    field, in order, for fields on one grid, from one pass of the stacked
    kernel over a copy of their values.
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    reports = _h2_reports(_stack(field, *more), field.grid, alpha)
    return reports if more else reports[0]


def directional_energy(field: Field, axis: Axis, alpha: float) -> float:
    """l2^2 + alpha*(|half_z|^2 + (h_z^2/12)|second_z|^2) for one axis z."""
    g, V = field.grid, field.values[None]
    (l2_sq,) = _sq_sums(_interior_block(V, g), g)
    (half,), (second,) = _axis_sq_sums(V, g, axis)
    h = _h(g, axis)
    return l2_sq + alpha * (half + (h * h / 12.0) * second)


def inner(u: Field, v: Field, variant: str = "plain") -> float:
    """Discrete inner products with the interior-anchored index ranges.

    Variants: plain values; paired half differences (half_x/half_y); paired
    second differences (second_x/second_y); wide first- or second-derivative
    stencil of u against plain v (wide1_*/wide2_*).
    """
    u.same_grid(v)
    g = u.grid
    w = _weight(g)
    if variant == "plain":
        return float(w * np.sum(u.interior * v.interior))
    if variant not in INNER_VARIANTS:
        raise ConfigurationError(f"unknown inner-product variant {variant!r}; "
                                 f"expected one of {INNER_VARIANTS}")
    axis = Axis.X if variant.endswith("x") else Axis.Y
    if variant.startswith(("half", "second")):
        block = _half_block if variant.startswith("half") else _second_block
        bu, bv = block(_stack(u, v), g, axis)
        return float(w * np.sum(bu * bv))
    op = wide_first_values if variant.startswith("wide1") else wide_second_values
    s = g.interior
    return float(w * np.sum(op(u.values, _h(g, axis), axis)[s, s] * v.interior))


def is_frame_vanishing(field: Field, tol: float = 0.0) -> bool:
    M = field.grid.M
    v = field.values
    layers = [0, 1, M - 1, M]
    return all(np.abs(v[l, :]).max() <= tol and np.abs(v[:, l]).max() <= tol
               for l in layers)


@dataclass(frozen=True)
class SbpResiduals:
    """Residuals of the exact summation-by-parts identities.

    wide1_self_z:   |(wide_first w, w)|            (vanishing self-pairing)
    wide2_energy_z: |(-wide_second w, w) - (|half w|^2 + (h^2/12)|second w|^2)|
    """

    wide1_self_x: float
    wide1_self_y: float
    wide2_energy_x: float
    wide2_energy_y: float

    def max(self) -> float:
        return max(self.wide1_self_x, self.wide1_self_y,
                   self.wide2_energy_x, self.wide2_energy_y)


def sbp_residuals(w: Field) -> SbpResiduals:
    """Evaluate the summation-by-parts identities on a frame-vanishing field."""
    if not is_frame_vanishing(w):
        raise FrameError("identities require the field to vanish on node "
                         "layers {0, 1, M-1, M} along both axes")
    g = w.grid
    r1x = abs(inner(w, w, "wide1_x"))
    r1y = abs(inner(w, w, "wide1_y"))
    (hx,), (sx,) = _axis_sq_sums(w.values[None], g, Axis.X)
    (hy,), (sy,) = _axis_sq_sums(w.values[None], g, Axis.Y)
    e_x = hx + (g.hx ** 2 / 12.0) * sx
    e_y = hy + (g.hy ** 2 / 12.0) * sy
    r2x = abs(-inner(w, w, "wide2_x") - e_x)
    r2y = abs(-inner(w, w, "wide2_y") - e_y)
    return SbpResiduals(r1x, r1y, r2x, r2y)

