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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FrameError
from .grid import Field
from .stencils import (Axis, half_diff_values, second_diff_values,
                       wide_first_values, wide_second_values)

INNER_VARIANTS = ("plain", "half_x", "half_y", "second_x", "second_y",
                  "wide1_x", "wide1_y", "wide2_x", "wide2_y")


def _weight(grid) -> float:
    return grid.hx * grid.hy


def l2_norm(field: Field) -> float:
    """sqrt(hx*hy * sum over the interior {2..M-2}^2)."""
    return float(np.sqrt(_weight(field.grid) * np.sum(field.interior ** 2)))


def _half_sq(field: Field, axis: Axis) -> float:
    """Weighted sum of squared half differences over their index block, as
    half_diff_values would give them but formed on the block alone."""
    g = field.grid
    M = g.M
    v = field.values
    if axis is Axis.X:      # half points i+1/2 for i = 1..M-2, j = 2..M-2
        d = (v[2:M, 2:M - 1] - v[1:M - 1, 2:M - 1]) / g.hx
    else:
        d = (v[2:M - 1, 2:M] - v[2:M - 1, 1:M - 1]) / g.hy
    return float(_weight(g) * np.sum(d ** 2))


def _second_sq(field: Field, axis: Axis) -> float:
    """Weighted sum of squared second differences over their index block, as
    second_diff_values would give them but formed on the block alone."""
    g = field.grid
    M = g.M
    v = field.values
    if axis is Axis.X:      # i = 1..M-1, j = 2..M-2
        h = g.hx
        d = (v[2:, 2:M - 1] - 2 * v[1:M, 2:M - 1] + v[:M - 1, 2:M - 1]) / (h * h)
    else:
        h = g.hy
        d = (v[2:M - 1, 2:] - 2 * v[2:M - 1, 1:M] + v[2:M - 1, :M - 1]) / (h * h)
    return float(_weight(g) * np.sum(d ** 2))


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


def h2_norm(field: Field, alpha: float) -> NormReport:
    """Weighted H2 norm:

    h2^2 = l2^2 + alpha*[ |half_x|^2 + |half_y|^2
                          + (hx^2/12)|second_x|^2 + (hy^2/12)|second_y|^2 ]
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    g = field.grid
    l2_sq = _weight(g) * float(np.sum(field.interior ** 2))
    gx = _half_sq(field, Axis.X)
    gy = _half_sq(field, Axis.Y)
    cx = _second_sq(field, Axis.X)
    cy = _second_sq(field, Axis.Y)
    h2_sq = l2_sq + alpha * (gx + gy + (g.hx ** 2 / 12.0) * cx + (g.hy ** 2 / 12.0) * cy)
    return NormReport(l2=float(np.sqrt(l2_sq)), h2=float(np.sqrt(h2_sq)),
                      l2_sq=l2_sq, half_x_sq=gx, half_y_sq=gy,
                      second_x_sq=cx, second_y_sq=cy)


def directional_energy(field: Field, axis: Axis, alpha: float) -> float:
    """l2^2 + alpha*(|half_z|^2 + (h_z^2/12)|second_z|^2) for one axis z."""
    g = field.grid
    h = g.hx if axis is Axis.X else g.hy
    l2_sq = _weight(g) * float(np.sum(field.interior ** 2))
    return l2_sq + alpha * (_half_sq(field, axis) + (h * h / 12.0) * _second_sq(field, axis))


def inner(u: Field, v: Field, variant: str = "plain") -> float:
    """Discrete inner products with the interior-anchored index ranges.

    Variants: plain values; paired half differences (half_x/half_y); paired
    second differences (second_x/second_y); wide first- or second-derivative
    stencil of u against plain v (wide1_*/wide2_*).
    """
    u.same_grid(v)
    g = u.grid
    M = g.M
    w = _weight(g)
    if variant == "plain":
        return float(w * np.sum(u.interior * v.interior))
    if variant in ("half_x", "half_y"):
        axis = Axis.X if variant.endswith("x") else Axis.Y
        h = g.hx if axis is Axis.X else g.hy
        du = half_diff_values(u.values, h, axis)
        dv = half_diff_values(v.values, h, axis)
        if axis is Axis.X:
            return float(w * np.sum(du[1:M - 1, 2:M - 1] * dv[1:M - 1, 2:M - 1]))
        return float(w * np.sum(du[2:M - 1, 1:M - 1] * dv[2:M - 1, 1:M - 1]))
    if variant in ("second_x", "second_y"):
        axis = Axis.X if variant.endswith("x") else Axis.Y
        h = g.hx if axis is Axis.X else g.hy
        du = second_diff_values(u.values, h, axis)
        dv = second_diff_values(v.values, h, axis)
        if axis is Axis.X:
            return float(w * np.sum(du[1:M, 2:M - 1] * dv[1:M, 2:M - 1]))
        return float(w * np.sum(du[2:M - 1, 1:M] * dv[2:M - 1, 1:M]))
    if variant in ("wide1_x", "wide1_y", "wide2_x", "wide2_y"):
        axis = Axis.X if variant.endswith("x") else Axis.Y
        h = g.hx if axis is Axis.X else g.hy
        op = wide_first_values if variant.startswith("wide1") else wide_second_values
        du = op(u.values, h, axis)
        s = g.interior
        return float(w * np.sum(du[s, s] * v.interior))
    raise ConfigurationError(f"unknown inner-product variant {variant!r}; "
                             f"expected one of {INNER_VARIANTS}")


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
    e_x = _half_sq(w, Axis.X) + (g.hx ** 2 / 12.0) * _second_sq(w, Axis.X)
    e_y = _half_sq(w, Axis.Y) + (g.hy ** 2 / 12.0) * _second_sq(w, Axis.Y)
    r2x = abs(-inner(w, w, "wide2_x") - e_x)
    r2y = abs(-inner(w, w, "wide2_y") - e_y)
    return SbpResiduals(r1x, r1y, r2x, r2y)


class RunningMax:
    """Maximum of a norm over visited time levels."""

    def __init__(self):
        self._max = None
        self.count = 0

    def update(self, value: float) -> None:
        v = float(value)
        self._max = v if self._max is None else max(self._max, v)
        self.count += 1

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max
