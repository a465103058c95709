"""Axis-wise finite-difference operators on nodal fields.

Four operators, each applied along one axis:

  half_diff    first difference at half points, (u_{i+1} - u_i)/h
  second_diff  three-point second difference, exact for quadratics
  wide_first   five-point fourth-order first derivative
  wide_second  five-point fourth-order second derivative

The wide stencils are defined on the interior range 2..M-2 only; entries
outside the valid range are zero-filled and must not be read downstream.

wide_first uses (u_{i-2} - 8u_{i-1} + 8u_{i+1} - u_{i+2}) / (12h), the sign
that approximates +d/dz.  A sign-flipped variant of this stencil appears in
print elsewhere; flipping the sign makes wide_first(x) evaluate to -1, which
the consistency tests reject.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .grid import Field

# five-point stencil weights, offsets -2..+2, before the 1/(12h^p) scale
WIDE_FIRST_W = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
WIDE_SECOND_W = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


class Axis(Enum):
    X = 0
    Y = 1


def _h(grid, axis: Axis) -> float:
    return grid.hx if axis is Axis.X else grid.hy


def axis_first(values: np.ndarray, axis: Axis) -> np.ndarray:
    """View of values with `axis` as the leading axis (the transpose for Y)."""
    return values if axis is Axis.X else values.T


def _along(values: np.ndarray, axis: Axis, nodes: slice) -> np.ndarray:
    """values at `nodes` along axis: X is the second-to-last axis, Y the last.

    Leading axes, if any, index a stack of fields.
    """
    return values[..., nodes, :] if axis is Axis.X else values[..., nodes]


def half_diff_values(values: np.ndarray, h: float, axis: Axis) -> np.ndarray:
    """Half-point differences; entry m holds the value at m + 1/2.

    values may carry leading stack axes (see _along); so may _second_diff's.
    Both keep a float dtype of values, and difference integers in float64.
    """
    d = np.subtract(_along(values, axis, slice(1, None)), _along(values, axis, slice(None, -1)),
                    dtype=np.result_type(values, 1.0))
    return np.divide(d, h, d)


def _second_diff(values: np.ndarray, h: float, axis: Axis) -> np.ndarray:
    """Second differences at nodes 1..L-1 along axis, for L + 1 nodes there."""
    # (v[2:] - 2 v[1:-1]) + v[:-2], in that order, in one array: a stack of
    # fields makes each temporary as large as the stack
    d = np.multiply(2, _along(values, axis, slice(1, -1)), dtype=np.result_type(values, 1.0))
    np.subtract(_along(values, axis, slice(2, None)), d, d)
    np.add(d, _along(values, axis, slice(None, -2)), d)
    return np.divide(d, h * h, d)


def five_point(values: np.ndarray, w: np.ndarray, axis: Axis) -> np.ndarray:
    """Sums w[0]*u[i-2] + ... + w[4]*u[i+2] along axis, for i = 2..M-2.

    M + 1 is the length of values along axis; the other axis is kept whole.
    The sum is ((w[0]*u[i-2] + w[1]*u[i-1]) + w[2]*u[i]) + ..., formed in one
    accumulator with one scratch array.
    """
    v = axis_first(values, axis)
    M = v.shape[0] - 1
    acc = np.multiply(w[0], v[0:M - 3])
    term = np.empty_like(acc)
    for k in range(1, 5):
        np.add(acc, np.multiply(w[k], v[k:M - 3 + k], term), acc)
    return axis_first(acc, axis)


def _padded(values: np.ndarray, inner: np.ndarray, axis: Axis, width: int) -> np.ndarray:
    """inner on the nodes `width`.. from each end along axis, zeros outside,
    in inner's dtype (integer values give float differences)."""
    out = np.zeros_like(values, dtype=inner.dtype)
    axis_first(out, axis)[width:-width] = axis_first(inner, axis)
    return out


def second_diff_values(values: np.ndarray, h: float, axis: Axis) -> np.ndarray:
    return _padded(values, _second_diff(values, h, axis), axis, 1)


def wide_first_values(values: np.ndarray, h: float, axis: Axis) -> np.ndarray:
    sums = five_point(values, WIDE_FIRST_W, axis)
    return _padded(values, np.divide(sums, 12.0 * h, sums), axis, 2)


def wide_second_values(values: np.ndarray, h: float, axis: Axis) -> np.ndarray:
    sums = five_point(values, WIDE_SECOND_W, axis)
    return _padded(values, np.divide(sums, 12.0 * h * h, sums), axis, 2)


def half_diff(field: Field, axis: Axis) -> np.ndarray:
    """Staggered first differences of a field (not a nodal Field)."""
    return half_diff_values(field.values, _h(field.grid, axis), axis)


def second_diff(field: Field, axis: Axis) -> Field:
    return field.with_values(second_diff_values(field.values, _h(field.grid, axis), axis))


def wide_first(field: Field, axis: Axis) -> Field:
    return field.with_values(wide_first_values(field.values, _h(field.grid, axis), axis))


def wide_second(field: Field, axis: Axis) -> Field:
    return field.with_values(wide_second_values(field.values, _h(field.grid, axis), axis))
