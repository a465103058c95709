import tracemalloc

import numpy as np
import pytest

from sobrlw import Axis, make_grid, sample
from sobrlw.stencils import (WIDE_FIRST_W, WIDE_SECOND_W, five_point, half_diff,
                             half_diff_values, second_diff, second_diff_values,
                             wide_first, wide_first_values, wide_second,
                             wide_second_values)

G8 = make_grid(0, 1, 0, 1, 8)


def field_of(grid, fn):
    return sample(grid, lambda X, Y, t: fn(X, Y))


def interior_block(grid, values):
    s = grid.interior
    return values[s, s]


def test_constant_killed_by_all_operators():
    f = field_of(G8, lambda X, Y: 3.0 * np.ones_like(X))
    assert np.all(half_diff(f, Axis.X) == 0.0)
    assert np.all(second_diff(f, Axis.Y).values == 0.0)
    assert np.all(wide_first(f, Axis.X).values == 0.0)
    assert np.all(wide_second(f, Axis.Y).values == 0.0)


def test_half_diff_linear_exact():
    f = field_of(G8, lambda X, Y: X)
    d = half_diff(f, Axis.X)
    assert np.allclose(d, 1.0, atol=1e-14)


def test_half_diff_quadratic_midpoint():
    # on x^2 the half difference equals 2 * x_{i+1/2}
    g = make_grid(0, 1, 0, 1, 4)
    f = field_of(g, lambda X, Y: X ** 2)
    d = half_diff(f, Axis.X)
    # between x=0.25 and x=0.5: (0.25 - 0.0625)/0.25 = 0.75
    assert abs(d[1, 0] - 0.75) < 1e-14
    mids = 2.0 * (g.xs()[:-1] + 0.5 * g.hx)
    assert np.allclose(d[:, 2], mids, atol=1e-14)


def test_second_diff_quadratic_exact():
    f = field_of(G8, lambda X, Y: X ** 2)
    d = second_diff(f, Axis.X).values
    assert np.allclose(d[1:8, :], 2.0, atol=1e-12)


def test_wide_first_sign_is_positive_derivative():
    f = field_of(G8, lambda X, Y: X)
    d = wide_first(f, Axis.X).values
    assert np.allclose(interior_block(G8, d), 1.0, atol=1e-13)


def test_wide_second_quadratic_exact():
    f = field_of(G8, lambda X, Y: Y ** 2)
    d = wide_second(f, Axis.Y).values
    assert np.allclose(interior_block(G8, d), 2.0, atol=1e-12)


@pytest.mark.parametrize("p", range(6))
def test_exactness_degrees(p):
    g = make_grid(0, 1, 0, 1, 12)
    f = field_of(g, lambda X, Y: X ** p)
    s = g.interior
    X, _ = np.meshgrid(g.xs(), g.ys(), indexing="ij")
    xi = X[s, s]

    d2w = wide_second(f, Axis.X).values[s, s]
    expect = p * (p - 1) * xi ** (p - 2) if p >= 2 else 0.0 * xi
    assert np.allclose(d2w, expect, atol=1e-11)          # exact through p = 5

    if p <= 4:
        d1w = wide_first(f, Axis.X).values[s, s]
        expect1 = p * xi ** (p - 1) if p >= 1 else 0.0 * xi
        assert np.allclose(d1w, expect1, atol=1e-11)     # exact through p = 4

    if p <= 3:
        d2 = second_diff(f, Axis.X).values[s, s]
        assert np.allclose(d2, expect, atol=1e-11)       # exact through p = 3

    if p <= 1:
        d1 = half_diff(f, Axis.X)
        assert np.allclose(d1, p, atol=1e-13)            # exact through p = 1


@pytest.mark.parametrize("op,axis", [
    (lambda f, ax: half_diff(f, ax), Axis.X),
    (lambda f, ax: second_diff(f, ax).values, Axis.Y),
    (lambda f, ax: wide_first(f, ax).values, Axis.X),
    (lambda f, ax: wide_second(f, ax).values, Axis.Y),
])
def test_linearity(op, axis):
    rng = np.random.default_rng(7)
    g = make_grid(0, 1, 0, 1, 10)
    u = g, rng.standard_normal((11, 11))
    v = g, rng.standard_normal((11, 11))
    from sobrlw import Field
    fu, fv = Field(*u), Field(*v)
    a, b = 1.7, -0.4
    combo = Field(g, a * fu.values + b * fv.values)
    left = op(combo, axis)
    right = a * op(fu, axis) + b * op(fv, axis)
    scale = np.abs(right).max() + 1.0
    assert np.abs(left - right).max() <= 1e-13 * scale


def test_wide_operators_fourth_order():
    # truncation order measured on the node set common to all grids
    lo, hi = 0.25, 0.75

    def max_err(M, op, target):
        g = make_grid(0, 1, 0, 1, M)
        f = field_of(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
        X, Y = np.meshgrid(g.xs(), g.ys(), indexing="ij")
        mask = (X >= lo - 1e-12) & (X <= hi + 1e-12) & \
               (Y >= lo - 1e-12) & (Y <= hi + 1e-12)
        return np.abs(op(f).values - target(X, Y))[mask].max()

    tgt1 = lambda X, Y: np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
    tgt2 = lambda X, Y: -np.pi ** 2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    for op, tgt in ((lambda f: wide_first(f, Axis.X), tgt1),
                    (lambda f: wide_second(f, Axis.X), tgt2)):
        errs = [max_err(M, op, tgt) for M in (8, 16, 32)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9, orders


def test_second_diff_second_order():
    def max_err(M):
        g = make_grid(0, 1, 0, 1, M)
        f = field_of(g, lambda X, Y: np.sin(np.pi * X))
        X, _ = np.meshgrid(g.xs(), g.ys(), indexing="ij")
        d = second_diff(f, Axis.X).values
        mask = (X >= 0.25 - 1e-12) & (X <= 0.75 + 1e-12)
        return np.abs(d + np.pi ** 2 * np.sin(np.pi * X))[mask].max()

    errs = [max_err(M) for M in (16, 32, 64)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9, orders


def test_half_and_second_diff_stencil_identity():
    # dx w_{i-1/2} - 2 dx w_{i+1/2} + dx w_{i+3/2} = h (dxx w_{i+1} - dxx w_i)
    rng = np.random.default_rng(11)
    g = make_grid(0, 1, 0, 1, 12)
    w = rng.standard_normal((13, 13))
    h = g.hx
    d = half_diff_values(w, h, Axis.X)       # d[m] at half point m+1/2
    d2 = second_diff_values(w, h, Axis.X)
    i = np.arange(1, 11)
    lhs = d[i - 1, :] - 2 * d[i, :] + d[i + 1, :]
    rhs = h * (d2[i + 1, :] - d2[i, :])
    scale = np.abs(rhs).max() + 1.0
    assert np.abs(lhs - rhs).max() <= 1e-13 * scale


def expression_five_point(values, w, axis):
    """The five-point sums as one expression, added left to right."""
    v = values if axis is Axis.X else values.T
    M = v.shape[0] - 1
    sums = (w[0] * v[0:M - 3] + w[1] * v[1:M - 2] + w[2] * v[2:M - 1]
            + w[3] * v[3:M] + w[4] * v[4:M + 1])
    return sums if axis is Axis.X else sums.T


@pytest.mark.parametrize("axis", list(Axis))
@pytest.mark.parametrize("kind", ["float", "int"])
def test_five_point_and_wide_values_are_bitwise_the_expression(axis, kind):
    # the in-place accumulation must add in the expression's order; integer
    # values give float differences
    rng = np.random.default_rng(13)
    values = rng.standard_normal((13, 9)) * 10.0 ** rng.integers(-3, 4, size=(13, 9))
    if kind == "int":
        values = rng.integers(-50, 51, size=(13, 9))
    for w in (WIDE_FIRST_W, WIDE_SECOND_W, rng.standard_normal(5)):
        got, ref = five_point(values, w, axis), expression_five_point(values, w, axis)
        assert got.shape == ref.shape and got.tobytes() == np.ascontiguousarray(ref).tobytes()
    h = 0.37
    for op, w, scale in ((wide_first_values, WIDE_FIRST_W, 12.0 * h),
                         (wide_second_values, WIDE_SECOND_W, 12.0 * h * h)):
        ref = np.zeros(values.shape)
        inner = expression_five_point(values, w, axis) / scale
        if axis is Axis.X:
            ref[2:-2] = inner
        else:
            ref[:, 2:-2] = inner
        assert op(values, h, axis).tobytes() == ref.tobytes()
    v = values if axis is Axis.X else values.T
    half = (v[1:] - v[:-1]) / h
    second = np.zeros(v.shape)
    second[1:-1] = ((v[2:] - 2 * v[1:-1]) + v[:-2]) / (h * h)
    for got, ref in ((half_diff_values(values, h, axis), half),
                     (second_diff_values(values, h, axis), second)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(ref if axis is Axis.X else ref.T).tobytes()


def warm_peak(fn):
    """tracemalloc peak, in bytes, of the second of two calls of fn."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# M = 128: an n x n interior block, n = 125, of float64 (125 KB).  Along a
# strided slice numpy's ufunc loop adds its buffer of 8,192 values (0.52
# blocks); the sums written as one expression peaked at 3.0-3.1 blocks.
G128 = make_grid(0, 1, 0, 1, 128)
BLOCK = G128.n_interior ** 2 * 8


def test_five_point_keeps_one_accumulator_and_one_scratch():
    U = np.random.default_rng(14).standard_normal((129, 129))
    s = G128.interior
    for values, axis in ((U[:, s], Axis.X), (U[s, :], Axis.Y)):     # as the engine
        peak = warm_peak(lambda: five_point(values, WIDE_SECOND_W, axis))
        assert peak <= 2.6 * BLOCK, (axis, peak / BLOCK)


@pytest.mark.parametrize("axis, bound", [(Axis.X, 2.2), (Axis.Y, 2.6)])
def test_wide_first_values_divides_in_place(axis, bound):
    U = np.random.default_rng(15).standard_normal((129, 129))
    peak = warm_peak(lambda: wide_first_values(U, G128.hx, axis))
    assert peak <= bound * BLOCK, peak / BLOCK
