import tracemalloc

import numpy as np
import pytest

from sobrlw import (ConfigurationError, ProblemSpec, example1, example2,
                    example3, get_problem, manufactured, residual_check, run)
from sobrlw.grid import make_grid
from sobrlw.problems import MANUFACTURED_PRESETS, _directional_derivatives

from _oracles import (nested_dt, nested_dtxx, nested_dtyy, nested_dx,
                      nested_dxx, nested_dy, nested_dyy)


def _assert_same_bits(got, want):
    """got is want bit for bit, of the same type, dtype and shape.

    np.array_equal takes -0.0 for +0.0, so the bytes are compared.
    """
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_example1_exact_values():
    p = example1()
    assert p.exact(0.5, 0.5, 0.0) == 1.0
    assert (p.alpha, p.beta, p.gamma) == (1.0, 0.0, 1.0)


def test_example1_residual_analytically_zero():
    rc = residual_check(example1(), n_points=20, seed=0)
    assert rc.max_residual <= 1e-8


def test_example1_split_reconstructs_source():
    p = example1()
    rng = np.random.default_rng(0)
    X, Y, t = rng.random(100), rng.random(100), rng.random(100)
    U = p.exact(X, Y, t)
    total = p.f1(X, Y, t, U, None) + p.f2(X, Y, t, U, None)
    assert np.abs(total - (-U)).max() <= 1e-13


def test_example2_exact_values():
    p = example2()
    assert abs(p.exact(0.5, 0.5, 0.0) - np.e) < 1e-14


def test_example2_residual_after_sign_resolution():
    rc = residual_check(example2(), n_points=20, seed=0)
    assert rc.max_residual <= 1e-8


def test_example2_flipped_sign_would_fail():
    # moving the source to the other side leaves an O(1) residual, which is
    # what fixed the sign during construction
    p = example2()
    flipped = ProblemSpec(
        name="example2-flipped", alpha=p.alpha, beta=p.beta, gamma=p.gamma,
        f1=lambda X, Y, t, U, UX: -p.f1(X, Y, t, U, UX),
        f2=lambda X, Y, t, U, UY: -p.f2(X, Y, t, U, UY),
        u0=p.u0, g=p.g, exact=p.exact)
    rc = residual_check(flipped, n_points=20, seed=0)
    assert rc.max_residual > 1.0


def test_example2_split_reconstructs_source():
    p = example2()
    rng = np.random.default_rng(1)
    X, Y, t = rng.random(100), rng.random(100), rng.random(100)
    U = p.exact(X, Y, t)
    total = p.f1(X, Y, t, U, None) + p.f2(X, Y, t, U, None)
    direct = ((4 * np.pi ** 2 - 3) * U
              - 4 * np.pi * np.exp(X + Y + t)
              * (np.sin(np.pi * X) * np.cos(np.pi * Y)
                 + np.cos(np.pi * X) * np.sin(np.pi * Y)))
    scale = np.abs(direct).max()
    assert np.abs(total - direct).max() <= 1e-13 * scale


def test_example3_exact_and_coefficients():
    p = example3()
    assert p.exact(0.0, 0.0, 0.0) == 1.0
    assert (p.alpha, p.beta, p.gamma) == (1.0, -1.0, 0.0)


def test_example3_boundary_traces():
    p = example3()
    rng = np.random.default_rng(2)
    y, t = rng.random(20), rng.random(20)
    sech2 = lambda z: 1.0 / np.cosh(z) ** 2
    assert np.abs(p.g(0.0, y, t) - sech2(y - t)).max() <= 1e-14
    assert np.abs(p.g(1.0, y, t) - sech2(y - t + 1.0)).max() <= 1e-14
    assert np.abs(p.g(y, 0.0, t) - sech2(-y + t)).max() <= 1e-14
    assert np.abs(p.g(y, 1.0, t) - sech2(-y + t - 1.0)).max() <= 1e-14
    for edge in ((0.0, y), (1.0, y), (y, 0.0), (y, 1.0)):
        assert np.abs(p.g(edge[0], edge[1], t)
                      - p.exact(edge[0], edge[1], t)).max() <= 1e-14


def test_example3_reference_is_not_a_solution():
    # reported, not asserted small: the sech^2 reference leaves an O(1)
    # residual in the stated equation, so convergence against it stalls
    rc = residual_check(example3(), n_points=20, seed=0)
    assert np.isfinite(rc.max_residual)
    assert rc.max_residual > 1.0


def test_builtin_compatibility():
    for make in (example1, example2, example3):
        assert make().compatibility_mismatch(M=16) <= 1e-12


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ProblemSpec(name="bad", alpha=0.0, beta=0.0, gamma=0.0,
                    f1=None, f2=None, u0=None, g=None)
    with pytest.raises(ConfigurationError):
        ProblemSpec(name="bad", alpha=1.0, beta=1.5, gamma=0.0,
                    f1=None, f2=None, u0=None, g=None)


@pytest.mark.parametrize("coeff", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_spec_rejects_non_finite_coefficients(coeff, value):
    # abs(nan) > 1 is False, so a range check alone lets nan through
    coeffs = {"alpha": 1.0, "beta": 0.0, "gamma": 0.0, coeff: value}
    with pytest.raises(ConfigurationError):
        ProblemSpec(name="bad", f1=None, f2=None, u0=None, g=None, **coeffs)


def test_manufactured_zero_solution():
    p = manufactured(1.0, 0.5, 0.5, lambda X, Y, t: 0.0 * X)
    pts = np.linspace(0.1, 0.9, 5)
    assert np.abs(p.f1(pts, pts, 0.3, None, None)).max() <= 1e-12
    assert np.abs(p.f2(pts, pts, 0.3, None, None)).max() <= 1e-12


def test_manufactured_constant_solution():
    p = manufactured(1.0, 0.7, 0.2, lambda X, Y, t: 1.0 + 0.0 * X)
    pts = np.linspace(0.1, 0.9, 5)
    total = p.f1(pts, pts, 0.5, None, None) + p.f2(pts, pts, 0.5, None, None)
    assert np.abs(total).max() <= 1e-9


def test_manufactured_polynomial_hand_check():
    # u = (1+t) x^2 y^2 with (alpha, beta, gamma) = (1, 0.3, 0.7):
    # f = x^2 y^2 - alpha*(2x^2 + 2y^2) - gamma*(1+t)(2x^2 + 2y^2)
    #     + beta*(1+t)*(2x y^2 + 2 x^2 y);  at (0.5, 0.5, 0) = -1.4875
    p = manufactured(1.0, 0.3, 0.7, lambda X, Y, t: (1.0 + t) * X ** 2 * Y ** 2)
    total = p.f1(0.5, 0.5, 0.0, None, None) + p.f2(0.5, 0.5, 0.0, None, None)
    assert abs(total - (-1.4875)) <= 1e-8


def test_manufactured_residual_small_by_construction():
    p = manufactured(0.9, 0.4, 0.6, MANUFACTURED_PRESETS["trig"])
    rc = residual_check(p, n_points=10, seed=1)
    assert rc.max_residual <= 1e-8


def _nested_sources(alpha, beta, gamma, fn, X, Y, t):
    """The per-sample nested differences that manufactured() once summed."""
    f1 = (0.5 * nested_dt(fn, X, Y, t) - alpha * nested_dtxx(fn, X, Y, t)
          - gamma * nested_dxx(fn, X, Y, t) + beta * nested_dx(fn, X, Y, t))
    f2 = (0.5 * nested_dt(fn, X, Y, t) - alpha * nested_dtyy(fn, X, Y, t)
          - gamma * nested_dyy(fn, X, Y, t) + beta * nested_dy(fn, X, Y, t))
    return f1, f2


def _phase_wave(X, Y, t):
    return np.sin(np.pi * (X - t) + 2.1) * np.sin(np.pi * Y)


def _signed_zeros(X, Y, t):
    """Zero everywhere, its sign flipping from one difference sample to the
    next: the weighted terms of a sum can then all be -0.0, whose sum()
    (from 0) is +0.0."""
    return 0.0 * np.sin(np.pi * (X + Y - t) / 1e-2 + 0.5)


_SQUARE = make_grid(0.0, 1.0, 0.0, 1.0, 64).mesh()
_RECT = make_grid(0.0, 1.0, 0.0, 0.6, 16).mesh()
_POINTS = (np.linspace(0.1, 0.9, 5), np.linspace(0.2, 0.5, 5))


@pytest.mark.parametrize("coeffs, fn, X, Y, t", [
    ((1.0, 0.0, 1.0), MANUFACTURED_PRESETS["wave"], *_SQUARE, 0.125),
    ((0.6, 0.5, 0.7), MANUFACTURED_PRESETS["trig"], *_RECT, 0.3),
    ((0.9, -0.4, 0.2), MANUFACTURED_PRESETS["poly"], *_POINTS, 0.7),
    ((1.0, 0.3, 0.7), MANUFACTURED_PRESETS["poly"], 0.5, 0.5, 0.0),
    ((0.7, 0.8, 0.6), _phase_wave, *_SQUARE, 0.01),
    ((0.7, 0.8, 0.6), _phase_wave, 0.3, 0.8, 0.45),
    ((0.7, 0.8, 0.6), _signed_zeros, *_RECT, 0.3),
    ((0.7, 0.8, 0.6), _signed_zeros, 0.3, 0.8, 0.45),
], ids=["wave-65x65", "trig-rect", "poly-points", "poly-scalar",
        "phase-wave-65x65", "phase-wave-scalar", "signed-zeros-rect",
        "signed-zeros-scalar"])
def test_manufactured_source_is_bitwise_the_nested_differences(coeffs, fn, X, Y, t):
    p = manufactured(*coeffs, fn)
    f1, f2 = _nested_sources(*coeffs, fn, X, Y, t)
    _assert_same_bits(p.f1(X, Y, t, None, None), f1)
    _assert_same_bits(p.f2(X, Y, t, None, None), f2)


def _nested_residuals(spec, n_points, seed):
    """residual_check's points and residual, from the nested differences."""
    rng = np.random.default_rng(seed)
    pad_x, pad_y = 0.05 * (spec.L2 - spec.L1), 0.05 * (spec.L4 - spec.L3)
    X = rng.uniform(spec.L1 + pad_x, spec.L2 - pad_x, n_points)
    Y = rng.uniform(spec.L3 + pad_y, spec.L4 - pad_y, n_points)
    ts = rng.uniform(0.05 * spec.T, 0.95 * spec.T, n_points)
    fn, out = spec.exact, []
    for x, y, t in zip(X, Y, ts):
        ux, uy = nested_dx(fn, x, y, t), nested_dy(fn, x, y, t)
        lhs = (nested_dt(fn, x, y, t)
               - spec.alpha * (nested_dtxx(fn, x, y, t) + nested_dtyy(fn, x, y, t))
               - spec.gamma * (nested_dxx(fn, x, y, t) + nested_dyy(fn, x, y, t))
               + spec.beta * (ux + uy))
        u = fn(x, y, t)
        out.append(abs(lhs - (spec.f1(x, y, t, u, ux) + spec.f2(x, y, t, u, uy))))
    return np.array(out)


@pytest.mark.parametrize("make", [
    example2, example3,
    lambda: manufactured(0.6, 0.5, 0.7, MANUFACTURED_PRESETS["trig"],
                         bounds=(0.0, 1.0, 0.0, 0.6)),
], ids=["example2", "example3", "trig-rect"])
def test_residual_check_is_bitwise_the_nested_differences(make):
    # example3's sech^2 squares scalars, where numpy rounds ** through pow:
    # sampling it on stacked arrays instead moves one of these 10 residuals
    spec = make()
    rc = residual_check(spec, n_points=10, seed=0)
    _assert_same_bits(rc.residuals, _nested_residuals(spec, 10, 0))


def test_manufactured_source_calls_reference_once_per_time_offset():
    # 7 calls per source (one per time offset), not 70 (one per sample)
    times = []

    def counting(X, Y, t):
        times.append(t)
        return MANUFACTURED_PRESETS["wave"](X, Y, t)

    p = manufactured(1.0, 0.3, 0.7, counting)
    X, Y = _RECT
    p.f1(X, Y, 0.25, None, None)
    assert len(times) == 7
    p.f2(X, Y, 0.25, None, None)
    assert len(times) == 14
    assert all(np.ndim(t) == 0 for t in times)


@pytest.mark.parametrize("fn", [
    lambda X, Y, t: 0.0 * X,
    lambda X, Y, t: 1.0 + 0.0 * X,
    lambda X, Y, t: 0.0,
    lambda X, Y, t: np.sin(Y) * np.exp(-t),     # ignores x
    lambda X, Y, t: np.cos(X) * (1.0 + t),      # ignores y
], ids=["zero-array", "constant-array", "scalar", "no-x", "no-y"])
def test_manufactured_source_broadcasts_partial_references(fn):
    X, Y = _RECT
    p = manufactured(0.9, 0.4, 0.6, fn)
    for got, want in zip((p.f1(X, Y, 0.3, None, None), p.f2(X, Y, 0.3, None, None)),
                         _nested_sources(0.9, 0.4, 0.6, fn, X, Y, 0.3)):
        _assert_same_bits(got, np.broadcast_to(want, X.shape))


def _sin_exp(X, Y, t):
    return np.sin(np.pi * (X + Y - t)) * np.exp(X * Y)


def _sech2(X, Y, t):
    return 1.0 / np.cosh(X + Y - t) ** 2


_NESTED = {0: (nested_dt, nested_dx, nested_dxx, nested_dtxx),
           1: (nested_dt, nested_dy, nested_dyy, nested_dtyy)}
_RECT_37 = make_grid(0.0, 1.0, 0.0, 0.6, 37).mesh()


@pytest.mark.parametrize("X, Y", [_SQUARE, _RECT_37], ids=["square-64", "rect-37"])
@pytest.mark.parametrize("fn", [
    MANUFACTURED_PRESETS["wave"], MANUFACTURED_PRESETS["trig"],
    MANUFACTURED_PRESETS["poly"], _sin_exp, _sech2, _signed_zeros,
    lambda X, Y, t: np.cos(X) * (1.0 + t),      # ignores y
], ids=["wave", "trig", "poly", "sin-exp", "sech2", "signed-zeros", "no-y"])
def test_directional_derivatives_are_bitwise_the_full_mesh_differences(fn, X, Y):
    # the reference sees the mesh cut to a column and a row; every value
    # must still be the one the full mesh gives, sample for sample
    for axis in (0, 1):
        got = _directional_derivatives(fn, X, Y, 0.3, axis)
        for d, nested in zip(got, _NESTED[axis]):
            want = np.broadcast_to(nested(fn, X, Y, 0.3), X.shape)
            _assert_same_bits(d, want)


@pytest.mark.parametrize("X, Y", [_POINTS, (0.3, 0.8)], ids=["points", "scalars"])
@pytest.mark.parametrize("fn", [MANUFACTURED_PRESETS["wave"], _signed_zeros],
                         ids=["wave", "signed-zeros"])
def test_directional_derivatives_of_points_and_scalars_keep_their_type(fn, X, Y):
    # numpy scalars for scalar coordinates, as the nested differences give
    for axis in (0, 1):
        got = _directional_derivatives(fn, X, Y, 0.3, axis)
        for d, nested in zip(got, _NESTED[axis]):
            _assert_same_bits(d, nested(fn, X, Y, 0.3))


def test_directional_derivatives_hold_one_reference_stack_at_a_time():
    # M = 128: a 125^2 interior, each (7, 125, 125) reference stack 875 KB;
    # the bound is one stack plus 8 interior planes (tracemalloc counts
    # numpy's buffers, so the peak is the same on every run)
    # the open interior coordinates that the steppers pass
    grid = make_grid(0.0, 1.0, 0.0, 1.0, 128)
    s, (X, Y) = grid.interior, grid.open_mesh()
    X, Y = X[s], Y[:, s]
    plane = grid.n_interior ** 2 * X.itemsize
    fn = MANUFACTURED_PRESETS["wave"]
    for axis in (0, 1):
        _directional_derivatives(fn, X, Y, 0.3, axis)
        tracemalloc.start()
        try:
            _directional_derivatives(fn, X, Y, 0.3, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (7 + 8) * plane, (axis, peak / plane)


def _recording(shapes):
    def fn(X, Y, t):
        shapes.append((np.shape(X), np.shape(Y)))
        return MANUFACTURED_PRESETS["wave"](X, Y, t)
    return fn


def test_reference_sees_open_coordinates_on_the_mesh():
    # a run hands the sources the open interior coordinates, and the
    # differencing stacks the shifted one on a new first axis
    shapes, n = [], 7
    p = manufactured(1.0, 0.0, 1.0, _recording(shapes), T=0.05)
    assert not run(p, make_grid(0.0, 1.0, 0.0, 1.0, n + 3)).failed
    stacked = [pair for pair in shapes if 3 in map(len, pair)]
    along_x, along_y = ((7, n, 1), (1, n)), ((n, 1), (7, 1, n))
    assert stacked.count(along_x) == stacked.count(along_y) > 0
    assert set(stacked) == {along_x, along_y}


def test_non_constant_coordinates_are_passed_at_full_shape():
    # coordinates reach the reference at their own shape, cut or not
    X, Y = _RECT_37
    jittered = X + np.random.default_rng(5).uniform(-1e-3, 1e-3, X.shape)
    signed = X.copy()
    signed[0, 1::2] = -0.0      # the x = 0 row: constant in value, not in bits
    for Xc in (jittered, signed, X):
        shapes = []
        got = _directional_derivatives(_recording(shapes), Xc, Y, 0.4, 1)
        assert shapes == [((38, 38), (7, 38, 38))] * 7
        for d, nested in zip(got, _NESTED[1]):
            _assert_same_bits(d, nested(MANUFACTURED_PRESETS["wave"], Xc, Y, 0.4))


@pytest.mark.parametrize("X, Y", [_POINTS, (0.3, 0.8)], ids=["points", "scalars"])
def test_points_and_scalars_reach_the_reference_unchanged(X, Y):
    seen = []

    def fn(X_, Y_, t):
        seen.append((X_, Y_))
        return MANUFACTURED_PRESETS["poly"](X_, Y_, t)

    _directional_derivatives(fn, X, Y, 0.7, 0)
    assert all(y is Y for _, y in seen)
    seen.clear()
    _directional_derivatives(fn, X, Y, 0.7, 1)
    assert all(x is X for x, _ in seen)


def test_residual_check_requires_reference():
    p = example1()
    blind = ProblemSpec(name="blind", alpha=p.alpha, beta=p.beta,
                        gamma=p.gamma, f1=p.f1, f2=p.f2, u0=p.u0, g=p.g,
                        exact=None)
    with pytest.raises(ConfigurationError):
        residual_check(blind)


def test_get_problem_registry():
    assert get_problem("example2").name == "example2"
    assert get_problem("manufactured:poly").name == "manufactured:poly"
    with pytest.raises(ConfigurationError):
        get_problem("nope")
    with pytest.raises(ConfigurationError):
        get_problem("manufactured:nope")


def test_get_problem_coefficients_default_for_manufactured_problems():
    p = get_problem("manufactured:trig")
    assert (p.alpha, p.beta, p.gamma) == (1.0, 0.0, 1.0)
    p = get_problem("manufactured:wave", beta=0.5, gamma=0.25)
    assert (p.alpha, p.beta, p.gamma) == (1.0, 0.5, 0.25)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
@pytest.mark.parametrize("key", ["alpha", "beta", "gamma"])
def test_get_problem_rejects_coefficients_of_the_examples(name, key):
    own = getattr(get_problem(name), key)
    # even the example's own value: the coefficients are not the caller's
    with pytest.raises(ConfigurationError, match=f"^{key} applies only"):
        get_problem(name, **{key: own})


def _sup_l2_of_reference(p, M=32):
    from sobrlw import Field, l2_norm, make_grid, time_step_rule
    from sobrlw.scheme import make_time_grid
    g = make_grid(p.L1, p.L2, p.L3, p.L4, M)
    X, Y = g.mesh()
    tg = make_time_grid(p.T, time_step_rule(g.hx, g.hy))
    return max(l2_norm(Field(g, np.asarray(p.exact(X, Y, n * tg.k), float)))
               for n in range(tg.N + 1))


def test_reference_sup_norms_at_benchmark_resolution():
    # reference-table values hold for the first two problems, whose
    # solutions vanish on the boundary so the interior-anchored norm agrees
    # with a full-grid sum; the third reference does not vanish there, and
    # the interior norm is honestly 0.811 (the table's 0.92 is a full-grid
    # figure)
    assert abs(_sup_l2_of_reference(example1()) - 0.5) < 0.02
    assert abs(_sup_l2_of_reference(example2()) - 3.9423) < 0.02
    assert abs(_sup_l2_of_reference(example3()) - 0.81139) < 0.005
