import numpy as np
import pytest

from sobrlw import (ConfigurationError, ProblemSpec, example1, example2,
                    example3, get_problem, manufactured, residual_check)
from sobrlw.problems import MANUFACTURED_PRESETS


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
