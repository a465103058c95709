import time

import numpy as np
import pytest

from sobrlw import (Axis, ConfigurationError, DominanceWarning, PentaBands,
                    SingularSystemError, TensorLineSolver,
                    assemble_line_operator, factor,
                    make_grid, multiply_line, solve_line)

from _oracles import constrained_2d_solve, dense_banded, dense_gauss_solve


def random_dominant_bands(rng, n):
    off = rng.uniform(-1.0, 1.0, size=4)
    c0 = np.sum(np.abs(off)) + rng.uniform(0.5, 2.0)
    return PentaBands(off[0], off[1], c0, off[2], off[3], n=n)


def test_assemble_hand_checked_coefficients():
    g = make_grid(0, 1, 0, 1, 4)   # h = 1/4
    with pytest.warns(DominanceWarning):
        bands = assemble_line_operator(g, Axis.X, alpha=1.0, beta=0.0,
                                       gamma=0.0, theta=0.0)
    w = 1.0 / (12 * 0.25 ** 2)     # = 4/3
    assert np.allclose(bands.coefficients,
                       [w, -16 * w, 1 + 30 * w, -16 * w, w])
    assert np.allclose(bands.coefficients, [4 / 3, -64 / 3, 41.0, -64 / 3, 4 / 3])
    assert bands.n == 1


def test_assemble_row_sums_one():
    # wide_second annihilates constants, so all rows sum to the identity
    g = make_grid(0, 1, 0, 1, 8)
    for theta in (0.0, 0.01):
        bands = assemble_line_operator(g, Axis.X, alpha=1.0, beta=0.0,
                                       gamma=1.0, theta=theta, warn=False)
        assert abs(bands.coefficients.sum() - 1.0) < 1e-12


def test_assemble_theta_superposition():
    g = make_grid(0, 1, 0, 1, 8)
    b0 = assemble_line_operator(g, Axis.Y, 1.0, 0.0, 1.0, 0.0, warn=False)
    b1 = assemble_line_operator(g, Axis.Y, 1.0, 0.0, 1.0, 0.02, warn=False)
    # difference is -theta*gamma*(wide_second bands)
    w2 = np.array([-1, 16, -30, 16, -1]) / (12 * g.hy ** 2)
    assert np.allclose(b1.coefficients - b0.coefficients, -0.02 * w2)


def test_assemble_validates_inputs():
    g = make_grid(0, 1, 0, 1, 8)
    with pytest.raises(ConfigurationError):
        assemble_line_operator(g, Axis.X, alpha=0.0, beta=0, gamma=0, theta=0)
    with pytest.raises(ConfigurationError):
        assemble_line_operator(g, Axis.X, alpha=1.0, beta=0, gamma=0, theta=-1)


def test_scheme_operator_is_not_diagonally_dominant():
    # |diag| = 1 + 30w < 34w = off-diagonal sum for benchmark resolutions;
    # assembly must report it and proceed
    g = make_grid(0, 1, 0, 1, 8)
    with pytest.warns(DominanceWarning):
        bands = assemble_line_operator(g, Axis.X, 1.0, 0.0, 1.0, 0.0)
    assert bands.dominance_margin < 0.0
    fact = factor(bands)    # still factors fine
    rng = np.random.default_rng(0)
    x = rng.standard_normal(bands.n)
    b = multiply_line(bands, x)
    assert np.abs(solve_line(fact, b) - x).max() <= 1e-12 * np.abs(b).max()


def test_factor_identity_bands():
    bands = PentaBands(0, 0, 1, 0, 0, n=6)
    fact = factor(bands)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(6)
    assert np.allclose(solve_line(fact, b), b, atol=1e-15)


def test_factor_single_unknown():
    bands = PentaBands(0, 0, 2.0, 0, 0, n=1)
    assert solve_line(factor(bands), np.array([4.0]))[0] == 2.0


def test_factor_rejects_singular():
    with pytest.raises(SingularSystemError):
        factor(PentaBands(0, 0, 0.0, 0, 0, n=3))


def test_solve_against_dense_oracle():
    rng = np.random.default_rng(2)
    bands = random_dominant_bands(rng, 6)
    A = dense_banded(bands.coefficients, 6)
    b = rng.standard_normal(6)
    x = solve_line(factor(bands), b)
    x_ref = dense_gauss_solve(A, b)
    assert np.abs(x - x_ref).max() <= 1e-12


def test_solve_zero_rhs():
    bands = PentaBands(0.1, -0.4, 2.0, -0.3, 0.2, n=8)
    assert np.all(solve_line(factor(bands), np.zeros(8)) == 0.0)


def test_solve_roundtrip_property():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        bands = random_dominant_bands(rng, n)
        fact = factor(bands)
        x = rng.standard_normal(n)
        b = multiply_line(bands, x)
        got = solve_line(fact, b)
        assert np.abs(got - x).max() <= 1e-12 * (1.0 + np.abs(x).max())


def test_batched_solve_matches_columnwise():
    rng = np.random.default_rng(4)
    bands = random_dominant_bands(rng, 7)
    fact = factor(bands)
    B = rng.standard_normal((7, 5))
    batched = solve_line(fact, B)
    for col in range(5):
        single = solve_line(fact, B[:, col])
        assert np.array_equal(batched[:, col], single)


def test_solve_rejects_wrong_length():
    bands = PentaBands(0, 0, 1.0, 0, 0, n=4)
    with pytest.raises(ConfigurationError):
        solve_line(factor(bands), np.zeros(5))


def test_tensor_line_solver_against_dense():
    rng = np.random.default_rng(6)
    n = 6
    sym = rng.uniform(-0.5, 0.5, 2)
    ax = PentaBands(sym[0], sym[1], 2.0, sym[1], sym[0], n=n)
    ay_c = rng.uniform(-0.3, 0.3, 5)
    ay_c[2] += 2.0
    ay = PentaBands(*ay_c, n=n)
    solver = TensorLineSolver(ax, ay)
    B = rng.standard_normal((n, n))
    V = solver.solve(B)
    A2 = (np.kron(dense_banded(ax.coefficients, n), np.eye(n))
          + np.kron(np.eye(n), dense_banded(ay.coefficients, n))
          + np.eye(n * n))
    ref = dense_gauss_solve(A2, B.reshape(-1)).reshape(n, n)
    assert np.abs(V - ref).max() <= 1e-11


def test_tensor_line_solver_requires_symmetric_x():
    with pytest.raises(ConfigurationError):
        TensorLineSolver(PentaBands(0.1, 0.2, 1.0, 0.3, 0.1, n=4),
                         PentaBands(0, 0, 1.0, 0, 0, n=4))


def test_line_solve_cost_scales_linearly():
    # doubling the system size should not much more than double solve time
    rng = np.random.default_rng(7)

    def timed(n, reps=200):
        bands = random_dominant_bands(rng, n)
        fact = factor(bands)
        B = rng.standard_normal((n, 64))
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                solve_line(fact, B)
            best = min(best, time.perf_counter() - t0)
        return best

    t1, t2 = timed(29), timed(58)
    assert t2 / t1 <= 3.0, (t1, t2)
