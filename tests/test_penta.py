import time

import numpy as np
import pytest

from sobrlw import (ConfigurationError, PentaBands, SingularSystemError,
                    TensorLineSolver, factor, make_grid, multiply_line, penta,
                    solve_line)
from sobrlw.penta import stencil_coefficients

from _oracles import dense_banded, dense_gauss_solve


def random_dominant_bands(rng, n):
    off = rng.uniform(-1.0, 1.0, size=4)
    c0 = np.sum(np.abs(off)) + rng.uniform(0.5, 2.0)
    return PentaBands(off[0], off[1], c0, off[2], off[3], n=n)


def line_bands(h, n, alpha, beta, gamma, theta):
    """I - alpha*wide_second - theta*(gamma*wide_second - beta*wide_first),
    as the split stepper factors it."""
    return PentaBands(*stencil_coefficients(h, alpha, beta, gamma, theta),
                      n=n).shifted(1.0)


def test_assemble_hand_checked_coefficients():
    g = make_grid(0, 1, 0, 1, 4)   # h = 1/4
    bands = line_bands(g.hx, g.n_interior, alpha=1.0, beta=0.0, gamma=0.0, theta=0.0)
    w = 1.0 / (12 * 0.25 ** 2)     # = 4/3
    assert np.allclose(bands.coefficients,
                       [w, -16 * w, 1 + 30 * w, -16 * w, w])
    assert np.allclose(bands.coefficients, [4 / 3, -64 / 3, 41.0, -64 / 3, 4 / 3])
    assert bands.n == 1


def test_assemble_row_sums_one():
    # wide_second annihilates constants, so all rows sum to the identity
    g = make_grid(0, 1, 0, 1, 8)
    for theta in (0.0, 0.01):
        bands = line_bands(g.hx, g.n_interior, alpha=1.0, beta=0.0,
                           gamma=1.0, theta=theta)
        assert abs(bands.coefficients.sum() - 1.0) < 1e-12


def test_assemble_theta_superposition():
    g = make_grid(0, 1, 0, 1, 8)
    b0 = line_bands(g.hy, g.n_interior, 1.0, 0.0, 1.0, 0.0)
    b1 = line_bands(g.hy, g.n_interior, 1.0, 0.0, 1.0, 0.02)
    # difference is -theta*gamma*(wide_second bands)
    w2 = np.array([-1, 16, -30, 16, -1]) / (12 * g.hy ** 2)
    assert np.allclose(b1.coefficients - b0.coefficients, -0.02 * w2)


def test_scheme_operator_is_not_diagonally_dominant():
    # |diag| = 1 + 30w < 34w = off-diagonal sum for benchmark resolutions;
    # the solve must not rely on dominance
    g = make_grid(0, 1, 0, 1, 8)
    bands = line_bands(g.hx, g.n_interior, 1.0, 0.0, 1.0, 0.0)
    c = np.abs(bands.coefficients)
    assert c[2] < c[0] + c[1] + c[3] + c[4]
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
    # stacked systems: one zero pivot among them is enough
    with pytest.raises(SingularSystemError):
        factor(PentaBands(0.1, -0.2, np.array([2.0, 0.0, 3.0]), -0.1, 0.05, n=4))


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


def tensor_bands(rng, n):
    """Symmetric x-bands and y-bands with a skew part."""
    sym = rng.uniform(-0.5, 0.5, 2)
    ax = PentaBands(sym[0], sym[1], 2.0, sym[1], sym[0], n=n)
    ay_c = rng.uniform(-0.3, 0.3, 5)
    ay_c[2] += 2.0
    return ax, PentaBands(*ay_c, n=n)


def test_tensor_line_solver_against_dense():
    # n = 13 as well: well past the band width, where a wrong band or a
    # wrong mode layout shows
    rng = np.random.default_rng(6)
    for n in (6, 13):
        ax, ay = tensor_bands(rng, n)
        solver = TensorLineSolver(ax, ay)
        B = rng.standard_normal((n, n))
        V = solver.solve(B)
        A2 = (np.kron(dense_banded(ax.coefficients, n), np.eye(n))
              + np.kron(np.eye(n), dense_banded(ay.coefficients, n))
              + np.eye(n * n))
        ref = dense_gauss_solve(A2, B.reshape(-1)).reshape(n, n)
        assert np.abs(V - ref).max() <= 1e-11, n


@pytest.mark.parametrize("n", [13, 61])
def test_tensor_line_solver_is_bitwise_the_per_mode_loop(n):
    # reference: one factor/solve_line per x-eigenmode; the batched sweep
    # must do each mode's arithmetic exactly as it does
    rng = np.random.default_rng(8)
    ax, ay = tensor_bands(rng, n)
    solver = TensorLineSolver(ax, ay)
    B = rng.standard_normal((n, n))
    Bt = solver.Q.T @ B
    V = np.empty_like(Bt)
    for i, lam_i in enumerate(solver.lam):
        V[i, :] = solve_line(factor(ay.shifted(1.0 + lam_i)), Bt[i, :])
    assert np.array_equal(solver.solve(B), solver.Q @ V)


def test_tensor_line_solver_factors_and_solves_once(monkeypatch):
    # one batched factorization per solver and one sweep per solve, not a
    # factor/solve_line pair per x-eigenmode
    calls = {"factor": 0, "solve_line": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(penta, "factor", counted("factor", penta.factor))
    monkeypatch.setattr(penta, "solve_line", counted("solve_line", penta.solve_line))
    ax, ay = tensor_bands(np.random.default_rng(9), 13)
    solver = TensorLineSolver(ax, ay)
    assert calls == {"factor": 1, "solve_line": 0}
    for _ in range(3):
        solver.solve(np.ones((13, 13)))
    assert calls == {"factor": 1, "solve_line": 3}


def test_tensor_line_solver_requires_symmetric_x():
    with pytest.raises(ConfigurationError):
        TensorLineSolver(PentaBands(0.1, 0.2, 1.0, 0.3, 0.1, n=4),
                         PentaBands(0, 0, 1.0, 0, 0, n=4))


def test_line_solve_cost_scales_linearly():
    # doubling the system size should not much more than double solve time;
    # the sizes are timed interleaved, so a slowdown of the host hits both
    rng = np.random.default_rng(7)
    cases = []
    for n in (29, 58):
        cases.append((factor(random_dominant_bands(rng, n)),
                      rng.standard_normal((n, 64))))
    best = [np.inf, np.inf]
    for _ in range(5):
        for idx, (fact, B) in enumerate(cases):
            t0 = time.perf_counter()
            for _ in range(200):
                solve_line(fact, B)
            best[idx] = min(best[idx], time.perf_counter() - t0)
    t1, t2 = best
    assert t2 / t1 <= 3.0, (t1, t2)
