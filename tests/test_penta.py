import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sobrlw import (ConfigurationError, PentaBands, SingularSystemError,
                    TensorLineSolver, factor, make_grid, penta, solve_line,
                    time_step_rule)
from sobrlw.penta import stencil_coefficients

from _oracles import (dense_banded, dense_gauss_solve, loop_solve_line,
                      multiply_line)


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


@pytest.mark.parametrize("bands, row", [
    (PentaBands(0, 0, 0.0, 0, 0, n=3), 0),
    (PentaBands(0, 1.0, 1.0, 1.0, 0, n=4), 1),     # d1 = 1 - 1*1
    (PentaBands(1.0, 0, 1.0, 0, 1.0, n=4), 2),     # d2 = 1 - 1*1, in the loop
    (PentaBands(1.0, 0, 1.0, 0, 1.0, n=3), 2),     # the same pivot, last row
], ids=["row0", "row1", "row2", "last-row"])
def test_factor_names_the_row_of_the_zero_pivot(bands, row):
    with pytest.raises(SingularSystemError, match=f"^zero pivot at row {row}$"):
        factor(bands)


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


def test_solve_rejects_a_scalar_rhs_and_keeps_length_one():
    # a 0-d right-hand side once ended in a raw IndexError
    fact = factor(PentaBands(0, 0, 2.0, 0, 0, n=1))
    with pytest.raises(ConfigurationError, match=r"shape \(\)"):
        solve_line(fact, 2.0)
    x = solve_line(fact, np.array([2.0]))
    assert x.shape == (1,) and x[0] == 1.0


def _sweep_case(rng, n, factors, rhs_kind):
    """A factorization, scalar or of 4 stacked systems, and a right-hand side:
    (n,) "vector", (n, 4) "batch", "complex" (a complex main diagonal when
    stacked) or "int" (integer bands and right-hand side)."""
    stacked = factors == "stacked"
    shape = (n, 4) if stacked or rhs_kind == "batch" else (n,)
    if rhs_kind == "int":
        c_0 = np.array([10, 7, 12, 9]) if stacked else 10
        return factor(PentaBands(1, 2, c_0, 3, 1, n=n)), rng.integers(-5, 6, size=shape)
    off = rng.uniform(-1.0, 1.0, size=4)
    c_0 = 3.0 + rng.uniform(0.5, 2.0, size=4 if stacked else None)
    rhs = rng.standard_normal(shape)
    if rhs_kind == "complex":
        c_0 = c_0 + 1j * rng.uniform(-1.0, 1.0, size=4) if stacked else c_0
        rhs = rhs + 1j * rng.standard_normal(shape)
    return factor(PentaBands(off[0], off[1], c_0, off[2], off[3], n=n)), rhs


@pytest.mark.parametrize("n", [1, 2, 3, 61])
@pytest.mark.parametrize("factors, rhs_kind", [
    ("scalar", "vector"), ("scalar", "batch"), ("scalar", "complex"), ("scalar", "int"),
    ("stacked", "batch"), ("stacked", "complex"), ("stacked", "int")])
def test_solve_line_is_bitwise_the_row_loop(n, factors, rhs_kind):
    # the sweep over cached row views must do exactly the arithmetic of the
    # indexed row loop
    fact, rhs = _sweep_case(np.random.default_rng(n), n, factors, rhs_kind)
    x, ref = solve_line(fact, rhs), loop_solve_line(fact, rhs)
    assert x.dtype == ref.dtype and x.shape == ref.shape
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 61])
@pytest.mark.parametrize("rhs_kind", ["real", "int"])
def test_stacked_split_factorization_solves_bytewise_as_the_scalar_one(n, rhs_kind):
    # the split stepper factors one copy of the main diagonal per line, so
    # that factor rows and right-hand side rows share one shape
    rng = np.random.default_rng(n)
    bands = PentaBands(*stencil_coefficients(1.0 / (n + 3), 1.0, 0.5, 1.0, 0.01), n=n)
    scalar, stacked = factor(bands.shifted(1.0)), factor(bands.shifted(np.ones(n)))
    rhs = (rng.standard_normal((n, n)) if rhs_kind == "real"
           else rng.integers(-5, 6, size=(n, n)))
    x, ref = solve_line(stacked, rhs), solve_line(scalar, rhs)
    assert x.dtype == ref.dtype and x.shape == ref.shape
    assert x.tobytes() == ref.tobytes()


def test_solve_line_never_hands_out_its_workspace():
    # the sweep runs in a workspace cached on the factorization; each call
    # must return its own array (_fixed_point takes new - x across solves)
    rng = np.random.default_rng(10)
    fact = factor(PentaBands(0.1, -0.3, np.array([2.0, 3.0, 4.0]), 0.2, 0.1, n=5))
    first = solve_line(fact, rng.standard_normal((5, 3)))
    B = rng.standard_normal((5, 3))
    second = solve_line(fact, B)
    assert not np.shares_memory(first, second)
    kept = second.copy()
    first[...] = 7.0
    assert np.array_equal(second, kept)
    assert np.array_equal(solve_line(fact, B), kept)


def test_warm_solve_line_allocates_only_its_result():
    # M = 128, the split stepper's stacked line systems: n = 125, and the
    # result is one n x n block (the row list of the old sweep took 0.13 more)
    n = 125
    bands = PentaBands(*stencil_coefficients(1.0 / 128, 1.0, 0.0, 1.0, 0.01), n=n)
    fact = factor(bands.shifted(np.ones(n)))
    B = np.random.default_rng(12).standard_normal((n, n))
    solve_line(fact, B)
    tracemalloc.start()
    try:
        x = solve_line(fact, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("shape", [(5,), (5, 4)], ids=["vector", "too-many-columns"])
def test_stacked_solve_rejects_a_mismatched_rhs(shape):
    # these used to end inside numpy ("setting an array element with a
    # sequence", "operands could not be broadcast")
    fact = factor(PentaBands(0.1, -0.3, np.array([2.0, 3.0, 4.0]), 0.2, 0.1, n=5))
    with pytest.raises(ConfigurationError) as exc:
        solve_line(fact, np.ones(shape))
    assert str(shape) in str(exc.value) and "(5, 3)" in str(exc.value)


def test_stacked_solve_matches_the_dense_solve_per_system():
    c_0 = np.array([2.0, 3.0, 4.0])
    B = np.random.default_rng(7).standard_normal((5, 3))
    x = solve_line(factor(PentaBands(0.1, -0.3, c_0, 0.2, 0.1, n=5)), B)
    for col, c in enumerate(c_0):
        dense = PentaBands(0.1, -0.3, c, 0.2, 0.1, n=5).dense()
        assert np.abs(x[:, col] - dense_gauss_solve(dense, B[:, col])).max() <= 1e-13


def tensor_bands(rng, n, skew_x=False):
    """x-bands, symmetric unless skew_x, and y-bands with a skew part."""
    sym = rng.uniform(-0.5, 0.5, 2)
    skew = rng.uniform(-0.2, 0.2, 2) if skew_x else np.zeros(2)
    ax = PentaBands(sym[0] - skew[0], sym[1] - skew[1], 2.0,
                    sym[1] + skew[1], sym[0] + skew[0], n=n)
    ay_c = rng.uniform(-0.3, 0.3, 5)
    ay_c[2] += 2.0
    return ax, PentaBands(*ay_c, n=n)


def coupled_bands(M, alpha, beta, gamma, theta_per_k):
    """x- and y-bands of a coupled sub-step on the unit square, theta = theta_per_k*k."""
    h = 1.0 / M
    c = stencil_coefficients(h, alpha, beta, gamma, theta_per_k * time_step_rule(h, h))
    return PentaBands(*c, n=M - 3), PentaBands(*c, n=M - 3)


def test_tensor_line_solver_against_dense():
    # n = 13 as well: well past the band width, where a wrong band or a
    # wrong mode layout shows; skew x-bands take the eig path
    rng = np.random.default_rng(6)
    cases = [tensor_bands(rng, n, skew_x) for skew_x in (False, True) for n in (6, 13)]
    # transport bands: in the chain step at M = 256 the first off-diagonals
    # are -87408.26 and -87408.16, within np.isclose's default tolerance, and
    # eigh would drop their skew part
    ax, _ = coupled_bands(256, 1.0, 1.0, 1.0, 0.5)
    assert ax.c_m != ax.c_p and np.isclose(ax.c_m, ax.c_p)
    cases.append((PentaBands(*ax.coefficients, n=20),
                  PentaBands(0, 0, 1.0, 0, 0, n=20)))
    # startup at M = 8 with alpha = 0.001: complex mode pairs, cond(P) ~ 179
    complex_modes = coupled_bands(8, 0.001, 1.0, 0.0, 0.25)
    assert np.abs(TensorLineSolver(*complex_modes).lam.imag).max() > 0.05
    cases.append(complex_modes)
    for ax, ay in cases:
        n = ax.n
        solver = TensorLineSolver(ax, ay)
        B = rng.standard_normal((n, n))
        V = solver.solve(B)
        A2 = (np.kron(dense_banded(ax.coefficients, n), np.eye(n))
              + np.kron(np.eye(n), dense_banded(ay.coefficients, n))
              + np.eye(n * n))
        ref = dense_gauss_solve(A2, B.reshape(-1)).reshape(n, n)
        assert V.dtype == np.float64
        assert np.abs(V - ref).max() <= 1e-11 * np.abs(ref).max(), ax


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


def test_tensor_line_solver_rejects_defective_x():
    # a Jordan block has one eigenvector, so P is singular; the guard must
    # raise before any warning of a singular inverse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=r"cond\(P\) = inf"):
            TensorLineSolver(PentaBands(0.0, 1.0, 0.0, 0.0, 0.0, n=6),
                             PentaBands(0, 0, 1.0, 0, 0, n=6))


@pytest.mark.parametrize("c_0", [10, 10.0, np.array([10, 7, 12])],
                         ids=["int", "float-main", "stacked"])
def test_integer_bands_factor_and_solve_as_their_float_twins(c_0):
    # integer factors once truncated the LU multipliers (x_0 = 0.0370
    # instead of 0.0475) or, stacked, raised a raw numpy casting error
    ints = PentaBands(1, 2, c_0, 3, 1, n=6)
    c_0 = np.asarray(c_0, dtype=float)
    floats = PentaBands(1.0, 2.0, c_0, 3.0, 1.0, n=6)
    fi, ff = factor(ints), factor(floats)
    for name in "abdef":
        assert getattr(fi, name).dtype == np.float64
        assert np.array_equal(getattr(fi, name), getattr(ff, name)), name
    rhs = np.arange(1, 7)
    if c_0.ndim:
        rhs = np.repeat(rhs[:, None], c_0.size, axis=1)
    x = solve_line(fi, rhs)
    assert np.array_equal(x, solve_line(ff, rhs.astype(float)))
    for col, c in enumerate(np.atleast_1d(c_0)):
        dense = PentaBands(1.0, 2.0, float(c), 3.0, 1.0, n=6).dense()
        ref = dense_gauss_solve(dense, np.arange(1.0, 7.0))
        assert np.abs(x.reshape(6, -1)[:, col] - ref).max() <= 1e-12


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
