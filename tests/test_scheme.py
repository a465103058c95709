import numpy as np
import pytest

from sobrlw import (BlowUpError, ConfigurationError, Field, PicardError,
                    ProblemSpec, SchemeConfig, SchemeState, advance,
                    cn_x_step, cn_y_step,
                    example1, fill_boundary_layers, init_half_step,
                    l2_norm, leapfrog_x_step, make_grid, run, sample,
                    time_step_rule)
from sobrlw.scheme import make_time_grid
from sobrlw.stencils import Axis

from _oracles import constrained_2d_solve, directional_coeffs

CFG_COUPLED = SchemeConfig()
CFG_SPLIT = SchemeConfig(stepper="split")


def zero_problem():
    z = lambda X, Y, t: np.zeros_like(np.asarray(X, dtype=float))
    return ProblemSpec(name="zero", alpha=1.0, beta=0.0, gamma=1.0,
                       f1=lambda X, Y, t, U, UX: 0.0 * U,
                       f2=lambda X, Y, t, U, UY: 0.0 * U,
                       u0=lambda X, Y: np.zeros_like(np.asarray(X, float)),
                       g=z, exact=z)


def constant_problem(c=0.7):
    const = lambda X, Y, t: c + 0.0 * np.asarray(X, dtype=float)
    return ProblemSpec(name="const", alpha=1.0, beta=0.0, gamma=0.0,
                       f1=lambda X, Y, t, U, UX: 0.0 * U,
                       f2=lambda X, Y, t, U, UY: 0.0 * U,
                       u0=lambda X, Y: c + 0.0 * np.asarray(X, float),
                       g=const, exact=const)


def linear_source_problem(rng):
    """Random coefficients, random smooth sources independent of u."""
    alpha = float(rng.uniform(0.05, 1.0))
    beta = float(rng.uniform(0.0, 1.0))
    gamma = float(rng.uniform(0.0, 1.0))
    a1, b1, a2, b2 = rng.uniform(-1, 1, 4)

    def exact(X, Y, t):
        return np.exp(-0.5 * t) * np.sin(np.pi * X) * np.sin(np.pi * Y) \
            + 0.1 * np.asarray(X, float) * Y * (1 + t)

    return ProblemSpec(
        name="linear", alpha=alpha, beta=beta, gamma=gamma,
        f1=lambda X, Y, t, U, UX: a1 * np.sin(np.pi * X) * np.cos(2 * t) + b1 * Y,
        f2=lambda X, Y, t, U, UY: a2 * np.cos(np.pi * Y) * np.sin(t) + b2 * X,
        u0=lambda X, Y: exact(X, Y, 0.0), g=exact, exact=exact)


# --------------------------------------------------------------------------
# time step rule


def test_time_step_rule_power_of_two():
    k_raw = time_step_rule(0.125, 0.125)
    assert abs(k_raw - 0.0625) < 1e-15
    tg = make_time_grid(1.0, k_raw)
    assert tg.N == 16 and tg.k == 0.0625


def test_time_step_rule_rounding():
    k_raw = time_step_rule(0.5, 0.5)
    assert abs(k_raw - 0.3968502629920499) < 1e-12
    tg = make_time_grid(1.0, k_raw)
    assert tg.N == 3
    assert abs(tg.k - 1.0 / 3.0) < 1e-15


@pytest.mark.parametrize("T, k", [(float("nan"), 0.1), (float("inf"), 0.1),
                                  (1.0, float("nan")), (1.0, float("inf"))],
                         ids=["T-nan", "T-inf", "k-nan", "k-inf"])
def test_make_time_grid_rejects_non_finite(T, k):
    # k = inf used to round to a single step of size T
    with pytest.raises(ConfigurationError):
        make_time_grid(T, k)


def test_time_step_rule_takes_min():
    assert abs(time_step_rule(0.25, 0.125) - 0.0625) < 1e-15
    assert abs(time_step_rule(0.125, 0.25) - 0.0625) < 1e-15


# --------------------------------------------------------------------------
# boundary layers


def test_fill_layers_paper_copy_zero_g():
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((9, 9))
    out = fill_boundary_layers(vals, 0.3, p, g, "paper_copy")
    for l in (0, 1, 7, 8):
        assert np.all(out[l, :] == 0.0)
        assert np.all(out[:, l] == 0.0)
    assert np.array_equal(out[2:7, 2:7], vals[2:7, 2:7])


def test_fill_layers_exact_mode():
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    out = fill_boundary_layers(np.zeros((9, 9)), 0.0, p, g, "exact")
    want = np.sin(np.pi * g.hx) * np.sin(np.pi * g.y(3))
    assert abs(out[1, 3] - want) < 1e-15


def test_fill_layers_zero_problem_both_modes():
    p = zero_problem()
    g = make_grid(0, 1, 0, 1, 8)
    for mode in ("exact", "paper_copy"):
        out = fill_boundary_layers(np.zeros((9, 9)), 0.5, p, g, mode)
        assert np.all(out == 0.0)


def test_fill_layers_exact_requires_reference_or_extension():
    p = example1()
    blind = ProblemSpec(name="blind", alpha=1.0, beta=0.0, gamma=1.0,
                        f1=p.f1, f2=p.f2, u0=p.u0, g=p.g, exact=None,
                        g_extends=False)
    g = make_grid(0, 1, 0, 1, 8)
    with pytest.raises(ConfigurationError):
        fill_boundary_layers(np.zeros((9, 9)), 0.0, blind, g, "exact")


# --------------------------------------------------------------------------
# exact invariances


@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
def test_zero_problem_stays_zero(cfg):
    p = zero_problem()
    g = make_grid(0, 1, 0, 1, 6)
    rec = run(p, g, cfg)
    assert not rec.failed
    assert rec.sup_U == 0.0
    assert np.all(rec.final.values == 0.0)


@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
def test_constant_preserved(cfg):
    p = constant_problem(0.7)
    g = make_grid(0, 1, 0, 1, 6)
    rec = run(p, g, cfg)
    assert not rec.failed
    assert np.abs(rec.final.values - 0.7).max() <= 1e-13


# --------------------------------------------------------------------------
# dense constrained-system oracles for the sub-steps (M = 6, linear sources,
# on the unit square and on a rectangle with hx != hy).  At M = 6 every line
# system is 3 x 3, so the coupled steps are also checked at M = 16, where a
# wrong band or mode layout of the coupled solve shows.

_SEEDS = [(seed, 1.0) for seed in range(3)] + [(seed, 0.6) for seed in range(3)]
_SEED_IDS = [str(seed) for seed in range(3)] + [f"rect-{seed}" for seed in range(3)]
SEEDS_SQUARE_AND_RECT = pytest.mark.parametrize("seed, L4", _SEEDS, ids=_SEED_IDS)


def with_leapfrog_alpha(argnames, cases, ids):
    """The cases with leapfrog_alpha "on" under their ids, then with "off"."""
    return pytest.mark.parametrize(
        argnames + ", leapfrog_alpha",
        [c + ("on",) for c in cases] + [c + ("off",) for c in cases],
        ids=ids + [f"off-{i}" for i in ids])


def mass_alpha(p, leapfrog_alpha):
    """alpha of the three-level mass operator: 1.0 with leapfrog_alpha off."""
    if leapfrog_alpha == "on":
        return p.alpha
    assert p.alpha < 1.0    # else "off" would not change the operator
    return 1.0


SPLIT_LEAPFROG_CASES = with_leapfrog_alpha("seed, L4", _SEEDS, _SEED_IDS)
COUPLED_CASES = with_leapfrog_alpha(
    "seed, L4, M", [(seed, L4, 6) for seed, L4 in _SEEDS] + [(0, 1.0, 16), (0, 0.6, 16)],
    _SEED_IDS + ["M16-0", "M16-rect-0"])


def fill_frame_dense(p, grid, t):
    X, Y = grid.mesh()
    return np.asarray(p.exact(X, Y, t), float)


@SEEDS_SQUARE_AND_RECT
def test_split_init_half_step_matches_dense(seed, L4):
    rng = np.random.default_rng(seed)
    p = linear_source_problem(rng)
    M = 6
    g = make_grid(0, 1, 0, L4, M)
    k = 1.0 / 8.0
    X, Y = g.mesh()
    U0 = sample(g, lambda X_, Y_, t_: p.u0(X_, Y_))
    got = init_half_step(U0, p, k, CFG_SPLIT)

    cx = directional_coeffs(g.hx, p.alpha, p.beta, p.gamma, k / 4)
    crx = directional_coeffs(g.hx, p.alpha, p.beta, p.gamma, -k / 4)
    rhs = np.zeros((M + 1, M + 1))
    s = slice(2, M - 1)
    ident = U0.values[s, s]
    dirx = sum(crx[o + 2] * U0.values[2 + o:M - 1 + o, s] for o in range(-2, 3))
    f_avg = (np.asarray(p.f1(X, Y, k / 4 * 2, None, None), float)[s, s]
             + np.asarray(p.f1(X, Y, 0.0, None, None), float)[s, s])
    rhs[s, s] = ident + dirx + (k / 4) * f_avg
    frame = fill_frame_dense(p, g, k / 2)
    ref = constrained_2d_solve(M, cx, np.zeros(5), rhs, frame)
    assert np.abs(got.values - ref).max() <= 1e-11


@SEEDS_SQUARE_AND_RECT
def test_split_cn_y_step_matches_dense(seed, L4):
    rng = np.random.default_rng(100 + seed)
    p = linear_source_problem(rng)
    M = 6
    g = make_grid(0, 1, 0, L4, M)
    k = 1.0 / 8.0
    t0 = 0.25
    X, Y = g.mesh()
    U_from = Field(g, np.asarray(p.exact(X, Y, t0), float))
    got = cn_y_step(U_from, t0, k, p, CFG_SPLIT)

    cy = directional_coeffs(g.hy, p.alpha, p.beta, p.gamma, k / 4)
    cry = directional_coeffs(g.hy, p.alpha, p.beta, p.gamma, -k / 4)
    s = slice(2, M - 1)
    rhs = np.zeros((M + 1, M + 1))
    diry = sum(cry[o + 2] * U_from.values[s, 2 + o:M - 1 + o] for o in range(-2, 3))
    f_avg = (np.asarray(p.f2(X, Y, t0 + k / 2, None, None), float)[s, s]
             + np.asarray(p.f2(X, Y, t0, None, None), float)[s, s])
    rhs[s, s] = U_from.values[s, s] + diry + (k / 4) * f_avg
    frame = fill_frame_dense(p, g, t0 + k / 2)
    ref = constrained_2d_solve(M, np.zeros(5), cy, rhs, frame)
    assert np.abs(got.values - ref).max() <= 1e-11


@SPLIT_LEAPFROG_CASES
def test_split_leapfrog_matches_dense(seed, L4, leapfrog_alpha):
    rng = np.random.default_rng(200 + seed)
    p = linear_source_problem(rng)
    M = 6
    g = make_grid(0, 1, 0, L4, M)
    k = 1.0 / 8.0
    t_n = 0.5
    X, Y = g.mesh()
    U_prev = Field(g, np.asarray(p.exact(X, Y, t_n - k / 2), float))
    U_mid = Field(g, np.asarray(p.exact(X, Y, t_n), float))
    got = leapfrog_x_step(U_prev, U_mid, t_n, k, p,
                          SchemeConfig(stepper="split", leapfrog_alpha=leapfrog_alpha))

    cx = directional_coeffs(g.hx, mass_alpha(p, leapfrog_alpha), 0.0, 0.0, 0.0)
    c_mid = -directional_coeffs(g.hx, 0.0, p.beta, p.gamma, 1.0)
    s = slice(2, M - 1)
    rhs = np.zeros((M + 1, M + 1))
    base = U_prev.values[s, s] + sum(
        cx[o + 2] * U_prev.values[2 + o:M - 1 + o, s] for o in range(-2, 3))
    mid = sum(c_mid[o + 2] * U_mid.values[2 + o:M - 1 + o, s] for o in range(-2, 3))
    fmid = np.asarray(p.f1(X, Y, t_n, None, None), float)[s, s]
    rhs[s, s] = base + k * mid + k * fmid
    frame = fill_frame_dense(p, g, t_n + k / 2)
    ref = constrained_2d_solve(M, cx, np.zeros(5), rhs, frame)
    assert np.abs(got.values - ref).max() <= 1e-11


@COUPLED_CASES
def test_coupled_startup_matches_dense(seed, L4, M, leapfrog_alpha):
    rng = np.random.default_rng(300 + seed)
    p = linear_source_problem(rng)
    g = make_grid(0, 1, 0, L4, M)
    k = 1.0 / 8.0
    X, Y = g.mesh()
    U0 = sample(g, lambda X_, Y_, t_: p.u0(X_, Y_))
    got = init_half_step(U0, p, k, SchemeConfig(leapfrog_alpha=leapfrog_alpha))

    a = mass_alpha(p, leapfrog_alpha)
    cx = directional_coeffs(g.hx, a, p.beta, p.gamma, k / 4)
    cy = directional_coeffs(g.hy, a, p.beta, p.gamma, k / 4)
    crx = directional_coeffs(g.hx, a, p.beta, p.gamma, -k / 4)
    cry = directional_coeffs(g.hy, a, p.beta, p.gamma, -k / 4)
    s = slice(2, M - 1)
    rhs = np.zeros((M + 1, M + 1))
    both = (sum(crx[o + 2] * U0.values[2 + o:M - 1 + o, s] for o in range(-2, 3))
            + sum(cry[o + 2] * U0.values[s, 2 + o:M - 1 + o] for o in range(-2, 3)))
    f_avg = (np.asarray(p.f1(X, Y, k / 2, None, None), float)[s, s]
             + np.asarray(p.f2(X, Y, k / 2, None, None), float)[s, s]
             + np.asarray(p.f1(X, Y, 0.0, None, None), float)[s, s]
             + np.asarray(p.f2(X, Y, 0.0, None, None), float)[s, s])
    rhs[s, s] = U0.values[s, s] + both + (k / 4) * f_avg
    frame = fill_frame_dense(p, g, k / 2)
    ref = constrained_2d_solve(M, cx, cy, rhs, frame)
    assert np.abs(got.values - ref).max() <= 1e-11


@COUPLED_CASES
def test_coupled_chain_step_matches_dense(seed, L4, M, leapfrog_alpha):
    rng = np.random.default_rng(400 + seed)
    p = linear_source_problem(rng)
    g = make_grid(0, 1, 0, L4, M)
    k = 1.0 / 8.0
    t_n = 0.5
    X, Y = g.mesh()
    U_prev = Field(g, np.asarray(p.exact(X, Y, t_n - k / 2), float))
    U_mid = Field(g, np.asarray(p.exact(X, Y, t_n), float))
    state = SchemeState(n=int(round(t_n / k)), U_half=U_prev, U_int=U_mid)
    # advance performs two chain steps; replicate both with the dense oracle
    nxt = advance(state, p, k, SchemeConfig(leapfrog_alpha=leapfrog_alpha))

    a = mass_alpha(p, leapfrog_alpha)
    cx = directional_coeffs(g.hx, a, p.beta, p.gamma, k / 2)
    cy = directional_coeffs(g.hy, a, p.beta, p.gamma, k / 2)
    crx = directional_coeffs(g.hx, a, p.beta, p.gamma, -k / 2)
    cry = directional_coeffs(g.hy, a, p.beta, p.gamma, -k / 2)
    s = slice(2, M - 1)

    def chain_dense(base, mid, t_mid):
        rhs = np.zeros((M + 1, M + 1))
        both = (sum(crx[o + 2] * base[2 + o:M - 1 + o, s] for o in range(-2, 3))
                + sum(cry[o + 2] * base[s, 2 + o:M - 1 + o] for o in range(-2, 3)))
        ftot = (np.asarray(p.f1(X, Y, t_mid, None, None), float)
                + np.asarray(p.f2(X, Y, t_mid, None, None), float))[s, s]
        rhs[s, s] = base[s, s] + both + k * ftot
        frame = fill_frame_dense(p, g, t_mid + k / 2)
        return constrained_2d_solve(M, cx, cy, rhs, frame)

    ref_half = chain_dense(U_prev.values, U_mid.values, t_n)
    ref_int = chain_dense(U_mid.values, ref_half, t_n + k / 2)
    assert np.abs(nxt.U_half.values - ref_half).max() <= 1e-11
    assert np.abs(nxt.U_int.values - ref_int).max() <= 1e-11
    assert nxt.n == state.n + 1


def test_advance_split_equals_manual_composition():
    p = example1()
    M = 8
    g = make_grid(0, 1, 0, 1, M)
    k = 1.0 / 16.0
    X, Y = g.mesh()
    U_prev = Field(g, np.asarray(p.exact(X, Y, 0.5 - k / 2), float))
    U_mid = Field(g, np.asarray(p.exact(X, Y, 0.5), float))
    state = SchemeState(n=8, U_half=U_prev, U_int=U_mid)
    nxt = advance(state, p, k, CFG_SPLIT)
    half = leapfrog_x_step(U_prev, U_mid, 0.5, k, p, CFG_SPLIT)
    integer = cn_y_step(half, 0.5 + k / 2, k, p, CFG_SPLIT)
    assert np.array_equal(nxt.U_half.values, half.values)
    assert np.array_equal(nxt.U_int.values, integer.values)


# --------------------------------------------------------------------------
# behavior on the first benchmark


@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
def test_init_half_step_accuracy(cfg):
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    k = time_step_rule(g.hx, g.hy)
    U0 = sample(g, lambda X, Y, t: p.u0(X, Y))
    U_half = init_half_step(U0, p, k, cfg)
    X, Y = g.mesh()
    err = Field(g, np.asarray(p.exact(X, Y, k / 2), float) - U_half.values)
    assert l2_norm(err) < 0.05


def test_run_example1_bounded():
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    rec = run(p, g, CFG_COUPLED)
    assert not rec.failed
    assert all(v <= 0.55 for v in rec.l2_U)
    assert rec.sup_U <= 0.55
    assert rec.N == 16 and abs(rec.k - 0.0625) < 1e-15


def test_run_coupled_converges_on_trig_problem():
    p = example1()
    errs = []
    for M in (8, 16):
        g = make_grid(0, 1, 0, 1, M)
        rec = run(p, g, CFG_COUPLED)
        errs.append(rec.sup_err)
    assert errs[0] < 1e-4 and errs[1] < errs[0]


def test_cn_x_step_is_x_direction_twin():
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    k = 1.0 / 16.0
    X, Y = g.mesh()
    U = Field(g, np.asarray(p.exact(X, Y, 0.25), float))
    # on a symmetric problem and symmetric state, the x- and y-direction
    # trapezoid steps agree up to transposition
    out_x = cn_x_step(U, 0.25, k, p, CFG_SPLIT)
    out_y = cn_y_step(U, 0.25, k, p, CFG_SPLIT)
    assert np.abs(out_x.values - out_y.values.T).max() <= 1e-12


def test_picard_divergence_reports_trace():
    p = example1()
    stiff = ProblemSpec(name="stiff", alpha=1.0, beta=0.0, gamma=1.0,
                        f1=lambda X, Y, t, U, UX: 1e6 * U,
                        f2=lambda X, Y, t, U, UY: 1e6 * U,
                        u0=p.u0, g=p.g, exact=p.exact)
    g = make_grid(0, 1, 0, 1, 8)
    U0 = sample(g, lambda X, Y, t: stiff.u0(X, Y))
    with pytest.raises(PicardError) as exc:
        init_half_step(U0, stiff, 0.0625, CFG_COUPLED)
    assert len(exc.value.trace) > 0


def test_blow_up_guard_reports_level():
    p = example1()
    g = make_grid(0, 1, 0, 1, 6)
    huge = Field(g, np.full((7, 7), 1e200))
    quad = ProblemSpec(name="quad", alpha=1.0, beta=0.0, gamma=1.0,
                       f1=lambda X, Y, t, U, UX: U * U,
                       f2=lambda X, Y, t, U, UY: U * U,
                       u0=p.u0, g=p.g, exact=p.exact)
    with pytest.raises(BlowUpError) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            leapfrog_x_step(huge, huge, 0.5, 0.125, quad, CFG_SPLIT)
    assert exc.value.level is not None


def test_run_returns_partial_record_on_failure():
    p = example1()
    stiff = ProblemSpec(name="stiff", alpha=1.0, beta=0.0, gamma=1.0,
                        f1=lambda X, Y, t, U, UX: 1e6 * U,
                        f2=lambda X, Y, t, U, UY: 1e6 * U,
                        u0=p.u0, g=p.g, exact=p.exact)
    g = make_grid(0, 1, 0, 1, 6)
    rec = run(stiff, g, CFG_COUPLED)
    assert rec.failed
    assert "PicardError" in rec.failure
    assert rec.times  # level 0 was still observed


def test_picard_iterations_modest_on_benchmark():
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    rec = run(p, g, CFG_COUPLED)
    assert max(rec.diagnostics.picard_iterations) <= 10
