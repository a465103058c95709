from dataclasses import replace

import numpy as np
import pytest

from sobrlw import (BlowUpError, ConfigurationError, Field, PicardError,
                    ProblemSpec, SchemeConfig, SchemeState, advance,
                    cn_x_step, cn_y_step, example1, example2, example3,
                    fill_boundary_layers, get_problem, init_half_step,
                    l2_norm, leapfrog_x_step, make_grid, manufactured, run,
                    sample, time_step_rule)
from sobrlw import penta, scheme
from sobrlw.harness import random_frame_vanishing
from sobrlw.problems import MANUFACTURED_PRESETS
from sobrlw.scheme import make_time_grid
from sobrlw.stencils import Axis

from _oracles import (OBSERVED_SERIES, constrained_2d_solve,
                      directional_coeffs, mesh_fill_boundary_layers,
                      per_field_observe)

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


def _trig_rect():
    return manufactured(0.6, 0.5, 0.7, MANUFACTURED_PRESETS["trig"],
                        name="manufactured:trig", bounds=(0.0, 1.0, 0.0, 0.6))


@pytest.mark.parametrize("make", [example1, example2, example3, _trig_rect],
                         ids=["example1", "example2", "example3", "trig-rect"])
@pytest.mark.parametrize("mode", ["exact", "paper_copy"])
def test_fill_on_open_coordinates_is_bitwise_the_mesh_fill(make, mode):
    # the reference (or g) is called on a coordinate column and row and
    # broadcast; an elementwise reference gives the floats of the full mesh
    p = make()
    rng = np.random.default_rng(4)
    for M in (4, 9, 16):
        g = make_grid(p.L1, p.L2, p.L3, p.L4, M)
        vals = rng.standard_normal((M + 1, M + 1))
        for t in (0.0, 0.37, 1.0):
            out = fill_boundary_layers(vals, t, p, g, mode)
            assert out.tobytes() == mesh_fill_boundary_layers(vals, t, p, g, mode).tobytes()


# --------------------------------------------------------------------------
# frame and sources on the cells that read them


@pytest.mark.parametrize("coeffs", [(0.6, 0.5, 0.7), (0.001, -1.0, -1.0)],
                         ids=["trig-rect", "alpha+theta*gamma<0"])
@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
@pytest.mark.parametrize("L4", [1.0, 0.6], ids=["square", "rect"])
@pytest.mark.parametrize("M", range(4, 10))
def test_frame_strips_are_bitwise_the_full_stencil_sums(M, L4, cfg, coeffs):
    # layers random, zero or negative zero; the interior of U is random and
    # must not be read
    p = manufactured(*coeffs, MANUFACTURED_PRESETS["trig"], bounds=(0.0, 1.0, 0.0, L4))
    g = make_grid(0.0, 1.0, 0.0, L4, M)
    eng = scheme._engine(p, g, cfg, time_step_rule(g.hx, g.hy))
    rng = np.random.default_rng(M)
    s = g.interior
    for op in eng._ops.values():
        for layers in (rng.standard_normal((M + 1, M + 1)), np.zeros((M + 1, M + 1)),
                       np.full((M + 1, M + 1), -0.0)):
            U = layers.copy()
            U[s, s] = rng.standard_normal((M - 3, M - 3))
            frame = layers.copy()
            frame[s, s] = 0.0
            moved = eng._frame_moved(U, *op.lhs)
            assert moved.tobytes() == eng._apply(frame, *op.lhs).tobytes()


@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
def test_sources_receive_interior_blocks(cfg):
    # f1 and f2 are read on the interior only, so they are handed the open
    # interior coordinates, the interior of U and of its wide derivative
    p, seen = example3(), []

    def recording(f):
        def wrapper(X, Y, t, U, UZ):
            seen.append((X, Y, U, UZ))
            return f(X, Y, t, U, UZ)
        return wrapper

    g = make_grid(p.L1, p.L2, p.L3, p.L4, 9)
    rec = run(replace(p, f1=recording(p.f1), f2=recording(p.f2)), g, cfg)
    assert not rec.failed and seen
    X, Y = g.open_mesh()
    s, n = g.interior, g.n_interior
    for X_, Y_, U, UZ in seen:
        assert np.shape(X_) == (n, 1) and X_.tobytes() == X[s].tobytes()
        assert np.shape(Y_) == (1, n) and Y_.tobytes() == Y[:, s].tobytes()
        assert np.shape(U) == np.shape(UZ) == (n, n)


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


def free_problem(rng, grid, gamma):
    """f = 0, g = 0 and no reference; seeded alpha, beta and a random
    frame-vanishing initial state."""
    U0 = random_frame_vanishing(grid, rng).values
    z = lambda X, Y, t: np.zeros(np.shape(X))
    return ProblemSpec(name="free", alpha=float(rng.uniform(0.2, 1.0)),
                       beta=float(rng.uniform(-1.0, 1.0)), gamma=gamma,
                       f1=lambda X, Y, t, U, UX: np.zeros_like(U),
                       f2=lambda X, Y, t, U, UY: np.zeros_like(U),
                       u0=lambda X, Y: U0, g=z, exact=None,
                       L2=grid.L2, L4=grid.L4)


ENERGY_GRIDS = pytest.mark.parametrize(
    "seed, grid", [(seed, g) for seed in range(3) for g in
                   (make_grid(0, 1, 0, 1, 12), make_grid(0, 1, 0, 0.6, 16))],
    ids=[f"{seed}-{name}" for seed in range(3) for name in ("square", "rect")])


@ENERGY_GRIDS
def test_coupled_run_conserves_the_energy_without_dissipation(seed, grid):
    # with gamma = 0, f = 0 and a zero frame, each trapezoid keeps
    # ((I - alpha Lap4) U, U) = h2_norm(U)^2 exactly (the skew transport
    # part drops out by summation by parts), so every level keeps level 0's
    p = free_problem(np.random.default_rng(seed), grid, gamma=0.0)
    rec = run(p, grid, CFG_COUPLED, T=0.5)
    assert not rec.failed and len(rec.h2_U) == rec.N + 1 >= 14
    e0 = rec.h2_U[0] ** 2
    assert max(abs(h ** 2 - e0) for h in rec.h2_U) <= 1e-12 * e0
    assert not np.allclose(rec.final.values, p.u0(None, None))    # it moved


@ENERGY_GRIDS
def test_coupled_run_energy_never_increases_with_dissipation(seed, grid):
    rng = np.random.default_rng(seed)
    p = free_problem(rng, grid, gamma=float(rng.uniform(0.2, 1.0)))
    rec = run(p, grid, CFG_COUPLED, T=0.5)
    energy = [h ** 2 for h in rec.h2_U]
    assert not rec.failed and len(energy) == rec.N + 1
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energy, energy[1:]))
    assert energy[-1] < 0.9 * energy[0]


def test_sups_are_read_only_maxima_of_the_level_series():
    g = make_grid(0, 1, 0, 1, 8)
    rec = run(example3(), g, CFG_COUPLED)
    for name in ("u", "U", "err"):
        for norm in ("l2", "h2"):
            series = getattr(rec, f"{norm}_{name}")
            sup = getattr(rec, f"sup_{name}" if norm == "l2" else f"sup_h2_{name}")
            assert len(series) == rec.N + 1 and sup == max(series) > 0.0
    with pytest.raises(AttributeError):
        rec.sup_U = 1.0
    # without a reference the u and error series stay empty, their sups 0.0
    free = run(free_problem(np.random.default_rng(0), g, 1.0), g, CFG_COUPLED)
    assert free.l2_u == free.h2_err == [] and free.sup_u == free.sup_h2_err == 0.0
    assert free.sup_h2_U == max(free.h2_U) > 0.0


@pytest.mark.parametrize("make, cfg", [
    (example1, CFG_COUPLED),
    (example1, CFG_SPLIT),
    (_trig_rect, CFG_COUPLED),
    (lambda: replace(example1(), exact=None), SchemeConfig(boundary_mode="paper_copy")),
], ids=["example1-coupled", "example1-split", "trig-rect", "no-reference"])
def test_observed_series_are_bitwise_the_per_field_norms(make, cfg):
    # run() observes U, u and u - U in one stacked norm pass per level; every
    # level, captured through dump_times, must give the per-field norms' bits
    p = make()
    g = make_grid(p.L1, p.L2, p.L3, p.L4, 16)
    tg = scheme.resolve_time_grid(g, cfg, p.T)
    rec = run(p, g, cfg, dump_times=[n * tg.k for n in range(tg.N + 1)])
    assert not rec.failed and len(rec.snapshots) == len(rec.times) == tg.N + 1
    want = per_field_observe(p, [rec.snapshots[t] for t in sorted(rec.snapshots)])
    for name in OBSERVED_SERIES:
        got = getattr(rec, name)
        assert [x.hex() for x in got] == [x.hex() for x in want[name]], name
    assert (p.exact is None) == (rec.l2_u == rec.h2_err == [])


def test_a_non_finite_reference_at_an_observed_level_is_a_configuration_error():
    # NaN at one interior node from t = 0.3 on: the boundary fill never reads
    # that node, so only the observation sees it, and it must not turn into
    # NaN norms; the error names the first level observed from then on
    # (k = 1/16 at M = 8)
    base = example1()

    def exact(X, Y, t):
        return np.where((X == 0.5) & (Y == 0.5) & (t >= 0.3), np.nan, base.exact(X, Y, t))

    with pytest.raises(ConfigurationError, match=r"non-finite .*t=0\.3125$"):
        run(replace(base, exact=exact), make_grid(0, 1, 0, 1, 8))


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
# system is 3 x 3, so the outer bands enter only two entries; every sub-step
# is also checked at M = 16, where a wrong band or mode layout shows.

_SEEDS = [(seed, 1.0) for seed in range(3)] + [(seed, 0.6) for seed in range(3)]
_SEED_IDS = [str(seed) for seed in range(3)] + [f"rect-{seed}" for seed in range(3)]
_CASES = [(seed, L4, 6) for seed, L4 in _SEEDS] + [(0, 1.0, 16), (0, 0.6, 16)]
_CASE_IDS = _SEED_IDS + ["M16-0", "M16-rect-0"]
SQUARE_AND_RECT_CASES = pytest.mark.parametrize("seed, L4, M", _CASES, ids=_CASE_IDS)


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


LEAPFROG_ALPHA_CASES = with_leapfrog_alpha("seed, L4, M", _CASES, _CASE_IDS)


def fill_frame_dense(p, grid, t):
    X, Y = grid.mesh()
    return np.asarray(p.exact(X, Y, t), float)


@SQUARE_AND_RECT_CASES
def test_split_init_half_step_matches_dense(seed, L4, M):
    rng = np.random.default_rng(seed)
    p = linear_source_problem(rng)
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


@SQUARE_AND_RECT_CASES
def test_split_cn_y_step_matches_dense(seed, L4, M):
    rng = np.random.default_rng(100 + seed)
    p = linear_source_problem(rng)
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


@LEAPFROG_ALPHA_CASES
def test_split_leapfrog_matches_dense(seed, L4, M, leapfrog_alpha):
    rng = np.random.default_rng(200 + seed)
    p = linear_source_problem(rng)
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


@LEAPFROG_ALPHA_CASES
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


@LEAPFROG_ALPHA_CASES
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


@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
def test_non_finite_right_hand_side_is_caught_before_the_solve(cfg):
    p = example1()
    g = make_grid(0, 1, 0, 1, 6)
    quad = replace(p, name="quad", f1=lambda X, Y, t, U, UX: U * U,
                   f2=lambda X, Y, t, U, UY: U * U)
    with pytest.raises(BlowUpError, match="right-hand side at t=0.0625") as exc:
        with np.errstate(over="ignore"):    # the source itself overflows
            init_half_step(Field(g, np.full((7, 7), 1e200)), quad, 0.125, cfg)
    assert exc.value.level == 0.0625


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


def sech2_wave(alpha):
    """example3()'s equation at this alpha with its exact sech^2 wave
    (speed 1; derived in test_acceptance.example3_wave)."""
    p = replace(example3(), alpha=alpha)
    kappa = np.sqrt((1.0 - 2.0 * p.beta) / (8.0 * alpha))
    amp = 12.0 * alpha * kappa ** 2

    def wave(X, Y, t):
        return amp / np.cosh(kappa * (X + Y - t)) ** 2

    return replace(p, name="sech2-wave", u0=lambda X, Y: wave(X, Y, 0.0),
                   g=wave, exact=wave)


def test_blow_up_is_named_at_its_level_before_any_overflow():
    # at alpha = 0.25 the wave is unstable at k = 1: |U| squares from level
    # to level (l2 ~ 4e18 at t = 6, 9e72 at t = 7).  Under the suite's
    # warnings-as-errors, any numpy overflow on the way would escape run()
    p = sech2_wave(0.25)
    rec = run(p, make_grid(p.L1, p.L2, p.L3, p.L4, 16),
              SchemeConfig(k_rule=1.0), T=16.0)
    assert rec.failed and rec.final is None
    assert rec.failure.startswith("BlowUpError") and "t=7.5" in rec.failure
    assert rec.times == [float(n) for n in range(8)]
    assert rec.sup_U == rec.l2_U[-1] > 1e70 and np.isfinite(rec.h2_err).all()


@pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_SPLIT], ids=["coupled", "split"])
def test_recorded_counts_are_the_solves_made(cfg, monkeypatch):
    # one count per sub-step, and each is the number of linear solves: the
    # coupled solver's solve, or one split line solve
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(penta.TensorLineSolver, "solve", counted(penta.TensorLineSolver.solve))
    monkeypatch.setattr(scheme, "solve_line", counted(scheme.solve_line))
    p = example3()
    rec = run(p, make_grid(p.L1, p.L2, p.L3, p.L4, 8), cfg)
    its = rec.diagnostics.picard_iterations
    assert not rec.failed and len(its) == 2 * rec.N
    assert sum(its) == len(calls)
    assert its[2::2] == [1] * (rec.N - 1)     # every half-level: one direct solve


def test_picard_iterations_modest_on_benchmark():
    p = example1()
    g = make_grid(0, 1, 0, 1, 8)
    rec = run(p, g, CFG_COUPLED)
    assert max(rec.diagnostics.picard_iterations) <= 10


@pytest.mark.parametrize("make, M", [
    (example3, 16),
    (lambda: get_problem("manufactured:trig", 0.001, 1.0, 0.0), 8),
    (lambda: get_problem("manufactured:trig", 0.001, -1.0, 0.0), 8),
], ids=["example3", "trig-beta+1", "trig-beta-1"])
def test_transport_chain_steps_are_one_direct_solve(make, M):
    # beta != 0: the whole x-operator is diagonalized, so no chain step
    # iterates; the first entry is the startup's implicit source iteration
    p = make()
    rec = run(p, make_grid(p.L1, p.L2, p.L3, p.L4, M), CFG_COUPLED)
    its = rec.diagnostics.picard_iterations
    assert not rec.failed and len(its) == 2 * rec.N
    assert its[1:] == [1] * (2 * rec.N - 1)
