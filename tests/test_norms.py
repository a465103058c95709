import numpy as np
import pytest

from sobrlw import (Axis, ConfigurationError, Field, FrameError,
                    GridMismatchError, NormReport, directional_energy,
                    h2_norm, inner, l2_norm, make_grid, sample, sbp_residuals)
from sobrlw.harness import random_frame_vanishing

from _oracles import (loop_directional_energy, loop_h2_sq, loop_inner_diff,
                      loop_l2_norm, per_field_blocks, per_field_norm_report)

# the unit square, and a rectangle whose hx = 0.2 and hy = 0.17 differ
SQUARE_AND_RECT = (make_grid(0, 1, 0, 1, 10), make_grid(0, 2, -1, 0.7, 10))


def test_l2_ones_field_counts_interior():
    g = make_grid(0, 1, 0, 1, 8)
    f = Field(g, np.ones((9, 9)))
    # interior is (M-3)^2 = 25 nodes: h * sqrt(25) = 0.625
    assert abs(l2_norm(f) - 0.625) < 1e-15


def test_l2_zero():
    g = make_grid(0, 1, 0, 1, 8)
    assert l2_norm(Field(g, np.zeros((9, 9)))) == 0.0


def test_l2_sine_product_near_half():
    g = make_grid(0, 1, 0, 1, 32)
    f = sample(g, lambda X, Y, t: np.sin(np.pi * X) * np.sin(np.pi * Y))
    # continuum L2 norm is exactly 1/2; interior-only sum omits thin strips
    assert abs(l2_norm(f) - 0.5) < 0.02


def test_l2_matches_loop_oracle():
    rng = np.random.default_rng(0)
    g = make_grid(0, 2, -1, 1, 10)
    f = Field(g, rng.standard_normal((11, 11)))
    assert abs(l2_norm(f) - loop_l2_norm(f.values, g.hx, g.hy, 10)) < 1e-14


def test_inner_plain_is_l2_squared():
    rng = np.random.default_rng(1)
    g = make_grid(0, 1, 0, 1, 9)
    f = Field(g, rng.standard_normal((10, 10)))
    assert abs(inner(f, f, "plain") - l2_norm(f) ** 2) < 1e-13


def test_inner_with_zero():
    rng = np.random.default_rng(2)
    g = make_grid(0, 1, 0, 1, 9)
    z = Field(g, np.zeros((10, 10)))
    v = Field(g, rng.standard_normal((10, 10)))
    for variant in ("plain", "half_x", "half_y", "second_x", "second_y",
                    "wide1_x", "wide1_y", "wide2_x", "wide2_y"):
        assert inner(z, v, variant) == 0.0


def test_inner_rejects_grid_mismatch_and_bad_variant():
    g1 = make_grid(0, 1, 0, 1, 8)
    g2 = make_grid(0, 1, 0, 1, 9)
    u = Field(g1, np.zeros((9, 9)))
    v = Field(g2, np.zeros((10, 10)))
    with pytest.raises(GridMismatchError):
        inner(u, v)
    with pytest.raises(ConfigurationError):
        inner(u, Field(g1, np.zeros((9, 9))), "bogus")


def test_wide_first_pairing_antisymmetric():
    rng = np.random.default_rng(3)
    g = make_grid(0, 1, 0, 1, 12)
    w = random_frame_vanishing(g, rng)
    v = random_frame_vanishing(g, rng)
    for z in ("x", "y"):
        a = inner(w, v, f"wide1_{z}")
        b = inner(v, w, f"wide1_{z}")
        assert abs(a + b) <= 1e-12 * (1.0 + abs(a))


def test_wide_second_pairing_identity():
    rng = np.random.default_rng(4)
    g = make_grid(0, 1, 0, 1, 12)
    w = random_frame_vanishing(g, rng)
    v = random_frame_vanishing(g, rng)
    for z, h in (("x", g.hx), ("y", g.hy)):
        lhs = inner(w, v, f"wide2_{z}")
        rhs = -inner(w, v, f"half_{z}") - h * h / 12.0 * inner(w, v, f"second_{z}")
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_h2_norm_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for g in SQUARE_AND_RECT:
        f = Field(g, rng.standard_normal((11, 11)))
        rep = h2_norm(f, alpha=0.8)
        want = loop_h2_sq(f.values, g.hx, g.hy, 10, 0.8)
        assert abs(rep.h2 ** 2 - want) <= 1e-14 * want


def _hex_report(rep):
    return {name: getattr(rep, name).hex() for name in NormReport.__dataclass_fields__}


@pytest.mark.parametrize("M", [4, 5, 9, 64, 128])
@pytest.mark.parametrize("L4", [1.0, 0.6], ids=["square", "rect"])
def test_stacked_h2_norm_is_bitwise_the_per_field_arithmetic(M, L4):
    # at M = 128 each field's blocks hold more than numpy's 8192-element
    # buffer; the one reduction over the stack must still sum each field's
    # block in np.sum's order
    rng = np.random.default_rng(M)
    g = make_grid(0, 1, 0, L4, M)
    f, u, e = (Field(g, rng.standard_normal((M + 1, M + 1))) for _ in range(3))
    stacked = h2_norm(f, 0.7, u, e)
    assert isinstance(stacked, tuple) and len(stacked) == 3
    for got, field in zip(stacked, (f, u, e)):
        want = {name: x.hex() for name, x in
                per_field_norm_report(field.values, g.hx, g.hy, M, 0.7).items()}
        assert _hex_report(got) == want
        assert _hex_report(h2_norm(field, 0.7)) == want
        assert l2_norm(field).hex() == want["l2"]
        loop = loop_h2_sq(field.values, g.hx, g.hy, M, 0.7)
        assert abs(got.h2 ** 2 - loop) <= 1e-14 * loop
    assert h2_norm(f, 0.7, f) == (h2_norm(f, 0.7),) * 2


@pytest.mark.parametrize("M", [5, 64, 128])
def test_energies_residuals_and_difference_inners_are_bitwise_the_per_field_arithmetic(M):
    # directional_energy, sbp_residuals and the half/second inner products
    # form their blocks with h2_norm's code; each must keep the bits of the
    # per-field arithmetic
    rng = np.random.default_rng(M + 1)
    g = make_grid(0, 1, 0, 0.6, M)
    w = random_frame_vanishing(g, rng)
    v = Field(g, rng.standard_normal((M + 1, M + 1)))
    rep = per_field_norm_report(w.values, g.hx, g.hy, M, 1.0)
    energy = {}
    for axis, z, h in ((Axis.X, "x", g.hx), (Axis.Y, "y", g.hy)):
        energy[z] = rep[f"half_{z}_sq"] + (h ** 2 / 12.0) * rep[f"second_{z}_sq"]
        want = rep["l2_sq"] + 0.9 * (rep[f"half_{z}_sq"] + (h * h / 12.0) * rep[f"second_{z}_sq"])
        assert directional_energy(w, axis, 0.9).hex() == want.hex()
    r = sbp_residuals(w)
    assert r.wide2_energy_x == abs(-inner(w, w, "wide2_x") - energy["x"])
    assert r.wide2_energy_y == abs(-inner(w, w, "wide2_y") - energy["y"])
    bw, bv = (per_field_blocks(x.values, g.hx, g.hy, M) for x in (w, v))
    for variant in ("half_x", "half_y", "second_x", "second_y"):
        want = float(g.hx * g.hy * np.sum(bw[variant] * bv[variant]))
        assert inner(w, v, variant).hex() == want.hex(), variant


def test_stacked_h2_norm_reports_fields_in_order():
    g = make_grid(0, 1, 0, 0.6, 9)
    f, u, e = (Field(g, v) for v in np.random.default_rng(3).standard_normal((3, 10, 10)))
    want = [_hex_report(h2_norm(x, 0.7)) for x in (f, u, e)]
    assert [_hex_report(r) for r in h2_norm(f, 0.7, u, e)] == want
    assert [_hex_report(r) for r in h2_norm(e, 0.7, u, f)] == want[::-1]


def test_stacked_h2_norm_rejects_a_field_on_another_grid():
    g = make_grid(0, 1, 0, 1, 8)
    f = Field(g, np.zeros((9, 9)))
    for other in (make_grid(0, 1, 0, 0.6, 8), make_grid(0, 1, 0, 1, 9)):
        with pytest.raises(GridMismatchError):
            h2_norm(f, 1.0, f, Field(other, np.zeros((other.M + 1,) * 2)))


def test_inner_difference_variants_match_loop_oracle():
    rng = np.random.default_rng(11)
    for g in SQUARE_AND_RECT:
        u = Field(g, rng.standard_normal((11, 11)))
        v = Field(g, rng.standard_normal((11, 11)))
        for variant in ("half_x", "half_y", "second_x", "second_y"):
            want = loop_inner_diff(u.values, v.values, g.hx, g.hy, 10, variant)
            got = inner(u, v, variant)
            assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (g.hy, variant)


def test_h2_norm_zero_field():
    g = make_grid(0, 1, 0, 1, 8)
    rep = h2_norm(Field(g, np.zeros((9, 9))), alpha=1.0)
    assert rep.l2 == rep.h2 == 0.0


def test_h2_report_internal_identity():
    rng = np.random.default_rng(6)
    g = make_grid(0, 1, 0, 1, 10)
    f = Field(g, rng.standard_normal((11, 11)))
    alpha = 0.6
    rep = h2_norm(f, alpha)
    recomputed = rep.l2_sq + alpha * (rep.half_x_sq + rep.half_y_sq
                                      + g.hx ** 2 / 12 * rep.second_x_sq
                                      + g.hy ** 2 / 12 * rep.second_y_sq)
    assert abs(rep.h2 ** 2 - recomputed) <= 1e-14 * recomputed


def test_h2_rejects_nonpositive_alpha():
    g = make_grid(0, 1, 0, 1, 8)
    with pytest.raises(ConfigurationError):
        h2_norm(Field(g, np.zeros((9, 9))), alpha=0.0)


def test_directional_energy_zero_and_oracle():
    rng = np.random.default_rng(7)
    for g in SQUARE_AND_RECT:
        assert directional_energy(Field(g, np.zeros((11, 11))), Axis.X, 1.0) == 0.0
        f = Field(g, rng.standard_normal((11, 11)))
        for axis, is_x in ((Axis.X, True), (Axis.Y, False)):
            want = loop_directional_energy(f.values, g.hx, g.hy, 10, is_x, 0.9)
            got = directional_energy(f, axis, 0.9)
            assert abs(got - want) <= 1e-14 * want


def test_directional_energies_sum_to_h2_plus_l2():
    rng = np.random.default_rng(8)
    g = make_grid(0, 1, 0, 1, 12)
    f = Field(g, rng.standard_normal((13, 13)))
    alpha = 1.0
    rep = h2_norm(f, alpha)
    total = directional_energy(f, Axis.X, alpha) + directional_energy(f, Axis.Y, alpha)
    want = rep.h2 ** 2 + rep.l2 ** 2
    assert abs(total - want) <= 1e-13 * want


def test_sbp_residuals_zero_field():
    g = make_grid(0, 1, 0, 1, 12)
    r = sbp_residuals(Field(g, np.zeros((13, 13))))
    assert r.max() == 0.0


def test_sbp_residuals_random_fields():
    g = make_grid(0, 1, 0, 1, 12)
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = random_frame_vanishing(g, rng)
        tol = 1e-12 * (1.0 + l2_norm(w) ** 2)
        assert sbp_residuals(w).max() <= tol


def test_sbp_residuals_smooth_bump():
    g = make_grid(0, 1, 0, 1, 12)
    h = g.hx

    def bump(X, Y, t):
        px = np.clip((X - h) * (1.0 - h - X), 0.0, None) ** 2
        py = np.clip((Y - h) * (1.0 - h - Y), 0.0, None) ** 2
        return px * py

    w = sample(g, bump)
    tol = 1e-12 * (1.0 + l2_norm(w) ** 2)
    assert sbp_residuals(w).max() <= tol


def test_sbp_residuals_requires_vanishing_frame():
    g = make_grid(0, 1, 0, 1, 12)
    v = np.zeros((13, 13))
    v[1, 5] = 1.0   # second layer nonzero
    with pytest.raises(FrameError):
        sbp_residuals(Field(g, v))

