import numpy as np
import pytest

from sobrlw import (ConfigurationError, Field, SamplingError, TimeGrid,
                    example1, make_grid, run, sample)


def test_make_grid_steps():
    g = make_grid(0, 1, 0, 1, 8)
    assert g.hx == 0.125
    assert g.hy == 0.125
    assert g.n_interior == 5


def test_make_grid_minimal_interior():
    g = make_grid(0, 1, 0, 1, 4)
    assert g.n_interior == 1
    s = g.interior
    assert (s.start, s.stop) == (2, 3)


def test_make_grid_rejects_too_small():
    with pytest.raises(ConfigurationError):
        make_grid(0, 1, 0, 1, 3)


def test_make_grid_rejects_degenerate_bounds():
    with pytest.raises(ConfigurationError):
        make_grid(1, 1, 0, 1, 8)
    with pytest.raises(ConfigurationError):
        make_grid(0, 1, 2, 1, 8)


def test_make_grid_pure():
    assert make_grid(0, 2, -1, 1, 10) == make_grid(0, 2, -1, 1, 10)


def test_node_coordinates_reproducible():
    g = make_grid(0, 1, 0, 1, 8)
    assert g.x(4) == 0.5
    assert g.y(8) == 1.0
    xs = g.xs()
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert np.all(np.diff(xs) > 0)


def test_mesh_is_built_once_per_grid_and_read_only(monkeypatch):
    built = []
    meshgrid = np.meshgrid

    def counting(*args, **kwargs):
        built.append(args)
        return meshgrid(*args, **kwargs)

    monkeypatch.setattr(np, "meshgrid", counting)
    g = make_grid(0, 1, 0, 0.5, 8)
    X, Y = g.mesh()
    want = meshgrid(g.xs(), g.ys(), indexing="ij")
    assert np.array_equal(X, want[0]) and np.array_equal(Y, want[1])
    with pytest.raises(ValueError):
        X[0, 0] = 1.0
    g = make_grid(0, 1, 0, 1, 8)
    run(example1(), g, T=0.1)       # engine, sample, observe and every fill
    assert len(built) == 2
    assert g.mesh()[0] is g.mesh()[0]


def test_sample_zero():
    g = make_grid(0, 1, 0, 1, 8)
    f = sample(g, lambda X, Y, t: np.zeros_like(X))
    assert np.all(f.values == 0.0)


def test_sample_center_node():
    g = make_grid(0, 1, 0, 1, 8)
    f = sample(g, lambda X, Y, t: np.sin(np.pi * X) * np.sin(np.pi * Y))
    assert f.values[4, 4] == 1.0


def test_sample_exact_solution_at_time():
    g = make_grid(0, 1, 0, 1, 8)
    f = sample(g, lambda X, Y, t: np.exp(-t) * np.sin(np.pi * X) * np.sin(np.pi * Y), t=1.0)
    assert abs(f.values[4, 4] - np.exp(-1.0)) < 1e-15
    assert abs(f.values[4, 4] - 0.367879441171) < 1e-10


def test_sample_matches_pointwise_evaluation():
    g = make_grid(0, 1, 0, 1, 8)
    phi = lambda X, Y, t: 2.0 * X ** 2 - Y + 0.25
    f = sample(g, phi)
    for i in (0, 3, 8):
        for j in (1, 4, 7):
            assert f.values[i, j] == phi(g.x(i), g.y(j), 0.0)


def test_sample_reports_offending_node():
    g = make_grid(0, 1, 0, 1, 8)

    def phi(X, Y, t):
        out = np.ones_like(X)
        return np.where((X == 0.5) & (Y == 0.25), np.inf, out)

    with pytest.raises(SamplingError) as exc:
        sample(g, phi)
    assert "i=4" in str(exc.value) and "j=2" in str(exc.value)


def test_field_rejects_nonfinite_and_bad_shape():
    g = make_grid(0, 1, 0, 1, 4)
    with pytest.raises(ConfigurationError):
        Field(g, np.full((5, 5), np.nan))
    with pytest.raises(ConfigurationError):
        Field(g, np.zeros((4, 4)))


def test_field_values_are_read_only():
    g = make_grid(0, 1, 0, 1, 4)
    f = Field(g, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_copies_every_input():
    g = make_grid(0, 1, 0, 1, 4)
    V = np.arange(75.0).reshape(3, 5, 5).copy()
    V.flags.writeable = False
    # rows of a read-only stack owning its memory, a transposed row and a
    # writable array
    for given in (V[1], V[2], V[1].T, np.ones((5, 5))):
        f = Field(g, given)
        assert not np.shares_memory(f.values, given)
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        assert np.array_equal(f.values, given)
    with pytest.raises(ConfigurationError, match="non-finite"):
        Field(g, np.broadcast_to(np.nan, (5, 5)))


def test_time_grid():
    tg = TimeGrid(T=1.0, N=16)
    assert tg.k == 0.0625
    assert tg.t(16) == 1.0
    assert tg.t(0.5) == 0.03125
    with pytest.raises(ConfigurationError):
        TimeGrid(T=1.0, N=0)


def test_time_grid_lands_on_T():
    tg = TimeGrid(T=1.0, N=3)
    assert abs(tg.N * tg.k - 1.0) <= np.finfo(float).eps
