"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (dense matrices, explicit Python
loops) and shares no code path with the package internals it checks.
"""
import numpy as np

from sobrlw.stencils import WIDE_FIRST_W, WIDE_SECOND_W, Axis, five_point


def dense_gauss_solve(A, b):
    """Gaussian elimination with partial pivoting, for systems up to a few hundred."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    x = b.reshape(n, -1).copy()
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if A[piv, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        for row in range(col + 1, n):
            m = A[row, col] / A[col, col]
            if m != 0.0:
                A[row, col:] -= m * A[col, col:]
                x[row] -= m * x[col]
    for col in range(n - 1, -1, -1):
        x[col] /= A[col, col]
        for row in range(col):
            x[row] -= A[row, col] * x[col]
    return x.reshape(b.shape)


def multiply_line(bands, x):
    """A @ x for the five constant diagonals of a PentaBands, by shifted slices."""
    x = np.asarray(x, dtype=float)
    out = bands.c_0 * x
    if bands.n >= 2:
        out[1:] += bands.c_m * x[:-1]
        out[:-1] += bands.c_p * x[1:]
    if bands.n >= 3:
        out[2:] += bands.c_mm * x[:-2]
        out[:-2] += bands.c_pp * x[2:]
    return out


def dense_banded(coeffs, n):
    """Dense matrix from five constant diagonals, offsets -2..+2."""
    A = np.zeros((n, n))
    for off, v in zip(range(-2, 3), coeffs):
        A += v * np.eye(n, k=off)
    return A


def directional_coeffs(h, a, beta, gamma, theta):
    """Stencil of -(a + theta*gamma)*wide_second + theta*beta*wide_first."""
    return (-(a + theta * gamma) / (12.0 * h * h)) * WIDE_SECOND_W \
        + (theta * beta / (12.0 * h)) * WIDE_FIRST_W


def directional_sums(U, cx, cy):
    """Five-point sums of a full field on its interior block {2..M-2}^2:
    along X with stencil cx, along Y with cy, or the X sums plus the Y
    sums; None stands for a missing direction."""
    s = slice(2, U.shape[0] - 2)
    if cy is None:
        return five_point(U[:, s], cx, Axis.X)
    if cx is None:
        return five_point(U[s, :], cy, Axis.Y)
    return five_point(U[:, s], cx, Axis.X) + five_point(U[s, :], cy, Axis.Y)


def constrained_2d_solve(M, cx, cy, rhs_full, frame_values):
    """Solve (I + Ax + Ay) U = rhs on the interior of an (M+1)^2 grid.

    cx, cy: five-point directional coefficients (identity NOT included);
    rhs_full: (M+1, M+1) array, read on the interior;
    frame_values: (M+1, M+1) array giving the pinned node layers
    {0,1,M-1,M}.  Returns the full (M+1, M+1) solution.

    Every node is an unknown of a dense system: frame nodes get identity
    rows pinned to frame_values, interior nodes get the stencil row.
    """
    m = M + 1
    A = np.zeros((m * m, m * m))
    b = np.zeros(m * m)
    idx = lambda i, j: i * m + j
    interior = lambda q: 2 <= q <= M - 2
    for i in range(m):
        for j in range(m):
            row = idx(i, j)
            if interior(i) and interior(j):
                A[row, row] += 1.0
                for off in range(-2, 3):
                    A[row, idx(i + off, j)] += cx[off + 2]
                    A[row, idx(i, j + off)] += cy[off + 2]
                b[row] = rhs_full[i, j]
            else:
                A[row, row] = 1.0
                b[row] = frame_values[i, j]
    return dense_gauss_solve(A, b).reshape(m, m)


def loop_l2_norm(values, hx, hy, M):
    """Interior l2 norm with explicit loops."""
    acc = 0.0
    for i in range(2, M - 1):
        for j in range(2, M - 1):
            acc += values[i, j] ** 2
    return np.sqrt(hx * hy * acc)


def loop_h2_sq(values, hx, hy, M, alpha):
    """Weighted H2 norm squared with explicit loops over the paper ranges."""
    w = hx * hy
    l2 = sum(values[i, j] ** 2 for i in range(2, M - 1) for j in range(2, M - 1))
    gx = sum(((values[i + 1, j] - values[i, j]) / hx) ** 2
             for i in range(1, M - 1) for j in range(2, M - 1))
    gy = sum(((values[i, j + 1] - values[i, j]) / hy) ** 2
             for i in range(2, M - 1) for j in range(1, M - 1))
    cx = sum(((values[i + 1, j] - 2 * values[i, j] + values[i - 1, j]) / hx ** 2) ** 2
             for i in range(1, M) for j in range(2, M - 1))
    cy = sum(((values[i, j + 1] - 2 * values[i, j] + values[i, j - 1]) / hy ** 2) ** 2
             for i in range(2, M - 1) for j in range(1, M))
    return w * (l2 + alpha * (gx + gy + hx ** 2 / 12.0 * cx + hy ** 2 / 12.0 * cy))


def loop_directional_energy(values, hx, hy, M, axis_x, alpha):
    w = hx * hy
    l2 = sum(values[i, j] ** 2 for i in range(2, M - 1) for j in range(2, M - 1))
    if axis_x:
        g = sum(((values[i + 1, j] - values[i, j]) / hx) ** 2
                for i in range(1, M - 1) for j in range(2, M - 1))
        c = sum(((values[i + 1, j] - 2 * values[i, j] + values[i - 1, j]) / hx ** 2) ** 2
                for i in range(1, M) for j in range(2, M - 1))
        return w * (l2 + alpha * (g + hx ** 2 / 12.0 * c))
    g = sum(((values[i, j + 1] - values[i, j]) / hy) ** 2
            for i in range(2, M - 1) for j in range(1, M - 1))
    c = sum(((values[i, j + 1] - 2 * values[i, j] + values[i, j - 1]) / hy ** 2) ** 2
            for i in range(2, M - 1) for j in range(1, M))
    return w * (l2 + alpha * (g + hy ** 2 / 12.0 * c))


def per_field_blocks(values, hx, hy, M):
    """The five blocks of the norms table for one field, each formed alone.

    Whole-array numpy arithmetic on one field: plain values, then
    (v[1:] - v[:-1]) / h and (v[2:] - 2 v[1:-1] + v[:-2]) / h^2 along x, and
    along y on the transpose, transposed back.  Keys: plain, half_x, half_y,
    second_x, second_y.
    """
    s = slice(2, M - 1)

    def half(v, h):
        return (v[1:] - v[:-1]) / h

    def second(v, h):
        return (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)

    return {"plain": values[s, s],
            "half_x": half(values[1:M, s], hx), "half_y": half(values.T[1:M, s], hy).T,
            "second_x": second(values[:, s], hx), "second_y": second(values.T[:, s], hy).T}


def per_field_norm_report(values, hx, hy, M, alpha):
    """h2_norm's report of one field, each squared block summed by np.sum.

    Returns a dict with the names of NormReport's fields.
    """
    w = hx * hy
    b = per_field_blocks(values, hx, hy, M)
    sq = {name: float(w * np.sum(block ** 2)) for name, block in b.items()}
    l2_sq = sq["plain"]
    h2_sq = l2_sq + alpha * (sq["half_x"] + sq["half_y"] + (hx ** 2 / 12.0) * sq["second_x"]
                             + (hy ** 2 / 12.0) * sq["second_y"])
    return {"l2": float(np.sqrt(l2_sq)), "h2": float(np.sqrt(h2_sq)), "l2_sq": l2_sq,
            "half_x_sq": sq["half_x"], "half_y_sq": sq["half_y"],
            "second_x_sq": sq["second_x"], "second_y_sq": sq["second_y"]}


# nested sixth-order central differences of a reference solution, one call of
# fn per sample (step 1e-2, as in sobrlw.problems)
_STEP = 1e-2
_W1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0])      # /(60 h)
_W2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])  # /(180 h^2)


def _stencil1(samples, h):
    return sum(w * s for w, s in zip(_W1, samples)) / (60.0 * h)


def _stencil2(samples, h):
    return sum(w * s for w, s in zip(_W2, samples)) / (180.0 * h * h)


def nested_dt(fn, X, Y, t, h=_STEP):
    return _stencil1([fn(X, Y, t + m * h) for m in range(-3, 4)], h)


def nested_dx(fn, X, Y, t, h=_STEP):
    return _stencil1([fn(X + m * h, Y, t) for m in range(-3, 4)], h)


def nested_dy(fn, X, Y, t, h=_STEP):
    return _stencil1([fn(X, Y + m * h, t) for m in range(-3, 4)], h)


def nested_dxx(fn, X, Y, t, h=_STEP):
    return _stencil2([fn(X + m * h, Y, t) for m in range(-3, 4)], h)


def nested_dyy(fn, X, Y, t, h=_STEP):
    return _stencil2([fn(X, Y + m * h, t) for m in range(-3, 4)], h)


def nested_dtxx(fn, X, Y, t, h=_STEP):
    return nested_dt(lambda a, b, s: nested_dxx(fn, a, b, s), X, Y, t, h)


def nested_dtyy(fn, X, Y, t, h=_STEP):
    return nested_dt(lambda a, b, s: nested_dyy(fn, a, b, s), X, Y, t, h)


def loop_inner_diff(u, v, hx, hy, M, variant):
    """inner(u, v, variant) for half_x/half_y/second_x/second_y, with loops
    over the ranges of the norms table (p along the axis, q across it)."""
    along_x = variant.endswith("x")
    h = hx if along_x else hy
    at = (lambda a, p, q: a[p, q]) if along_x else (lambda a, p, q: a[q, p])
    if variant.startswith("half"):
        diff = lambda a, p, q: (at(a, p + 1, q) - at(a, p, q)) / h
        along = range(1, M - 1)
    else:
        diff = lambda a, p, q: (at(a, p + 1, q) - 2 * at(a, p, q) + at(a, p - 1, q)) / h ** 2
        along = range(1, M)
    return hx * hy * sum(diff(u, p, q) * diff(v, p, q)
                         for p in along for q in range(2, M - 1))


def loop_solve_line(fact, rhs):
    """Forward and back substitution with one indexed row operation at a
    time, on the factors a, b, d, e, f of a PentaFactorization."""
    n = fact.n
    a, b, d, e, f = fact.a, fact.b, fact.d, fact.e, fact.f
    y = np.array(rhs, dtype=np.result_type(rhs, d, float), order="C")
    for i in range(1, n):
        y[i] -= b[i] * y[i - 1]
        if i >= 2:
            y[i] -= a[i] * y[i - 2]
    x = np.empty_like(y)
    x[n - 1] = y[n - 1] / d[n - 1]
    if n >= 2:
        x[n - 2] = (y[n - 2] - e[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - e[i] * x[i + 1] - f[i] * x[i + 2]) / d[i]
    return x


def mesh_fill_boundary_layers(values, t, problem, grid, mode):
    """Node layers {0,1,M-1,M} set for time t from the reference (or g)
    evaluated on the full (M+1) x (M+1) mesh."""
    M = grid.M
    X, Y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    out = np.array(values, dtype=float, copy=True)
    source = problem.exact if mode == "exact" and problem.exact is not None else problem.g
    E = np.broadcast_to(np.asarray(source(X, Y, t), float), X.shape)
    if mode == "exact":
        for l in (0, 1, M - 1, M):
            out[l, :] = E[l, :]
            out[:, l] = E[:, l]
        return out
    for l, edge in ((0, 0), (1, 0), (M - 1, M), (M, M)):
        out[l, :] = E[edge, :]
    for l, edge in ((0, 0), (1, 0), (M - 1, M), (M, M)):
        out[:, l] = E[:, edge]
    return out


def full_mesh_solution_csv(problem, t, fld):
    """Text of the slice CSV (x,y,u,U,e per node), with the reference called
    on the full (M+1) x (M+1) mesh and indexed as it comes back."""
    g = fld.grid
    X, Y = np.meshgrid(g.xs(), g.ys(), indexing="ij")
    fmt = lambda v: "" if v is None else f"{v:.12e}"
    have_exact = problem.exact is not None
    E = np.asarray(problem.exact(X, Y, t), float) if have_exact else None
    lines = ["x,y,u,U,e"]
    for i in range(g.M + 1):
        for j in range(g.M + 1):
            u = E[i, j] if have_exact else None
            e = (E[i, j] - fld.values[i, j]) if have_exact else None
            lines.append(",".join([fmt(X[i, j]), fmt(Y[i, j]), fmt(u),
                                   fmt(fld.values[i, j]), fmt(e)]))
    return "\n".join(lines) + "\n"


def inline_norms_csv(rec):
    """Text of the t,l2_u,l2_U,l2_err CSV of `sobrlw solve --out`, as the
    CLI once wrote it inline; the u and error cells are empty without a
    reference."""
    lines = ["t,l2_u,l2_U,l2_err"]
    for idx, t in enumerate(rec.times):
        u = f"{rec.l2_u[idx]:.12e}" if rec.l2_u else ""
        e = f"{rec.l2_err[idx]:.12e}" if rec.l2_err else ""
        lines.append(f"{t:.12e},{u},{rec.l2_U[idx]:.12e},{e}")
    return "\n".join(lines) + "\n"


def per_side_compatibility_mismatch(problem, M=16):
    """Max |u0 - exact(.,0)| over the full mesh and |g - exact| over each of
    the four boundary sides in turn, at seven times in [0, T]."""
    if problem.exact is None:
        return 0.0
    xs = problem.L1 + np.arange(M + 1) * ((problem.L2 - problem.L1) / M)
    ys = problem.L3 + np.arange(M + 1) * ((problem.L4 - problem.L3) / M)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    d0 = float(np.abs(problem.u0(X, Y) - problem.exact(X, Y, 0.0)).max())
    dg = 0.0
    for t in np.linspace(0.0, problem.T, 7):
        G = np.broadcast_to(np.asarray(problem.g(X, Y, t), dtype=float), X.shape)
        E = problem.exact(X, Y, t)
        for sl in ((0, slice(None)), (-1, slice(None)),
                   (slice(None), 0), (slice(None), -1)):
            dg = max(dg, float(np.abs(G[sl] - E[sl]).max()))
    return max(d0, dg)


OBSERVED_SERIES = ("times", "l2_u", "l2_U", "l2_err", "h2_u", "h2_U", "h2_err")


def per_field_observe(problem, levels):
    """run()'s per-level series, observed one field at a time.

    levels: (t, Field of U) for each integer level, in order.  Per level:
    the l2 and h2 norms of U (per_field_norm_report); with a reference u
    (called on the open coordinates and broadcast to a C-ordered mesh
    array, as run() calls it) also those of u and of u - U.  Returns a
    dict from each name in OBSERVED_SERIES to its list.
    """
    out = {name: [] for name in OBSERVED_SERIES}
    for t, U in levels:
        g = U.grid

        def report(values):
            return per_field_norm_report(values, g.hx, g.hy, g.M, problem.alpha)

        nU = report(U.values)
        out["times"].append(t)
        out["l2_U"].append(nU["l2"])
        out["h2_U"].append(nU["h2"])
        if problem.exact is not None:
            ref = np.asarray(problem.exact(*g.open_mesh(), t), dtype=float)
            u = np.array(np.broadcast_to(ref, U.values.shape))
            nu, ne = report(u), report(u - U.values)
            out["l2_u"].append(nu["l2"])
            out["l2_err"].append(ne["l2"])
            out["h2_u"].append(nu["h2"])
            out["h2_err"].append(ne["h2"])
    return out
