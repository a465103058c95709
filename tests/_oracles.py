"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (dense matrices, explicit Python
loops) and shares no code path with the package internals it checks.
"""
import numpy as np

from sobrlw.stencils import WIDE_FIRST_W, WIDE_SECOND_W


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
