# Wide-stencil operators and the discrete identities behind the energy method.
#
# Walks through the building blocks: sampling a function onto a grid,
# applying the four difference operators, checking their exactness on
# polynomials, and verifying the summation-by-parts identities that make
# frame-vanishing fields behave like homogeneous-Dirichlet functions.
#
# Usage: python demos/01_operators_and_identities.py

import numpy as np

from sobrlw import (Axis, inner, l2_norm, make_grid, sample, sbp_residuals,
                    verify_suite)
from sobrlw.harness import random_frame_vanishing
from sobrlw.stencils import second_diff, wide_first, wide_second

# --- a grid and a sampled field --------------------------------------------

grid = make_grid(0.0, 1.0, 0.0, 1.0, 16)
print(f"grid: M={grid.M}, h={grid.hx:.4f}, interior nodes "
      f"{grid.n_interior}x{grid.n_interior}")

f = sample(grid, lambda X, Y, t: np.sin(np.pi * X) * np.sin(np.pi * Y))
print(f"|sin sin|_2 over the interior = {l2_norm(f):.6f} "
      f"(continuum value is 0.5)")

# --- the operators are exact on low-degree polynomials ----------------------

lin = sample(grid, lambda X, Y, t: X)
quad = sample(grid, lambda X, Y, t: X ** 2)
s = grid.interior
print("wide_first(x)      =", wide_first(lin, Axis.X).values[s, s][0, 0],
      " (fourth-order first derivative, sign such that d/dx x = +1)")
print("wide_second(x^2)   =", wide_second(quad, Axis.X).values[s, s][0, 0])
print("second_diff(x^2)   =", second_diff(quad, Axis.X).values[3, 3])

# --- truncation error decays at fourth order --------------------------------

for M in (8, 16, 32):
    g = make_grid(0, 1, 0, 1, M)
    u = sample(g, lambda X, Y, t: np.sin(np.pi * X) * np.sin(np.pi * Y))
    X, Y = g.open_mesh()
    err = np.abs(wide_second(u, Axis.X).values
                 + np.pi ** 2 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    mask = (X >= 0.25) & (X <= 0.75) & (Y >= 0.25) & (Y <= 0.75)
    print(f"M={M:3d}: max wide_second truncation error {err[mask].max():.3e}")

# --- summation-by-parts identities ------------------------------------------
# For fields vanishing on the two outermost node layers each side:
#   (wide_first w, w)    = 0
#   (-wide_second w, w)  = |half-diff w|^2 + (h^2/12) |second-diff w|^2
#   (wide_first w, v)    = -(wide_first v, w)

rng = np.random.default_rng(0)
w = random_frame_vanishing(grid, rng)
v = random_frame_vanishing(grid, rng)

res = sbp_residuals(w)
print(f"\nself-pairing residuals:   x={res.wide1_self_x:.2e}  "
      f"y={res.wide1_self_y:.2e}")
print(f"energy-identity residuals: x={res.wide2_energy_x:.2e}  "
      f"y={res.wide2_energy_y:.2e}")
anti = inner(w, v, "wide1_x") + inner(v, w, "wide1_x")
print(f"antisymmetry residual:     {abs(anti):.2e}")

# --- the packaged verification suite ----------------------------------------

report = verify_suite(M=12, seed=0)
print(f"\nverify_suite(M=12): {sum(e.passed for e in report.entries)}"
      f"/{len(report.entries)} checks passed -> "
      f"{'ALL OK' if report.all_passed else 'FAILURES'}")
