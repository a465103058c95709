# One full solve of the first benchmark problem, start to finish.
#
# Integrates u_t - Lap(u_t) - Lap(u) + u = 0 with exact solution
# e^{-t} sin(pi x) sin(pi y) on a 16x16 grid with the benchmark time step
# k = h^(4/3), prints the error history, and writes a field slice plus an
# SVG heatmap next to this script.
#
# Usage: python demos/02_single_solve.py

import os

from sobrlw import SchemeConfig, emit_solution_csv, emit_svg, example1, make_grid, run

here = os.path.dirname(os.path.abspath(__file__))

problem = example1()
grid = make_grid(problem.L1, problem.L2, problem.L3, problem.L4, 16)
cfg = SchemeConfig()            # coupled stepper, derived signs, exact layers

record = run(problem, grid, cfg, dump_times=[0.5])

print(f"problem: {record.problem_name}, M={record.M}, "
      f"k={record.k:.5f}, N={record.N} steps")
print(f"{'t':>8} {'|u|_2':>12} {'|U|_2':>12} {'|e|_2':>12}")
for i in range(0, len(record.times), 5):
    print(f"{record.times[i]:8.4f} {record.l2_u[i]:12.6e} "
          f"{record.l2_U[i]:12.6e} {record.l2_err[i]:12.6e}")

print(f"\nsup-over-time norms: |u| = {record.sup_u:.6f}, "
      f"|U| = {record.sup_U:.6f}, error = {record.sup_err:.3e}")
print(f"H2 norms: |u| = {record.sup_h2_u:.4f}, |U| = {record.sup_h2_U:.4f}")
print(f"implicit-solve iterations per step: "
      f"max {max(record.diagnostics.picard_iterations)}")

t_mid, fld = record.snapshots[0.5]
slice_path = os.path.join(here, "single_solve_slice.csv")
svg_path = os.path.join(here, "single_solve_field.svg")
emit_solution_csv(problem, t_mid, fld, slice_path)
emit_svg(record.final, svg_path)
print(f"\nwrote {slice_path}")
print(f"wrote {svg_path}")
