# Grid-refinement studies for the three benchmark problems.
#
# Reproduces the benchmark protocol: h = 2^-l on the unit square with
# k = h^(4/3), errors measured in the sup-over-time interior l2 norm
# against each problem's reference solution, observed rates chained as
# log2(error(2h)/error(h)).  Writes one CSV and one rate-chart SVG per
# problem next to this script.
#
# Two behaviors are worth knowing about before reading the output:
#
# * Level 1 (h = 2^-1, i.e. M = 2) has no five-point interior at all: the
#   row is reported as failed and the study continues.  Coarse levels with
#   a tiny interior (M = 4 has a single interior node) sit far below the
#   asymptotic error trend because the two exact boundary layers anchor
#   most of the stencil neighborhood, so the observed rates only approach
#   the asymptotic ~8/3 on the finer transitions.
#
# * The third problem's reference solution does not actually satisfy its
#   stated equation (run residual_check(example3()) - the pointwise
#   residual is ~9).  Errors measured against it therefore grow under
#   refinement instead of decreasing (1.9e-2, 8.0e-2, 1.25e-1, 1.50e-1 at
#   levels 2-5); the study reports this honestly rather than reproducing
#   the published table.
#
# Usage: python demos/03_convergence_tables.py

import os

from sobrlw import (SchemeConfig, convergence_study, emit_csv, emit_svg,
                    example1, example2, example3, residual_check)

here = os.path.dirname(os.path.abspath(__file__))
cfg = SchemeConfig()

for make in (example1, example2, example3):
    problem = make()
    print(f"\n=== {problem.name} "
          f"(alpha={problem.alpha}, beta={problem.beta}, gamma={problem.gamma})")
    rc = residual_check(problem, n_points=20, seed=0)
    print(f"reference-solution residual in the stated equation: "
          f"{rc.max_residual:.2e}")

    rows = convergence_study(problem, [1, 2, 3, 4, 5], cfg)
    print(f"{'h':>10} {'k':>10} {'|u|':>12} {'|U|':>12} {'error':>12} {'rate':>8}")
    for r in rows:
        if r.failed:
            print(f"{r.h:>10.4g} {'-':>10} {'-':>12} {'-':>12} {'-':>12} "
                  f"{'-':>8}   [{r.note}]")
            continue
        rate_txt = f"{r.rate:8.4f}" if r.rate is not None else "       -"
        print(f"{r.h:>10.4g} {r.k:>10.4g} {r.norm_u:12.4e} {r.norm_U:12.4e} "
              f"{r.error:12.4e} {rate_txt}")

    csv_path = os.path.join(here, f"table_{problem.name}.csv")
    svg_path = os.path.join(here, f"rates_{problem.name}.svg")
    emit_csv(rows, csv_path)
    emit_svg(rows, svg_path)
    print(f"wrote {csv_path} and {svg_path}")
