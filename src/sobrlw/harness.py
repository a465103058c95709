"""Benchmark harness: convergence studies, identity verification, CSV/SVG output.

The convergence protocol follows the benchmark convention k = h^(4/3) with
h = 2^-l on the unit square (so level l uses M = 2^l subdivisions).  Levels
whose grid has no interior (M < 4) produce a failed row and the study
continues; rates are chained between consecutive successful levels as
log2(error(2h) / error(h)).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field, asdict
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigurationError
from .grid import Field, make_grid, sample
from .norms import inner, is_frame_vanishing, l2_norm, sbp_residuals
from .problems import ProblemSpec
from .scheme import SchemeConfig, SolutionRecord, run
from .stencils import Axis, wide_first_values, wide_second_values


def rate(err_coarse: float, err_fine: float) -> Optional[float]:
    """Observed order log2(err_coarse / err_fine); None when undefined."""
    if err_coarse is None or err_fine is None:
        return None
    if not (np.isfinite(err_coarse) and np.isfinite(err_fine)):
        return None
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return None
    return float(np.log2(err_coarse / err_fine))


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    h: float
    k: Optional[float]
    norm_u: Optional[float]
    norm_U: Optional[float]
    error: Optional[float]
    rate: Optional[float]
    failed: bool = False
    note: str = ""


@dataclass
class RunManifest:
    """Everything needed to reproduce a harness invocation."""

    command: str
    problem: str
    levels: list
    config: dict
    T: float
    package_version: str
    timestamp: str
    outputs: list = dc_field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def convergence_study(problem: ProblemSpec, levels: Iterable[int],
                      cfg: SchemeConfig = SchemeConfig(),
                      T: Optional[float] = None) -> list:
    """One solve per refinement level l (M = 2^l, h = (L2-L1)/M), k = h^(4/3).

    Any failing level is recorded as a failed row and the study continues;
    a failed level breaks the rate chain across it.
    """
    levels = list(levels)
    if any(l > 6 for l in levels):
        raise ConfigurationError("levels above 6 exceed the supported desk scale")
    rows = []
    prev_error = None
    for l in levels:
        M = 2 ** l
        h = (problem.L2 - problem.L1) / M
        if M < 4:
            rows.append(ConvergenceRow(
                level=l, h=h, k=None, norm_u=None, norm_U=None, error=None,
                rate=None, failed=True,
                note=f"M={M} leaves no interior nodes (need M >= 4)"))
            prev_error = None
            continue
        grid = make_grid(problem.L1, problem.L2, problem.L3, problem.L4, M)
        try:
            rec = run(problem, grid, cfg, T=T)
        except ConfigurationError as exc:
            rows.append(ConvergenceRow(level=l, h=h, k=None, norm_u=None,
                                       norm_U=None, error=None, rate=None,
                                       failed=True, note=str(exc)))
            prev_error = None
            continue
        if rec.failed:
            rows.append(ConvergenceRow(level=l, h=h, k=rec.k, norm_u=None,
                                       norm_U=None, error=None, rate=None,
                                       failed=True, note=rec.failure))
            prev_error = None
            continue
        err = rec.sup_err if problem.exact is not None else None
        rows.append(ConvergenceRow(
            level=l, h=h, k=rec.k,
            norm_u=rec.sup_u if problem.exact is not None else None,
            norm_U=rec.sup_U, error=err, rate=rate(prev_error, err)))
        prev_error = err
    return rows


# ---------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class VerifyEntry:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol


@dataclass
class VerifyReport:
    M: int
    seed: int
    entries: list = dc_field(default_factory=list)

    def add(self, name: str, value: float, tol: float) -> None:
        self.entries.append(VerifyEntry(name, float(value), float(tol)))

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list:
        out = []
        for e in self.entries:
            out.append(f"{'PASS' if e.passed else 'FAIL'}  {e.name:<44s} "
                       f"value={e.value:.3e}  tol={e.tol:.3e}")
        return out


def random_frame_vanishing(grid, rng) -> Field:
    """Random field vanishing on node layers {0,1,M-1,M} along both axes."""
    M = grid.M
    v = np.zeros((M + 1, M + 1))
    v[2:M - 1, 2:M - 1] = rng.standard_normal((M - 3, M - 3))
    return Field(grid, v)


def _consistency_orders(sizes=(8, 16, 32)):
    """Observed truncation orders of the wide stencils on sin(pi x) sin(pi y).

    Errors are measured over the node set common to every grid in the study
    (the coarsest grid's interior, x and y in [1/4, 3/4]); on the full,
    widening interior the location of the maximum drifts toward the boundary
    and contaminates the observed order.
    """
    lo, hi = 2.0 / sizes[0], 1.0 - 2.0 / sizes[0]

    def max_err(M, op, dtarget):
        g = make_grid(0, 1, 0, 1, M)
        f = sample(g, lambda X, Y, t: np.sin(np.pi * X) * np.sin(np.pi * Y))
        approx = op(f.values, g.hx, Axis.X)
        X, Y = g.mesh()
        mask = (X >= lo - 1e-12) & (X <= hi + 1e-12) & \
               (Y >= lo - 1e-12) & (Y <= hi + 1e-12)
        return float(np.abs(approx - dtarget(X, Y))[mask].max())

    d1 = lambda X, Y: np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
    d2 = lambda X, Y: -np.pi ** 2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    orders = {}
    for name, op, target in (("wide_first", wide_first_values, d1),
                             ("wide_second", wide_second_values, d2)):
        errs = [max_err(M, op, target) for M in sizes]
        orders[name] = [float(np.log2(errs[i] / errs[i + 1]))
                        for i in range(len(errs) - 1)]
    # the sign-flipped first-derivative stencil is anti-consistent: its
    # "truncation error" is O(1), which the order check exposes
    flipped = lambda v, h, ax: -wide_first_values(v, h, ax)
    errs = [max_err(M, flipped, d1) for M in sizes]
    orders["wide_first_sign_flipped"] = [float(np.log2(errs[i] / errs[i + 1]))
                                         for i in range(len(errs) - 1)]
    return orders


def verify_suite(M: int = 12, seed: int = 0, n_fields: int = 10) -> VerifyReport:
    """Summation-by-parts identities on random frame-vanishing fields, plus
    stencil consistency orders.  Identity tolerances scale as
    1e-12 * (1 + |w| |v|) so they stay meaningful for large random fields.
    """
    if M < 8:
        raise ConfigurationError(f"verification needs M >= 8, got M={M}")
    grid = make_grid(0.0, 1.0, 0.0, 1.0, M)
    rng = np.random.default_rng(seed)
    report = VerifyReport(M=M, seed=seed)
    for trial in range(n_fields):
        w = random_frame_vanishing(grid, rng)
        v = random_frame_vanishing(grid, rng)
        assert is_frame_vanishing(w) and is_frame_vanishing(v)
        scale = 1e-12 * (1.0 + l2_norm(w) * l2_norm(v))
        r = sbp_residuals(w)
        report.add(f"[{trial}] first-derivative self-pairing x", r.wide1_self_x, scale)
        report.add(f"[{trial}] first-derivative self-pairing y", r.wide1_self_y, scale)
        report.add(f"[{trial}] second-derivative energy identity x", r.wide2_energy_x, scale)
        report.add(f"[{trial}] second-derivative energy identity y", r.wide2_energy_y, scale)
        for z in ("x", "y"):
            anti = abs(inner(w, v, f"wide1_{z}") + inner(v, w, f"wide1_{z}"))
            report.add(f"[{trial}] first-derivative antisymmetry {z}", anti, scale)
            lhs = inner(w, v, f"wide2_{z}")
            h = grid.hx if z == "x" else grid.hy
            rhs = -inner(w, v, f"half_{z}") - (h * h / 12.0) * inner(w, v, f"second_{z}")
            report.add(f"[{trial}] second-derivative pairing identity {z}",
                       abs(lhs - rhs), scale)
    orders = _consistency_orders()
    for name in ("wide_first", "wide_second"):
        worst = min(orders[name])
        # report "4 - order <= 0.1" as a residual-style entry
        report.add(f"consistency order {name} (>= 3.9)", max(0.0, 3.9 - worst), 0.0)
    flipped_ok = max(orders["wide_first_sign_flipped"]) < 1.0
    report.add("sign-flipped wide_first fails consistency",
               0.0 if flipped_ok else 1.0, 0.0)
    return report


# ---------------------------------------------------------------------------
# output emission


def _fmt(v) -> str:
    return "" if v is None else f"{v:.12e}"


def emit_csv(rows: list, path: str) -> None:
    """Convergence table: header h,k,norm_u,norm_U,error,rate."""
    lines = ["h,k,norm_u,norm_U,error,rate"]
    for r in rows:
        lines.append(",".join([_fmt(r.h), _fmt(r.k), _fmt(r.norm_u),
                               _fmt(r.norm_U), _fmt(r.error), _fmt(r.rate)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_solution_csv(record: SolutionRecord, problem: ProblemSpec,
                      t: float, fld: Field, path: str) -> None:
    """Field slice at one time level: x,y,u,U,e per node."""
    g = fld.grid
    X, Y = g.mesh()
    have_exact = problem.exact is not None
    E = np.asarray(problem.exact(X, Y, t), float) if have_exact else None
    lines = ["x,y,u,U,e"]
    for i in range(g.M + 1):
        for j in range(g.M + 1):
            u = E[i, j] if have_exact else None
            e = (E[i, j] - fld.values[i, j]) if have_exact else None
            lines.append(",".join([_fmt(X[i, j]), _fmt(Y[i, j]), _fmt(u),
                                   _fmt(fld.values[i, j]), _fmt(e)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_header(w, h):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n')


def emit_svg(obj, path: str) -> None:
    """Convergence chart (list of rows) or field heatmap (Field)."""
    if isinstance(obj, Field):
        _emit_heatmap_svg(obj, path)
    else:
        _emit_rate_chart_svg(list(obj), path)


def _emit_rate_chart_svg(rows: list, path: str) -> None:
    """log2(1/h) vs log2(error), with a slope -8/3 guide line."""
    W, H, pad = 480, 360, 50
    pts = [(np.log2(1.0 / r.h), np.log2(r.error))
           for r in rows if not r.failed and r.error and r.error > 0]
    parts = [_svg_header(W, H)]
    if pts:
        xs, ys = zip(*pts)
        x0, x1 = min(xs) - 0.5, max(xs) + 0.5
        y0, y1 = min(ys) - 1.0, max(ys) + 1.0
        sx = lambda x: pad + (x - x0) / (x1 - x0) * (W - 2 * pad)
        sy = lambda y: H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)
        parts.append(f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>\n')
        parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>\n')
        path_d = " ".join(f'{"M" if i == 0 else "L"}{sx(x):.1f},{sy(y):.1f}'
                          for i, (x, y) in enumerate(pts))
        parts.append(f'<path d="{path_d}" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3.5" fill="#1f6fb2"/>\n')
        gx0, gy0 = pts[0]
        guide = [(gx0, gy0 - 0.5), (gx0 + (x1 - x0 - 1.0), gy0 - 0.5 - 8.0 / 3.0 * (x1 - x0 - 1.0))]
        parts.append(f'<line x1="{sx(guide[0][0]):.1f}" y1="{sy(guide[0][1]):.1f}" '
                     f'x2="{sx(guide[1][0]):.1f}" y2="{sy(guide[1][1]):.1f}" '
                     f'stroke="#888" stroke-dasharray="6,4"/>\n')
        parts.append(f'<text x="{W/2:.0f}" y="{H-12}" text-anchor="middle" '
                     f'font-size="13">log2(1/h)</text>\n')
        parts.append(f'<text x="14" y="{H/2:.0f}" font-size="13" '
                     f'transform="rotate(-90 14 {H/2:.0f})" text-anchor="middle">log2(error)</text>\n')
        parts.append(f'<text x="{W-pad}" y="{pad}" text-anchor="end" font-size="12" '
                     f'fill="#888">slope -8/3 guide</text>\n')
    else:
        parts.append(f'<text x="{W/2}" y="{H/2}" text-anchor="middle">no data</text>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def _emit_heatmap_svg(fld: Field, path: str) -> None:
    g = fld.grid
    M = g.M
    W = H = 420
    pad = 30
    cell = (W - 2 * pad) / (M + 1)
    v = fld.values
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else 1.0
    parts = [_svg_header(W, H)]
    for i in range(M + 1):
        for j in range(M + 1):
            s = (v[i, j] - lo) / span
            r255 = int(255 * s)
            b255 = int(255 * (1 - s))
            x = pad + i * cell
            y = H - pad - (j + 1) * cell
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell:.2f}" '
                         f'height="{cell:.2f}" fill="rgb({r255},40,{b255})"/>\n')
    parts.append(f'<text x="{W/2:.0f}" y="{H-8}" text-anchor="middle" font-size="12">'
                 f'min={lo:.3g} max={hi:.3g}</text>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def make_manifest(command: str, problem: str, levels, cfg: SchemeConfig,
                  T: float, outputs) -> RunManifest:
    from . import __version__
    return RunManifest(
        command=command, problem=problem, levels=list(levels),
        config={"stepper": cfg.stepper, "rhs_sign": cfg.rhs_sign,
                "leapfrog_alpha": cfg.leapfrog_alpha,
                "boundary_mode": cfg.boundary_mode,
                "k_rule": cfg.k_rule},
        T=T, package_version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
        outputs=list(outputs))
