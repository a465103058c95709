"""Command-line interface: single solves, convergence studies, identity checks.

    sobrlw solve --problem example1 --M 16 [--k auto|0.05] [--T 1.0]
                 [--boundary exact|paper-copy] [--rhs-sign derived|paper]
                 [--leapfrog-alpha on|off] [--stepper coupled|split]
                 [--out norms.csv] [--dump-at 0.5 slice.csv] [--svg field.svg]
    sobrlw convergence --problem example1 --levels 2..4 [same flags] --out table.csv
    sobrlw verify --M 12 --seed 0

A config file (JSON or key=value lines) can supply any flag's value;
command-line arguments override it.  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigurationError, NumericalError
from .grid import make_grid
from .harness import (convergence_study, emit_csv, emit_solution_csv,
                      emit_svg, make_manifest, verify_suite)
from .problems import get_problem
from .scheme import SchemeConfig, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _read_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed JSON config: {exc}") from None
        return {k.replace("-", "_"): v for k, v in data.items()}
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"malformed config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobrlw",
        description="Solver and benchmark harness for 2D Sobolev/RLW equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="config file (JSON or key=value lines)")
        p.add_argument("--problem",
                       help="example1|example2|example3|manufactured:<preset>")
        p.add_argument("--alpha", type=float,
                       help="model coefficient for manufactured problems")
        p.add_argument("--beta", type=float,
                       help="model coefficient for manufactured problems")
        p.add_argument("--gamma", type=float,
                       help="model coefficient for manufactured problems")
        p.add_argument("--T", type=float, help="final time (default: problem's)")
        p.add_argument("--k", default=None,
                       help="time step: 'auto' (h^(4/3) rule) or a number")
        p.add_argument("--boundary", choices=["exact", "paper-copy"],
                       help="boundary-layer filling mode")
        p.add_argument("--rhs-sign", choices=["derived", "paper"],
                       help="sign of the trapezoid operator on the RHS")
        p.add_argument("--leapfrog-alpha", choices=["on", "off"],
                       help="carry alpha in the three-level mass operator")
        p.add_argument("--stepper", choices=["coupled", "split"],
                       help="coupled full-mass stepper (default) or literal "
                            "directional splitting")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--svg", help="output SVG path")
        p.add_argument("--manifest", help="write a JSON run manifest here")

    p_solve = sub.add_parser("solve", help="single run at one resolution")
    add_common(p_solve)
    p_solve.add_argument("--M", type=int, help="subdivisions per axis")
    p_solve.add_argument("--dump-at", nargs=2, metavar=("T", "CSV"),
                         help="write an x,y,u,U,e slice at time T")

    p_conv = sub.add_parser("convergence", help="grid refinement study")
    add_common(p_conv)
    p_conv.add_argument("--levels", help="refinement levels, e.g. 2..4 or 2,3,4")

    p_ver = sub.add_parser("verify", help="discrete-identity verification suite")
    p_ver.add_argument("--config", help="config file")
    p_ver.add_argument("--M", type=int, help="grid subdivisions (default 12)")
    p_ver.add_argument("--seed", type=int, help="random seed (default 0)")
    return parser


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Config-file values fill in anything the command line left unset."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        from_file = _read_config_file(args.config)
        known = set(vars(args)) - {"command", "config"}
        unknown = sorted(set(from_file) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown config key(s) {unknown}; known: {sorted(known)}")
        merged.update(from_file)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _number(kind, key: str, value):
    """value as an int or float; anything else is a configuration error,
    a boolean too, and for an int any non-integral number."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{key} must be {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}") from None


def _scheme_config(opts: dict) -> SchemeConfig:
    k = opts.get("k", "auto")
    if k != "auto":
        k = _number(float, "k", k)
    boundary = str(opts.get("boundary", "exact")).replace("-", "_")
    return SchemeConfig(
        stepper=str(opts.get("stepper", "coupled")),
        rhs_sign=str(opts.get("rhs_sign", "derived")),
        leapfrog_alpha=str(opts.get("leapfrog_alpha", "on")),
        boundary_mode=boundary,
        k_rule=k)


def _parse_levels(spec) -> list:
    if isinstance(spec, (list, tuple)):
        return [_number(int, "levels", v) for v in spec]
    text = str(spec)
    if ".." in text:
        a, b = text.split("..", 1)
        return list(range(_number(int, "levels", a), _number(int, "levels", b) + 1))
    return [_number(int, "levels", tok) for tok in text.replace(",", " ").split()]


def _get_problem(opts: dict):
    name = str(opts.get("problem", "example1"))
    problem = get_problem(name,
                          alpha=_number(float, "alpha", opts.get("alpha", 1.0)),
                          beta=_number(float, "beta", opts.get("beta", 0.0)),
                          gamma=_number(float, "gamma", opts.get("gamma", 1.0)))
    given = [key for key in ("alpha", "beta", "gamma") if key in opts]
    if given and not name.startswith("manufactured:"):
        raise ConfigurationError(
            f"--{given[0]} applies only to manufactured:<preset> problems; "
            f"{name} fixes its own coefficients")
    return problem


def _final_time(opts: dict, problem) -> float:
    return _number(float, "T", opts["T"]) if opts.get("T") is not None else problem.T


def _cmd_solve(opts: dict) -> int:
    problem = _get_problem(opts)
    M = _number(int, "M", opts.get("M", 16))
    grid = make_grid(problem.L1, problem.L2, problem.L3, problem.L4, M)
    cfg = _scheme_config(opts)
    T = _final_time(opts, problem)
    dump = opts.get("dump_at")
    if isinstance(dump, str):
        dump = dump.split()
    if dump is not None and not (isinstance(dump, (list, tuple)) and len(dump) == 2):
        raise ConfigurationError(f"dump_at needs a time and a CSV path, got {dump!r}")
    dump_times = [_number(float, "dump_at", dump[0])] if dump else []
    rec = run(problem, grid, cfg, T=T, dump_times=dump_times)
    if rec.failed:
        print(f"run failed: {rec.failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"problem={problem.name} M={M} k={rec.k:.6g} N={rec.N}")
    print(f"sup |U|_2 = {rec.sup_U:.6e}   sup |U|_H2 = {rec.sup_h2_U:.6e}")
    if problem.exact is not None:
        print(f"sup |u|_2 = {rec.sup_u:.6e}   sup error |e|_2 = {rec.sup_err:.6e}")
    outputs = []
    if opts.get("out"):
        path = str(opts["out"])
        lines = ["t,l2_u,l2_U,l2_err"]
        for idx, t in enumerate(rec.times):
            u = f"{rec.l2_u[idx]:.12e}" if rec.l2_u else ""
            e = f"{rec.l2_err[idx]:.12e}" if rec.l2_err else ""
            lines.append(f"{t:.12e},{u},{rec.l2_U[idx]:.12e},{e}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        outputs.append(path)
    if dump:
        t_req = dump_times[0]
        if t_req in rec.snapshots:
            t_actual, fld = rec.snapshots[t_req]
            emit_solution_csv(rec, problem, t_actual, fld, dump[1])
            outputs.append(dump[1])
        else:
            print(f"no snapshot captured at t={t_req}", file=sys.stderr)
    if opts.get("svg"):
        emit_svg(rec.final, str(opts["svg"]))
        outputs.append(str(opts["svg"]))
    if opts.get("manifest"):
        man = make_manifest("solve", problem.name, [M], cfg, T, outputs)
        with open(str(opts["manifest"]), "w") as fh:
            fh.write(man.to_json() + "\n")
    return EXIT_OK


def _cmd_convergence(opts: dict) -> int:
    problem = _get_problem(opts)
    levels = _parse_levels(opts.get("levels", "2..4"))
    cfg = _scheme_config(opts)
    T = _final_time(opts, problem)
    rows = convergence_study(problem, levels, cfg, T=T)
    print(f"{'h':>12} {'k':>12} {'norm_u':>13} {'norm_U':>13} {'error':>13} {'rate':>8}")
    for r in rows:
        if r.failed:
            print(f"{r.h:>12.6g} {'-':>12} {'-':>13} {'-':>13} {'-':>13} {'-':>8}  [{r.note}]")
        else:
            rt = f"{r.rate:8.4f}" if r.rate is not None else "       -"
            nu = f"{r.norm_u:13.6e}" if r.norm_u is not None else "            -"
            er = f"{r.error:13.6e}" if r.error is not None else "            -"
            print(f"{r.h:>12.6g} {r.k:>12.6g} {nu} {r.norm_U:13.6e} {er} {rt}")
    outputs = []
    if opts.get("out"):
        emit_csv(rows, str(opts["out"]))
        outputs.append(str(opts["out"]))
    if opts.get("svg"):
        emit_svg(rows, str(opts["svg"]))
        outputs.append(str(opts["svg"]))
    if opts.get("manifest"):
        man = make_manifest("convergence", problem.name, levels, cfg, T, outputs)
        with open(str(opts["manifest"]), "w") as fh:
            fh.write(man.to_json() + "\n")
    return EXIT_OK


def _cmd_verify(opts: dict) -> int:
    M = _number(int, "M", opts.get("M", 12))
    seed = _number(int, "seed", opts.get("seed", 0))
    report = verify_suite(M=M, seed=seed)
    for line in report.lines():
        print(line)
    print(f"verify: {'all identities hold' if report.all_passed else 'FAILURES'} "
          f"(M={M}, seed={seed})")
    return EXIT_OK if report.all_passed else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merged(args, {})
        if args.command == "solve":
            return _cmd_solve(opts)
        if args.command == "convergence":
            return _cmd_convergence(opts)
        return _cmd_verify(opts)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
