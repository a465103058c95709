"""Command-line interface: single solves, convergence studies, identity checks.

    sobrlw solve [--problem NAME] [--M M] [scheme flags] [--out CSV]
                 [--dump-at T CSV] [--svg SVG] [--manifest JSON]
    sobrlw convergence [--problem NAME] [--levels A..B] [scheme flags] [--out CSV]
                       [--svg SVG] [--manifest JSON]
    sobrlw verify [--M M] [--seed SEED]

`sobrlw <command> --help` lists each flag with its choices and default,
which come from the library's constants, SchemeConfig, the signature of
verify_suite and the DEFAULT_* constants below.  A config file (JSON or
key=value lines) can supply any flag's value; command-line arguments
override it.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys

from .errors import ConfigurationError, NumericalError
from .grid import make_grid
from .harness import (convergence_study, emit_csv, emit_norms_csv,
                      emit_solution_csv, emit_svg, make_manifest, verify_suite)
from .problems import MANUFACTURED_PRESETS, get_problem
from .scheme import (BOUNDARY_MODES, LEAPFROG_ALPHAS, RHS_SIGNS, STEPPERS,
                     SchemeConfig, run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_PROBLEM = "example1"
DEFAULT_M = 16
DEFAULT_LEVELS = "2..4"


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
    # defaults stay None so that a config file can fill them in (_merged);
    # the help states the values that apply then
    scheme = SchemeConfig()
    verify = inspect.signature(verify_suite).parameters

    def add_common(p):
        p.add_argument("--config", help="config file (JSON or key=value lines)")
        p.add_argument("--problem",
                       help="example1|example2|example3|manufactured:<preset>, "
                            f"<preset> one of {', '.join(MANUFACTURED_PRESETS)} "
                            f"(default {DEFAULT_PROBLEM})")
        p.add_argument("--alpha", type=float,
                       help="model coefficient for manufactured problems")
        p.add_argument("--beta", type=float,
                       help="model coefficient for manufactured problems")
        p.add_argument("--gamma", type=float,
                       help="model coefficient for manufactured problems")
        p.add_argument("--T", type=float, help="final time (default: problem's)")
        p.add_argument("--k", default=None,
                       help="time step: 'auto' (h^(4/3) rule) or a number "
                            f"(default {scheme.k_rule})")
        p.add_argument("--boundary",
                       choices=[m.replace("_", "-") for m in BOUNDARY_MODES],
                       help="boundary-layer filling mode (default "
                            f"{scheme.boundary_mode.replace('_', '-')})")
        p.add_argument("--rhs-sign", choices=RHS_SIGNS,
                       help="sign of the trapezoid operator on the RHS "
                            f"(default {scheme.rhs_sign})")
        p.add_argument("--leapfrog-alpha", choices=LEAPFROG_ALPHAS,
                       help="carry alpha in the three-level mass operator "
                            f"(default {scheme.leapfrog_alpha})")
        p.add_argument("--stepper", choices=STEPPERS,
                       help="coupled full-mass stepper or literal directional "
                            f"splitting (default {scheme.stepper})")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--svg", help="output SVG path")
        p.add_argument("--manifest", help="write a JSON run manifest here")

    p_solve = sub.add_parser("solve", help="single run at one resolution")
    add_common(p_solve)
    p_solve.add_argument("--M", type=int,
                         help=f"subdivisions per axis (default {DEFAULT_M})")
    p_solve.add_argument("--dump-at", nargs=2, metavar=("T", "CSV"),
                         help="write an x,y,u,U,e slice at time T")

    p_conv = sub.add_parser("convergence", help="grid refinement study")
    add_common(p_conv)
    p_conv.add_argument("--levels", help="refinement levels, e.g. 2..4 or 2,3,4 "
                                         f"(default {DEFAULT_LEVELS})")

    p_ver = sub.add_parser("verify", help="discrete-identity verification suite")
    p_ver.add_argument("--config", help="config file")
    p_ver.add_argument("--M", type=int,
                       help=f"grid subdivisions (default {verify['M'].default})")
    p_ver.add_argument("--seed", type=int,
                       help=f"random seed (default {verify['seed'].default})")
    return parser


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values fill in anything the command line left unset."""
    merged = {}
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
    """SchemeConfig of the options given; SchemeConfig supplies the rest."""
    given = {key: str(opts[key]) for key in ("stepper", "rhs_sign", "leapfrog_alpha")
             if key in opts}
    if "boundary" in opts:
        given["boundary_mode"] = str(opts["boundary"]).replace("-", "_")
    if opts.get("k", "auto") != "auto":
        given["k_rule"] = _number(float, "k", opts["k"])
    return SchemeConfig(**given)


def _parse_levels(spec) -> list:
    if isinstance(spec, (list, tuple)):
        return [_number(int, "levels", v) for v in spec]
    text = str(spec)
    if ".." in text:
        a, b = text.split("..", 1)
        return list(range(_number(int, "levels", a), _number(int, "levels", b) + 1))
    return [_number(int, "levels", tok) for tok in text.replace(",", " ").split()]


def _get_problem(opts: dict):
    """The named problem; get_problem refuses coefficients for example1-3."""
    given = {key: _number(float, key, opts[key])
             for key in ("alpha", "beta", "gamma") if key in opts}
    return get_problem(str(opts.get("problem", DEFAULT_PROBLEM)), **given)


def _final_time(opts: dict, problem) -> float:
    return _number(float, "T", opts["T"]) if opts.get("T") is not None else problem.T


def _write_manifest(opts: dict, command: str, problem, levels, cfg, T, outputs):
    if opts.get("manifest"):
        man = make_manifest(command, problem.name, levels, cfg, T, outputs)
        with open(str(opts["manifest"]), "w") as fh:
            fh.write(man.to_json() + "\n")


def _cmd_solve(opts: dict) -> int:
    problem = _get_problem(opts)
    M = _number(int, "M", opts.get("M", DEFAULT_M))
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
        emit_norms_csv(rec, str(opts["out"]))
        outputs.append(str(opts["out"]))
    if dump:        # run() refused a time outside [0, T], so it was captured
        t_actual, fld = rec.snapshots[dump_times[0]]
        emit_solution_csv(problem, t_actual, fld, dump[1])
        outputs.append(dump[1])
    if opts.get("svg"):
        emit_svg(rec.final, str(opts["svg"]))
        outputs.append(str(opts["svg"]))
    _write_manifest(opts, "solve", problem, [M], cfg, T, outputs)
    return EXIT_OK


def _cmd_convergence(opts: dict) -> int:
    problem = _get_problem(opts)
    levels = _parse_levels(opts.get("levels", DEFAULT_LEVELS))
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
    _write_manifest(opts, "convergence", problem, levels, cfg, T, outputs)
    return EXIT_OK


def _cmd_verify(opts: dict) -> int:
    given = {key: _number(int, key, opts[key]) for key in ("M", "seed") if key in opts}
    report = verify_suite(**given)
    for line in report.lines():
        print(line)
    print(f"verify: {'all identities hold' if report.all_passed else 'FAILURES'} "
          f"(M={report.M}, seed={report.seed})")
    return EXIT_OK if report.all_passed else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merged(args)
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
