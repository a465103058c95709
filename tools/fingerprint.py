"""Fingerprints of solver runs, to check that a change keeps every result bit for bit.

    PYTHONPATH=src python tools/fingerprint.py > old.json
    (change the code)
    PYTHONPATH=src python tools/fingerprint.py --against old.json

A fingerprint of one `run()` reads `<values>-<counts>`: the first 16 hex
digits of a SHA-256 over the bytes of the final field, the level times and
all six per-level norm series (l2 and h2 of U, of the reference u and of the
error), then the first 8 of one over the recorded solve counts, so that a
change which only re-counts shows as such.  The six sup norms are maxima of
these series; hashing each whole series also catches a value that moves
below its series maximum.  The JSON maps each configuration name to its
fingerprint.  With ``--against`` the differing names go to stderr and the
exit status is 1 if any fingerprint differs or a configuration is missing.
``--M n`` runs every configuration at M = n (a quick check; names say the M
used).

Three more fingerprints cover what lies outside `run()`: the rows of one
`convergence_study(example1(), range(1, 5))` (every field but the note, by
`repr`, which round-trips each float), and the bytes of the files that one
`sobrlw solve --out --dump-at --svg` and one `sobrlw convergence --out --svg`
write into a temporary directory.

Seven more hash the public single sub-steps on the 1 x 0.6 trig rectangle
at M = 16 (or the M given): `init_half_step` and `advance` with each
stepper, and `cn_x_step`, `cn_y_step` and `leapfrog_x_step`, each the
first 16 hex digits of a SHA-256 over the bytes of the fields returned.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from sobrlw import (ConvergenceRow, SchemeConfig, SchemeState, advance, cn_x_step,
                    cn_y_step, convergence_study, example1, example2, example3,
                    get_problem, init_half_step, leapfrog_x_step, make_grid,
                    manufactured, run, sample, time_step_rule)
from sobrlw.cli import main as cli_main
from sobrlw.problems import MANUFACTURED_PRESETS


def _trig_rect():
    return manufactured(0.6, 0.5, 0.7, MANUFACTURED_PRESETS["trig"],
                        name="manufactured:trig", bounds=(0.0, 1.0, 0.0, 0.6))


def _sin_exp():
    """A reference that is not a product of one-coordinate factors."""
    return manufactured(0.8, 0.5, 0.6,
                        lambda X, Y, t: np.sin(np.pi * (X + Y - t)) * np.exp(X * Y),
                        name="manufactured:sin-exp")


# (label, problem factory, M, SchemeConfig keywords, T or None for problem.T)
CONFIGURATIONS = (
    *(("example1", example1, M, {}, None) for M in (4, 8, 16, 32, 64, 128)),
    # M = 128 puts the line solves at n = 125
    *(("example1 split", example1, M, {"stepper": "split"}, None) for M in (64, 128)),
    ("manufactured:wave T=0.125", lambda: get_problem("manufactured:wave"), 64, {}, 0.125),
    ("manufactured:poly", lambda: get_problem("manufactured:poly"), 16, {}, None),
    *((f"trig-rect {s}", _trig_rect, M, {"stepper": s}, None)
      for s in ("coupled", "split") for M in (4, 5, 6, 7, 16)),
    ("trig-rect leapfrog_alpha=off", _trig_rect, 16, {"leapfrog_alpha": "off"}, None),
    ("sin-exp", _sin_exp, 16, {}, None),
    # transport with little mass: complex x-eigenmode pairs in every solve
    # (at M = 64 those of alpha = 0.001 are real; alpha = 1e-6 keeps 30 pairs)
    *(("trig alpha=0.001 beta=1 gamma=0",
       lambda: get_problem("manufactured:trig", 0.001, 1.0, 0.0), M, {}, None)
      for M in (8, 64)),
    ("trig alpha=1e-6 beta=1 gamma=0",
     lambda: get_problem("manufactured:trig", 1e-6, 1.0, 0.0), 64, {}, None),
    ("example2", example2, 16, {}, None),
    ("example3", example3, 16, {}, None),
    ("example3 split", example3, 16, {"stepper": "split"}, None),
    ("example1 paper_copy", example1, 16, {"boundary_mode": "paper_copy"}, None),
    ("example1 split paper_copy", example1, 16,
     {"stepper": "split", "boundary_mode": "paper_copy"}, None),
    ("example1 rhs_sign=paper", example1, 16, {"rhs_sign": "paper"}, None),
    # no reference: the per-level norms are of U alone
    ("example1 no reference paper_copy", lambda: replace(example1(), exact=None), 16,
     {"boundary_mode": "paper_copy"}, None),
)


SERIES = ("l2_u", "l2_U", "l2_err", "h2_u", "h2_U", "h2_err")


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.asarray(part).tobytes())
    return digest.hexdigest()


def fingerprint(rec) -> str:
    """`<values>-<counts>` of one SolutionRecord (see the module docstring)."""
    values = _digest(rec.final.values, rec.times, *(getattr(rec, name) for name in SERIES))
    return f"{values[:16]}-{_digest(rec.diagnostics.picard_iterations)[:8]}"


def study_fingerprint(rows) -> str:
    """First 16 hex digits of a SHA-256 over every row field but the note."""
    names = [f.name for f in fields(ConvergenceRow) if f.name != "note"]
    text = repr([[getattr(row, name) for name in names] for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_fingerprint(argv, outputs) -> str:
    """First 16 hex digits of a SHA-256 over the files that one CLI call
    writes, in the order given; each name in outputs is placed in a
    temporary directory and in argv where it appears there."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in outputs]
        argv = [paths[outputs.index(a)] if a in outputs else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            return f"exit {code}"
        digest = hashlib.sha256()
        for path in paths:
            digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:16]


def substep_fingerprints(M: int) -> dict:
    """Fingerprint of each public single sub-step on the trig rectangle at M,
    each from the problem's own fields at t = 0, k/2 and k."""
    p = _trig_rect()
    grid = make_grid(p.L1, p.L2, p.L3, p.L4, M)
    k = time_step_rule(grid.hx, grid.hy)
    U0 = sample(grid, lambda X, Y, t: p.u0(X, Y))
    U1 = sample(grid, p.exact, k)
    coupled, split = SchemeConfig(), SchemeConfig(stepper="split")
    half = init_half_step(U0, p, k, split)
    state = SchemeState(n=1, U_half=half, U_int=U1)
    advanced = {name: advance(state, p, k, cfg)
                for name, cfg in (("coupled", coupled), ("split", split))}
    results = {
        "init_half_step coupled": [init_half_step(U0, p, k, coupled)],
        "init_half_step split": [half],
        "cn_x_step": [cn_x_step(U1, k, k, p, split)],
        "cn_y_step": [cn_y_step(half, 0.5 * k, k, p, split)],
        "leapfrog_x_step": [leapfrog_x_step(half, U1, k, k, p, split)],
        **{f"advance {name}": [new.U_half, new.U_int] for name, new in advanced.items()},
    }
    return {f"{label} trig-rect M={M}": _digest(*(f.values for f in out))[:16]
            for label, out in results.items()}


def fingerprints(M=None) -> dict:
    """Fingerprint of every configuration, at its own M or at the given one."""
    out = {}
    for label, make, M_own, cfg, T in CONFIGURATIONS:
        size = M_own if M is None else M
        name = f"{label} M={size}"
        if name in out:     # under --M, sizes of one label collapse into one
            continue
        p = make()
        rec = run(p, make_grid(p.L1, p.L2, p.L3, p.L4, size), SchemeConfig(**cfg), T=T)
        out[name] = fingerprint(rec)
    out["convergence_study example1 levels 1..4"] = study_fingerprint(
        convergence_study(example1(), range(1, 5)))
    size = 16 if M is None else M
    out[f"cli solve example1 --out --dump-at --svg M={size}"] = cli_fingerprint(
        ["solve", "--problem", "example1", "--M", str(size), "--out", "norms.csv",
         "--dump-at", "0.5", "slice.csv", "--svg", "field.svg"],
        ["norms.csv", "slice.csv", "field.svg"])
    out["cli convergence example1 --levels 2..4 --out --svg"] = cli_fingerprint(
        ["convergence", "--problem", "example1", "--levels", "2..4",
         "--out", "table.csv", "--svg", "rates.svg"],
        ["table.csv", "rates.svg"])
    out.update(substep_fingerprints(size))
    return out


def differences(new: dict, old: dict) -> list:
    """Names whose fingerprints differ or that only one side has."""
    return sorted(name for name in new.keys() | old.keys()
                  if new.get(name) != old.get(name))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", metavar="OLD_JSON",
                    help="compare with an earlier output; exit 1 on any difference")
    ap.add_argument("--M", type=int, help="run every configuration at this M")
    args = ap.parse_args(argv)
    new = fingerprints(args.M)
    print(json.dumps(new, indent=1))
    if args.against is None:
        return 0
    with open(args.against) as fh:
        old = json.load(fh)
    diff = differences(new, old)
    for name in diff:
        print(f"differs: {name}: {old.get(name)} -> {new.get(name)}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
