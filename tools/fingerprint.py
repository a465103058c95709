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
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace

import numpy as np

from sobrlw import (SchemeConfig, example1, example2, example3, get_problem,
                    make_grid, manufactured, run)
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
    *(("example1", example1, M, {}, None) for M in (4, 8, 16, 32, 64)),
    ("example1 split", example1, 64, {"stepper": "split"}, None),
    ("manufactured:wave T=0.125", lambda: get_problem("manufactured:wave"), 64, {}, 0.125),
    ("manufactured:poly", lambda: get_problem("manufactured:poly"), 16, {}, None),
    *((f"trig-rect {s}", _trig_rect, M, {"stepper": s}, None)
      for s in ("coupled", "split") for M in (4, 5, 6, 7, 16)),
    ("trig-rect leapfrog_alpha=off", _trig_rect, 16, {"leapfrog_alpha": "off"}, None),
    ("sin-exp", _sin_exp, 16, {}, None),
    # transport with little mass: complex x-eigenmode pairs in every solve
    ("trig alpha=0.001 beta=1 gamma=0",
     lambda: get_problem("manufactured:trig", 0.001, 1.0, 0.0), 8, {}, None),
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
