"""Smoke test of the benchmark itself, at tiny sizes (M = 8, short horizon).

    python3 -m pytest -q benchmarks

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that a deliberately wrong pinned value drives fail_ratio to 1, and
that the benchmark refuses to run without the library's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((Path(__file__).parent / "rationale.json").read_text())


def tiny(name, seed=0):
    return workloads.build(name, seed, M=8, T=0.05, levels=(2, 3))


def own_pins(wl):
    return wl.outputs(wl.call())


def units_of(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_match_the_code_and_the_rationale():
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == workloads.NAMES
    assert set(RATIONALE["workloads"]) == set(names)
    assert units_of("per_layer") == tracing.PER_LAYER_UNITS
    assert set(RATIONALE["per_layer"]) == set(tracing.PER_LAYER_UNITS)
    assert units_of("end_to_end") == bench.END_TO_END_UNITS


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    wl = tiny(name)
    res = bench.measure(wl, own_pins(wl), 0.0, setup_probes=1)
    assert res["failures"] == []
    assert res["units"] == units_of("end_to_end")
    assert set(res["metrics"]) == set(res["units"])
    assert all(v > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_per_layer_metric_is_emitted_and_tracing_keeps_results(name):
    wl = tiny(name)
    res = bench.measure_traced(wl, own_pins(wl), 0.0)
    assert res["failures"] == []        # includes the bit-identity check
    assert res["unsteady_counts"] == [] and res["missing_hooks"] == []
    assert res["units"] == units_of("per_layer")
    assert set(res["metrics"]) == set(res["units"])
    assert all(v is not None for v in res["metrics"].values())


def test_traced_counts_split_the_layers():
    res = bench.measure_traced(tiny("conv-example1"), own_pins(tiny("conv-example1")), 0.0)
    m = res["metrics"]
    assert m["penta.solve.calls"] >= m["scheme.substeps"] > 0
    assert m["penta.setup.calls"] == 2 * 2      # two solvers per study level
    assert m["penta.line.calls"] == 0
    res = bench.measure_traced(tiny("split-fidelity"), own_pins(tiny("split-fidelity")), 0.0)
    assert res["metrics"]["penta.solve.calls"] == 0
    assert res["metrics"]["penta.line.calls"] > 0


@pytest.mark.parametrize("name", ["conv-example1", "split-fidelity"])
def test_a_wrong_pin_drives_fail_ratio_to_one(name):
    wl = tiny(name)
    pins = own_pins(wl)
    key = next(k for k, v in pins.items() if isinstance(v, float))
    pins[key] *= 1.0 + 1e-9
    res = bench.measure(wl, pins, 0.0, setup_probes=1)
    assert res["attempted"] >= 1
    assert len(res["failures"]) == res["attempted"]


def test_seeded_manufactured_problem_is_checked_by_tolerance():
    wl = tiny("manufactured-source", seed=3)
    assert wl.seeded and wl.problem.alpha != 1.0
    out = wl.outputs(wl.call())
    pins = own_pins(tiny("manufactured-source"))
    tol = workloads.SEEDED_SUP_ERR_TOL       # set for M = 64, not for M = 8
    assert wl.mismatches(dict(out, sup_err=tol / 10), pins) == []
    assert wl.mismatches(dict(out, sup_err=tol * 10), pins) == ["sup_err"]
    assert wl.mismatches(dict(out, sup_err=tol / 10, N=out["N"] + 1),
                         pins) == ["N"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "split-fidelity",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
