import csv
import json

import numpy as np
import pytest

from sobrlw import (SchemeConfig, convergence_study, emit_csv,
                    emit_solution_csv, emit_svg, example1, make_grid, rate,
                    run, verify_suite)
from sobrlw.cli import main
from sobrlw.harness import make_manifest

from test_scheme import zero_problem


def test_rate_quadruple():
    assert rate(4.0e-3, 1.0e-3) == 2.0


def test_rate_equal_errors():
    assert rate(5e-4, 5e-4) == 0.0


def test_rate_benchmark_table_pair():
    # log2(1.0113e-2 / 1.7103e-3) = 2.564, not the 2.5738 printed alongside
    # those same errors; the published rate column is internally inconsistent
    r = rate(1.0113e-2, 1.7103e-3)
    assert abs(r - 2.564) < 1.5e-3
    assert abs(r - 2.5738) > 5e-3


def test_rate_undefined_cases():
    assert rate(0.0, 1e-3) is None
    assert rate(1e-3, 0.0) is None
    assert rate(None, 1e-3) is None
    assert rate(np.nan, 1e-3) is None


def test_convergence_study_zero_problem():
    rows = convergence_study(zero_problem(), [2, 3], SchemeConfig())
    assert all(not r.failed for r in rows)
    assert all(r.error == 0.0 for r in rows)
    assert all(r.rate is None for r in rows)


def test_convergence_study_marks_degenerate_level():
    rows = convergence_study(example1(), [1, 2], SchemeConfig())
    assert rows[0].failed and "M=2" in rows[0].note
    assert not rows[1].failed
    assert rows[1].rate is None     # chain broken by the failed level


def test_convergence_study_rates_chain():
    rows = convergence_study(example1(), [2, 3, 4], SchemeConfig())
    assert rows[0].rate is None
    for prev, cur in zip(rows, rows[1:]):
        assert cur.rate == pytest.approx(np.log2(prev.error / cur.error))


def test_convergence_study_rejects_oversized_level():
    from sobrlw import ConfigurationError
    with pytest.raises(ConfigurationError):
        convergence_study(example1(), [7], SchemeConfig())


def test_verify_suite_passes_across_seeds_and_sizes():
    for M in (8, 12, 16):
        for seed in range(10):
            rep = verify_suite(M=M, seed=seed, n_fields=2)
            assert rep.all_passed, (M, seed)


def test_verify_suite_minimum_size():
    from sobrlw import ConfigurationError
    with pytest.raises(ConfigurationError):
        verify_suite(M=6)


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == "h,k,norm_u,norm_U,error,rate\n"


def test_emit_csv_single_row_blank_rate(tmp_path):
    rows = convergence_study(example1(), [3], SchemeConfig())
    path = tmp_path / "one.csv"
    emit_csv(rows, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",")      # blank rate cell


def test_emit_csv_deterministic(tmp_path):
    cfg = SchemeConfig()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(convergence_study(example1(), [2, 3], cfg), str(a))
    emit_csv(convergence_study(example1(), [2, 3], cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_rates_recomputable_from_csv(tmp_path):
    rows = convergence_study(example1(), [2, 3, 4], SchemeConfig())
    path = tmp_path / "t.csv"
    emit_csv(rows, str(path))
    with open(path) as fh:
        data = list(csv.DictReader(fh))
    for prev, cur in zip(data, data[1:]):
        want = np.log2(float(prev["error"]) / float(cur["error"]))
        assert abs(float(cur["rate"]) - want) <= 1e-12


def test_emit_solution_csv(tmp_path):
    p = example1()
    g = make_grid(0, 1, 0, 1, 6)
    rec = run(p, g, SchemeConfig(), dump_times=[0.5])
    (t, fld), = rec.snapshots.values()
    path = tmp_path / "slice.csv"
    emit_solution_csv(rec, p, t, fld, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,u,U,e"
    assert len(lines) == 1 + 7 * 7


def test_emit_svg_rate_chart(tmp_path):
    rows = convergence_study(example1(), [2, 3, 4], SchemeConfig())
    path = tmp_path / "chart.svg"
    emit_svg(rows, str(path))
    text = path.read_text()
    assert text.startswith("<svg") and "slope -8/3" in text


def test_emit_svg_heatmap(tmp_path):
    p = example1()
    g = make_grid(0, 1, 0, 1, 6)
    rec = run(p, g, SchemeConfig())
    path = tmp_path / "field.svg"
    emit_svg(rec.final, str(path))
    assert path.read_text().startswith("<svg")


def test_manifest_round_trips():
    man = make_manifest("convergence", "example1", [2, 3], SchemeConfig(),
                        1.0, ["out.csv"])
    loaded = json.loads(man.to_json())
    assert loaded["problem"] == "example1"
    assert loaded["config"]["stepper"] == "coupled"
    assert loaded["levels"] == [2, 3]


# --------------------------------------------------------------------------
# command-line interface


def test_cli_verify_ok(capsys):
    assert main(["verify", "--M", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "all identities hold" in out


def test_cli_unknown_problem_is_config_error(capsys):
    assert main(["solve", "--problem", "nope", "--M", "8"]) == 2


def test_cli_bad_grid_is_config_error():
    assert main(["solve", "--problem", "example1", "--M", "3"]) == 2


def test_cli_solve_with_outputs(tmp_path, capsys):
    out = tmp_path / "norms.csv"
    svg = tmp_path / "f.svg"
    dump = tmp_path / "slice.csv"
    code = main(["solve", "--problem", "example1", "--M", "8",
                 "--out", str(out), "--svg", str(svg),
                 "--dump-at", "0.5", str(dump)])
    assert code == 0
    assert out.read_text().startswith("t,l2_u,l2_U,l2_err")
    assert svg.read_text().startswith("<svg")
    assert dump.read_text().startswith("x,y,u,U,e")


def test_cli_convergence_with_manifest(tmp_path):
    out = tmp_path / "conv.csv"
    man = tmp_path / "manifest.json"
    code = main(["convergence", "--problem", "example1", "--levels", "2..3",
                 "--out", str(out), "--manifest", str(man)])
    assert code == 0
    assert out.read_text().startswith("h,k,")
    assert json.loads(man.read_text())["command"] == "convergence"


def test_cli_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem = example1\nM = 8\nrhs-sign = derived\n")
    code = main(["solve", "--config", str(cfgfile), "--M", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "M=6" in out            # command line overrides the file


def test_cli_config_file_json(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"problem": "example1", "M": 8}))
    assert main(["solve", "--config", str(cfgfile)]) == 0
    assert "M=8" in capsys.readouterr().out


def test_cli_explicit_k(tmp_path, capsys):
    assert main(["solve", "--problem", "example1", "--M", "8",
                 "--k", "0.125"]) == 0
    assert "N=8" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # the explicit-midpoint sweep of the split stepper is violently unstable
    # at k far above the h^(4/3) scale; the run must fail with exit code 3
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve", "--problem", "example1", "--M", "8",
                     "--stepper", "split", "--k", "50", "--T", "20000"])
    assert code == 3


def test_cli_mode_flags_are_plumbed(capsys):
    code = main(["solve", "--problem", "example1", "--M", "8",
                 "--boundary", "paper-copy", "--rhs-sign", "paper",
                 "--leapfrog-alpha", "off", "--stepper", "split"])
    assert code == 0
    assert "sup error" in capsys.readouterr().out


def test_cli_io_error_exit_code(tmp_path):
    code = main(["convergence", "--problem", "example1", "--levels", "2..2",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "t.csv")])
    assert code == 4


@pytest.mark.parametrize("argv, config", [
    (["solve", "--problem", "example1", "--M", "8", "--k", "abc"], None),
    (["convergence", "--problem", "example1", "--levels", "a..b"], None),
    (["solve", "--problem", "example1", "--M", "8", "--T", "nan"], None),
    (["solve", "--problem", "example1", "--M", "8", "--k", "inf"], None),
    (["solve"], "problem = example1\nM = abc\n"),
    (["solve"], '{"problem": "example1", "M": [8]}'),
    (["solve"], '{"problem": "example1", "M": 8,}'),
    (["solve"], "problem = example1\nM = 8\nstepr = split\n"),
    (["solve"], '{"problem": "example1", "M": 8, "dump_at": 0.5}'),
    (["solve"], '{"problem": "example1", "M": 8.7}'),
    (["solve"], '{"problem": "example1", "M": true}'),
    (["solve"], '{"problem": "example1", "M": Infinity}'),
    (["solve"], '{"problem": "example1", "M": 8, "T": true}'),
    (["convergence"], '{"problem": "example1", "levels": [2, 2.5]}'),
    (["verify"], '{"M": 8, "seed": 0.5}'),
    (["verify"], '{"M": 8, "seed": false}'),
    # model coefficients apply only to manufactured problems
    (["solve", "--problem", "example1", "--M", "8", "--alpha", "0.5",
      "--beta", "0.3"], None),
    (["solve", "--M", "8", "--gamma", "0.5"], None),
    (["convergence", "--problem", "example2", "--levels", "2..2",
      "--beta", "0.1"], None),
    (["solve"], "problem = example3\nM = 8\nalpha = 0.5\n"),
], ids=["k-abc", "levels-a..b", "T-nan", "k-inf", "config-M-abc",
        "json-list-value", "json-malformed", "config-unknown-key",
        "json-dump-at-scalar", "json-M-fractional", "json-M-bool", "json-M-inf",
        "json-T-bool", "json-levels-fractional", "json-seed-fractional",
        "json-seed-bool", "example1-alpha-beta", "default-problem-gamma",
        "example2-beta", "config-example3-alpha"])
def test_cli_malformed_input_is_config_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_config_file_dump_at(tmp_path, capsys):
    dump = tmp_path / "slice.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem = example1\nM = 8\ndump-at = 0.5 {dump}\n")
    assert main(["solve", "--config", str(cfgfile)]) == 0
    assert dump.read_text().startswith("x,y,u,U,e")
