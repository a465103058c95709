import csv
import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from sobrlw import (SchemeConfig, convergence_study, emit_csv,
                    emit_solution_csv, emit_svg, example1, example2, example3,
                    get_problem, make_grid, manufactured, rate, run, sample,
                    verify_suite)
from sobrlw import scheme
from sobrlw.cli import _build_parser, _scheme_config, main
from sobrlw.harness import emit_norms_csv, make_manifest
from sobrlw.problems import MANUFACTURED_PRESETS

from _oracles import (full_mesh_solution_csv, inline_norms_csv,
                      per_side_compatibility_mismatch)
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


def test_convergence_study_rows_of_a_refused_and_of_a_failed_level():
    # a ConfigurationError inside run() leaves k unknown; a failed run
    # keeps its k and names its failure
    no_fill = dataclasses.replace(example1(), exact=None, g_extends=False)
    (row,) = convergence_study(no_fill, [2])
    assert row.failed and row.k is None and "needs a reference" in row.note
    stiff = dataclasses.replace(example1(), f1=lambda X, Y, t, U, UX: 1e6 * U)
    (row,) = convergence_study(stiff, [2])
    rec = run(stiff, make_grid(0, 1, 0, 1, 4))
    assert row.failed and row.k == rec.k and row.note == rec.failure
    assert "PicardError" in row.note
    assert (row.norm_u, row.norm_U, row.error, row.rate) == (None,) * 4


def test_convergence_study_rates_chain():
    rows = convergence_study(example1(), [2, 3, 4], SchemeConfig())
    assert rows[0].rate is None
    for prev, cur in zip(rows, rows[1:]):
        assert cur.rate == pytest.approx(np.log2(prev.error / cur.error))


def test_convergence_study_rejects_oversized_level():
    from sobrlw import ConfigurationError
    with pytest.raises(ConfigurationError):
        convergence_study(example1(), [7], SchemeConfig())


@pytest.mark.parametrize("levels", [[2.5, 3], ["3"], [True, 3], [3, None]],
                         ids=["2.5", "str", "bool", "None"])
def test_convergence_study_refuses_a_non_integer_level_before_any_level_runs(
        monkeypatch, levels):
    # level 2.5 used to run M = 5 and report h = 2^-2.5
    from sobrlw import ConfigurationError, harness
    monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a level ran"))
    with pytest.raises(ConfigurationError, match=r"levels must be integers, got \["):
        convergence_study(example1(), levels)


@pytest.mark.parametrize("M", [8.5, "8"], ids=["8.5", "str"])
def test_verify_suite_refuses_a_non_integral_M(M):
    # M = 8.5 used to run M = 8 and report M = 8.5; "8" ended in a raw TypeError
    from sobrlw import ConfigurationError
    with pytest.raises(ConfigurationError, match=f"M must be an integer, got {M!r}"):
        verify_suite(M=M, n_fields=1)


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
    emit_solution_csv(p, t, fld, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,u,U,e"
    assert len(lines) == 1 + 7 * 7


def _trig_rect():
    return manufactured(0.6, 0.5, 0.7, MANUFACTURED_PRESETS["trig"],
                        name="manufactured:trig", bounds=(0.0, 1.0, 0.0, 0.6))


@pytest.mark.parametrize("make", [example1, example2, example3, _trig_rect],
                         ids=["example1", "example2", "example3", "trig-rect"])
@pytest.mark.parametrize("M", [6, 16])
def test_solution_csv_and_compatibility_match_the_full_mesh_oracles(make, M, tmp_path):
    p = make()
    g = make_grid(p.L1, p.L2, p.L3, p.L4, M)
    rec = run(p, g, T=0.25)
    path = tmp_path / "slice.csv"
    emit_solution_csv(p, rec.times[-1], rec.final, str(path))
    assert path.read_bytes() == full_mesh_solution_csv(p, rec.times[-1], rec.final).encode()
    assert p.compatibility_mismatch(M) == per_side_compatibility_mismatch(p, M)


@pytest.mark.parametrize("bump", [lambda X, Y: np.sin(np.pi * Y) * (1.0 - X),
                                  lambda X, Y: np.sin(np.pi * Y) * X,
                                  lambda X, Y: np.sin(np.pi * X) * (1.0 - Y),
                                  lambda X, Y: np.sin(np.pi * X) * Y],
                         ids=["x=0", "x=1", "y=0", "y=1"])
def test_compatibility_sees_a_gap_inside_each_boundary_side(bump):
    exact = example1().exact
    p = dataclasses.replace(example1(), g=lambda X, Y, t: exact(X, Y, t) + bump(X, Y))
    assert p.compatibility_mismatch(8) == per_side_compatibility_mismatch(p, 8) > 0.5


def _broadcast(ref):
    """ref with its result broadcast to the shape of its coordinates."""
    return lambda X, Y, t: np.broadcast_to(ref(X, Y, t), np.broadcast(X, Y).shape)


@pytest.mark.parametrize("ref", [lambda X, Y, t: 0.0,
                                 lambda X, Y, t: np.exp(-t) * np.sin(np.pi * X)],
                         ids=["scalar", "ignores-y"])
def test_readers_of_the_reference_broadcast_a_scalar_or_one_coordinate_result(ref, tmp_path):
    p, want = (dataclasses.replace(example1(), exact=r) for r in (ref, _broadcast(ref)))
    g = make_grid(0, 1, 0, 1, 6)
    fld = sample(g, lambda X, Y, t: np.cos(X + 2.0 * Y))
    for name, problem in (("got", p), ("want", want)):
        emit_solution_csv(problem, 0.5, fld, str(tmp_path / f"{name}.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert p.compatibility_mismatch(8) == want.compatibility_mismatch(8)
    assert p.compatibility_mismatch(8) > 0.0
    assert want.compatibility_mismatch(8) == per_side_compatibility_mismatch(want, 8)
    assert (sample(g, ref, 0.5).values.tobytes()
            == sample(g, _broadcast(ref), 0.5).values.tobytes())


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


def test_manifest_config_holds_every_scheme_config_field():
    cfg = SchemeConfig(stepper="split", k_rule=0.01)
    config = make_manifest("solve", "example1", [8], cfg, 1.0, []).config
    assert list(config) == [f.name for f in dataclasses.fields(SchemeConfig)]
    assert config == {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


# --------------------------------------------------------------------------
# command-line interface


def test_cli_verify_ok(capsys):
    assert main(["verify", "--M", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "all identities hold" in out


def test_cli_verify_help_shows_the_defaults_of_verify_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    params = inspect.signature(verify_suite).parameters
    for flag, name in (("--M M", "M"), ("--seed SEED", "seed")):
        assert re.search(rf"{flag} [^(]*\(default {params[name].default}\)", out), flag


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


@pytest.mark.parametrize("make", [example1, lambda: dataclasses.replace(example1(), exact=None)],
                         ids=["reference", "no-reference"])
def test_norms_csv_is_bytewise_the_inline_writer(make, tmp_path):
    p = make()
    rec = run(p, make_grid(0, 1, 0, 1, 8), SchemeConfig(boundary_mode="paper_copy"))
    path = tmp_path / "norms.csv"
    emit_norms_csv(rec, str(path))
    assert path.read_bytes() == inline_norms_csv(rec).encode()
    assert (",," in path.read_text()) == (p.exact is None)


@pytest.mark.parametrize("t", ["5", "-1"])
def test_cli_dump_time_outside_0_T_is_config_error_and_writes_nothing(t, tmp_path, capsys):
    dump = tmp_path / "s.csv"
    code = main(["solve", "--problem", "example1", "--M", "8", "--dump-at", t, str(dump)])
    assert code == 2 and not dump.exists()
    assert "outside [0, T=1]" in capsys.readouterr().err


def test_cli_scheme_config_leaves_every_default_to_scheme_config():
    assert _scheme_config({}) == SchemeConfig()
    assert _scheme_config({"k": "auto"}) == SchemeConfig()
    assert _scheme_config({"boundary": "paper-copy", "k": "0.5"}) == SchemeConfig(
        boundary_mode="paper_copy", k_rule=0.5)


def test_cli_mode_choices_are_the_scheme_config_choices():
    solve = next(a for a in _build_parser()._actions if a.dest == "command").choices["solve"]
    choices = {a.dest: tuple(a.choices) for a in solve._actions if a.choices}
    assert choices == {"stepper": scheme.STEPPERS, "rhs_sign": scheme.RHS_SIGNS,
                       "leapfrog_alpha": scheme.LEAPFROG_ALPHAS,
                       "boundary": ("exact", "paper-copy")}
    assert scheme.BOUNDARY_MODES == ("exact", "paper_copy")


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


def test_cli_coefficients_reach_manufactured_problems_only(monkeypatch, capsys):
    seen = []

    def recording(name, **coefficients):
        seen.append(coefficients)
        return get_problem(name, **coefficients)

    monkeypatch.setattr("sobrlw.cli.get_problem", recording)
    argv = ["solve", "--problem", "manufactured:poly", "--M", "8", "--T", "0.05"]
    assert main(argv + ["--beta", "0.3"]) == 0
    assert seen == [{"beta": 0.3}]      # alpha and gamma keep the library's 1, 1
    assert "problem=manufactured:poly" in capsys.readouterr().out
    assert main(["solve", "--problem", "example2", "--M", "8", "--gamma", "0.5"]) == 2
    assert "gamma applies only to manufactured:<preset>" in capsys.readouterr().err
    assert main(["solve", "--problem", "nope", "--alpha", "0.5"]) == 2
    assert "unknown problem 'nope'" in capsys.readouterr().err


def test_cli_config_file_dump_at(tmp_path, capsys):
    dump = tmp_path / "slice.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem = example1\nM = 8\ndump-at = 0.5 {dump}\n")
    assert main(["solve", "--config", str(cfgfile)]) == 0
    assert dump.read_text().startswith("x,y,u,U,e")
