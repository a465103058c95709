"""tools/fingerprint.py: run fingerprints repeat exactly and flag any change."""
import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from sobrlw import Field, example1, make_grid, run

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprints_repeat_and_a_changed_one_exits_1(tool, tmp_path, capsys):
    assert tool.main(["--M", "8"]) == 0
    first = json.loads(capsys.readouterr().out)
    # the 17 run labels, the CLI solve and the 7 sub-step labels say their M;
    # the two studies their levels
    assert len(first) == 27 and sum(name.endswith(" M=8") for name in first) == 25
    old = tmp_path / "old.json"
    old.write_text(json.dumps(first))
    assert tool.main(["--M", "8", "--against", str(old)]) == 0
    assert json.loads(capsys.readouterr().out) == first

    changed = dict(first, **{"example1 M=8": "0" * 16})
    changed.pop("example2 M=8")
    old.write_text(json.dumps(changed))
    assert tool.main(["--M", "8", "--against", str(old)]) == 1
    err = capsys.readouterr().err
    assert "example1 M=8" in err and "example2 M=8" in err
    assert err.count("differs:") == 2


def test_fingerprint_sees_one_ulp_of_the_final_field(tool):
    rec = run(example1(), make_grid(0.0, 1.0, 0.0, 1.0, 8))
    values, counts = tool.fingerprint(rec).split("-")
    assert tool.fingerprint(rec) == f"{values}-{counts}"
    v = np.array(rec.final.values)
    v[4, 4] = np.nextafter(v[4, 4], np.inf)
    rec.final = Field(rec.final.grid, v)
    new_values, new_counts = tool.fingerprint(rec).split("-")
    assert new_values != values and new_counts == counts


def test_a_changed_count_changes_only_the_counts_part(tool):
    rec = run(example1(), make_grid(0.0, 1.0, 0.0, 1.0, 8))
    values, counts = tool.fingerprint(rec).split("-")
    assert len(values) == 16 and len(counts) == 8
    rec.diagnostics.picard_iterations[-1] += 1
    new_values, new_counts = tool.fingerprint(rec).split("-")
    assert new_values == values and new_counts != counts


@pytest.fixture(scope="module")
def example1_record():
    return run(example1(), make_grid(0.0, 1.0, 0.0, 1.0, 8))


@pytest.mark.parametrize("name", ["times", "l2_u", "l2_U", "l2_err", "h2_u", "h2_U", "h2_err"])
def test_fingerprint_sees_one_ulp_of_a_level_below_the_series_maximum(tool, example1_record, name):
    rec = copy.deepcopy(example1_record)
    values, counts = tool.fingerprint(rec).split("-")
    series = getattr(rec, name)
    low = series.index(min(series))
    sups = [rec.sup_u, rec.sup_U, rec.sup_err, rec.sup_h2_u, rec.sup_h2_U, rec.sup_h2_err]
    series[low] = float(np.nextafter(series[low], np.inf))
    assert series[low] < max(series)
    assert [rec.sup_u, rec.sup_U, rec.sup_err, rec.sup_h2_u, rec.sup_h2_U, rec.sup_h2_err] == sups
    new_values, new_counts = tool.fingerprint(rec).split("-")
    assert new_values != values and new_counts == counts
