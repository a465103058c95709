"""Each demo runs to completion from a copy in a scratch directory and
writes its CSV and SVG files next to that copy."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES = {
    "02_single_solve.py": ["single_solve_slice.csv", "single_solve_field.svg"],
    "03_convergence_tables.py": [f"{kind}_example{n}.{ext}" for n in (1, 2, 3)
                                 for kind, ext in (("table", "csv"), ("rates", "svg"))],
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_and_writes_its_files(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in WRITES.get(demo.name, []):
        assert (tmp_path / name).stat().st_size > 0, name
