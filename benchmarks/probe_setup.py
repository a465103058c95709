"""Set-up time of one workload in a fresh process.

    python3 benchmarks/probe_setup.py <workload> <seed>

Prints the seconds spent importing sobrlw (and with it numpy) and building
the workload's problem, grid and config.  bench.py runs it several times and
reports the median as setup_s.
"""
import sys
import time
from pathlib import Path

start = time.perf_counter()
here = Path(__file__).resolve().parent
sys.path[:0] = [str(here), str(here.parent / "src")]
import workloads  # noqa: E402  (imports sobrlw and numpy)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
