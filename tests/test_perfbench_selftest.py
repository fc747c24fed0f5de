"""The benchmark harness still runs against the library.

perfbench/selftest.py runs one op of every workload on a tiny config and
checks the harness's hooks into the library; its reports go to the
git-ignored .bench_out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
