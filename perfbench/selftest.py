"""Self-test of the benchmark on a tiny config; no timing gate.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it warms up and
runs one op on a coarse mesh, then the same op again under the tracer, and
requires that every report passes its checks and repeats byte for byte,
that the tracer puts every wrapped function back, and that the run yields
every per-layer metric BENCHMARK.json names.  It also requires the output
checks to reject a corrupted report and the ledger to count a failing op.
Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import worker  # noqa: E402

TINY = ("--mesh-h", "0.2")
# one value per command that its check must catch when it is off by 1%
CORRUPT = {
    "area": ("plateau", "lower"),
    "plateau": ("plateau", "lower"),
    "tv": ("variation", "total"),
}


def _bound_functions() -> dict:
    return {
        (name, attr): obj
        for name, mod in sorted(sys.modules.items())
        if name == "bvplateau" or name.startswith("bvplateau.")
        for attr, obj in vars(mod).items()
    }


def main() -> int:
    os.chdir(ROOT)
    import bvplateau.cli  # noqa: F401  (loads every module the tracer wraps)

    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    problems = []
    for workload in worker.WORKLOADS:
        before = _bound_functions()
        res = worker.run_workload(workload, 0, count=1, trace=True, extra=TINY)
        if _bound_functions() != before:
            problems.append(f"{workload}: the tracer left functions wrapped")
        if res["failed"] or res["attempted"] < 3:
            problems.append(f"{workload}: {res['attempted']} attempted, {res['failed']} failed: "
                            f"{res['messages']}")
        missing = wanted - set(res["per_layer"])
        if missing:
            problems.append(f"{workload}: no per-layer metric {sorted(missing)}")

        op = worker.build_ops(workload, 0, f"{worker.WORK_DIR}/{workload}", TINY)[0]
        report = json.loads(Path(op.out, "report.json").read_text())
        csv_path = Path(op.out, "report.csv")
        csv_text = csv_path.read_text() if csv_path.exists() else None
        if checks.check_report(op.cmd, op.expect, report, csv_text):
            problems.append(f"{workload}: the stored report of {op.key} fails its check")
        section, key = CORRUPT[op.cmd]
        bad = copy.deepcopy(report)
        bad[section][key] *= 1.01
        if not checks.check_report(op.cmd, op.expect, bad, csv_text):
            problems.append(f"{workload}: a corrupted {section}.{key} passed the check")

        ledger = worker.Ledger()
        missing_file = worker.Op("missing", op.cmd, (op.cmd, "--curve", "no-such-file.json",
                                                     "--out", op.out), op.out, op.expect)
        with contextlib.redirect_stderr(io.StringIO()):
            worker.run_op(bvplateau.cli, missing_file, ledger)
        if ledger.failed != 1:
            problems.append(f"{workload}: an op on a missing file was not counted as failed")
        print(f"{workload}: {res['attempted']} ops, {res['failed']} failed, "
              f"{len(res['per_layer'])} per-layer metrics")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
