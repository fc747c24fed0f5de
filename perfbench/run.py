"""Benchmark of the bvplateau CLI: one run of one workload (or of each in turn).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  With --trace 0 the run measures set-up time (median of several
fresh interpreters importing bvplateau.cli), then starts one worker
process that generates the seed's curve files, warms up, and calls
bvplateau.cli.main on them in a closed loop for S seconds, checking every
report.  With --trace 1 the worker times the same number of ops again with
every public function of the package wrapped in a span, and reports
per-layer figures instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the metric names,
units and bounds are those of BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(worker.WORKLOADS)
SETUP_LAUNCHES = 15
AS_CAP_BYTES = 2 << 30  # address-space cap of every child process
RUN_LIMIT_S = 175.0  # the whole run, set-up included, ends before this
IMPORT_CODE = "import time, bvplateau.cli; print(repr(time.time()))"


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(argv: list[str], env: dict[str, str], timeout: float) -> str:
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, preexec_fn=_cap_address_space, check=True)
    return proc.stdout


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Start-to-import time of fresh interpreters.  One launch first fills
    the bytecode caches, as an installed package would have them."""
    argv = [sys.executable, "-c", IMPORT_CODE]
    _run_child(argv, env, 60.0)
    values = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.time()
        out = _run_child(argv, env, 60.0)
        values.append(float(out.split()[-1]) - t0)
    return values


def run(workload: str, seed: int, seconds: int, trace: int, wanted: list[dict]) -> int:
    """One run: print its figures, then the JSON result line."""
    start = time.monotonic()
    env = _child_env()
    figures: dict[str, float] = {}
    try:
        if not trace:
            launches = setup_seconds(env)
            figures["setup_s"] = statistics.median(launches)
        out = _run_child(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            env, RUN_LIMIT_S - (time.monotonic() - start))
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    n, rank = res["ops"], res["tail_rank"]
    print(f"workload {workload}, seed {seed}: {n} timed ops, "
          f"{res['attempted']} attempted with warm-up, {res['failed']} failed")
    for msg in res["messages"]:
        print(f"  FAILED {msg}")
    if trace:
        figures.update(res["per_layer"])
        print(f"  traced {n} ops after the same {n} untraced; values are per op")
    else:
        figures.update({k: res[k] for k in ("op_s", "op_tail_s", "ops_per_s", "peak_rss_mb")})
        print(f"  setup_s: median of {SETUP_LAUNCHES} launches "
              f"{', '.join(f'{v:.4f}' for v in launches)}")
        print(f"  op_tail_s: p{100.0 * rank / n:.2f} (rank {rank}) of n={n} op times, "
              f"{n - rank} beyond it" + ("" if n - rank >= 10 else " (too few ops for a tail)"))
        print(f"  failed_share = {res['failed_share']!r} (timed ops that raised, "
              "exited non-zero or failed a check)")
        print(f"  bracket_gap_rel = {res['bracket_gap_rel']!r}")

    metrics = {}
    for m in wanted:
        if m["name"] not in figures:
            print(f"error: the run did not produce metric {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {figures[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or each one BENCHMARK.json lists, in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bvplateau" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'bvplateau'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    gated = tuple(w["name"] for w in spec["workloads"])
    workloads = gated if args.workload == "all" else (args.workload,)
    return max(run(w, args.seed, args.seconds, args.trace, wanted) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
