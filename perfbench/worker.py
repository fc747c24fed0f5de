"""Run one workload in this process and print its figures as one JSON line.

Closed loop, one client: each op is one in-process call of
bvplateau.cli.main(argv) on a generated curve file, and the next op starts
when the previous one has returned and its report has been checked.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts this with src/ on PYTHONPATH, BLAS threads pinned to 1 and an
address-space cap; it is not meant to be run on its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402


@dataclass(frozen=True)
class Workload:
    families: tuple[str, ...]
    commands: tuple[str, ...]
    pool: int  # curves generated per run; ops cycle over curves x commands
    warmup_flags: tuple[str, ...] = ()  # flags that shrink the warm-up op


WORKLOADS = {
    # a 22-39 s op at default flags on one 3-sector curve, so every timed
    # op after the first repeats the first; its warm-up runs the same
    # command on a coarse mesh, which loads every code path the timed op uses
    "area-jumps": Workload(("sector",), ("area",), 1, ("--mesh-h", "0.2")),
    "plateau-circles": Workload(("circle",), ("plateau", "verify-recovery"), 4),
    "reports-mixed": Workload(
        ("sector", "loop", "circle", "cantor"),
        ("tv", "complete", "tangential", "slice-check"),
        32,
    ),
}

# commands whose exit code 3 flags non-convergence while the report is
# still written; the op is judged by its report
BRACKET_COMMANDS = ("area", "plateau")

WORK_DIR = ".bench_out"


@dataclass(frozen=True)
class Op:
    key: str
    cmd: str
    argv: tuple[str, ...]
    out: str
    expect: dict


def build_ops(workload: str, seed: int, work: str, extra: tuple[str, ...] = (),
              tag: str = "") -> list[Op]:
    """Write the seed's curve files under work/ and return the op cycle:
    every command on curve 0, then on curve 1, and so on.  `extra` flags
    are appended to every op; `tag` keeps their out dirs apart."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(f"{work}/curves", exist_ok=True)
    ops = []
    for i in range(wl.pool):
        family = wl.families[i % len(wl.families)]
        curve = gen.make_curve(family, rng, i // len(wl.families))
        path = f"{work}/curves/c{i:02d}-{family}.json"
        Path(path).write_text(json.dumps(curve["spec"]) + "\n")
        expect = {k: v for k, v in curve.items() if k != "spec"}
        for cmd in wl.commands:
            key = f"c{i:02d}-{cmd}{tag}"
            out = f"{work}/ops/{key}"
            argv = (cmd, "--curve", path, "--out", out) + extra
            ops.append(Op(key, cmd, argv, out, expect))
    return ops


class Ledger:
    """Outcome of every op: failures, exit codes, report hashes, sizes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # raised, unexpected exit code, or failed a check
        self.bad = 0  # failed, or exited non-zero with a correct report
        self.messages: list[str] = []
        self.digests: dict[str, str] = {}  # op key -> sha256 of its report files
        self.verdicts: dict[str, str | None] = {}  # op key -> check failure, if any
        self.gaps: dict[str, float] = {}
        self.report_bytes = 0

    def record(self, op: Op, rc) -> None:
        self.attempted += 1
        problem = self._judge(op, rc)
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op.key}: {problem}")
        if problem is not None or rc != 0:
            self.bad += 1

    def _judge(self, op: Op, rc) -> str | None:
        if not isinstance(rc, int):
            return f"raised {rc}"
        if rc != 0 and not (rc == 3 and op.cmd in BRACKET_COMMANDS):
            return f"exit code {rc}"
        blobs = []
        for name in ("report.json", "report.csv"):
            p = Path(op.out, name)
            blobs.append(p.read_bytes() if p.exists() else b"")
        self.report_bytes += sum(len(b) for b in blobs)
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        seen = self.digests.setdefault(op.key, digest)
        if seen != digest:
            return "report bytes differ from an earlier run of the same op"
        if op.key not in self.verdicts:  # equal bytes get the same verdict
            self.verdicts[op.key] = self._check(op, blobs)
        return self.verdicts[op.key]

    def _check(self, op: Op, blobs: list[bytes]) -> str | None:
        try:
            report = json.loads(blobs[0])
            problems = checks.check_report(op.cmd, op.expect, report, blobs[1].decode() or None)
            config = report["config"]
            if config["command"] != op.cmd or config["out"] != op.out:
                problems.append(f"config echoes {config['command']!r} {config['out']!r}")
        except (ValueError, KeyError, TypeError, IndexError) as e:
            problems = [f"unreadable report: {type(e).__name__}: {e}"]
        if problems:
            return "; ".join(problems)
        if "plateau" in report:
            cert = report["plateau"]
            gap = (cert["upper"] - cert["lower"]) / cert["lower"]
            self.gaps[op.key] = gap if gap > 1e-12 else 0.0
        return None


def run_op(cli, op: Op, ledger: Ledger) -> float:
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(op.argv))
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the op failed; the run goes on and counts it
        rc = f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    ledger.record(op, rc)
    return dt


def warm_up(cli, workload: str, seed: int, work: str, ops: list[Op], ledger: Ledger) -> None:
    """One untimed op per command.  A shrunk warm-up op runs twice so its
    repeat checks determinism; a full one is repeated by the timed loop."""
    flags = WORKLOADS[workload].warmup_flags
    if flags:
        ops = build_ops(workload, seed, work, ops[0].argv[5:] + flags, "-warmup")
    firsts = {op.cmd: op for op in reversed(ops)}.values()
    for op in firsts:
        for _ in range(2 if flags else 1):
            run_op(cli, op, ledger)


def timed_loop(cli, ops: list[Op], ledger: Ledger, seconds: float | None = None,
               count: int | None = None, tracer=None) -> tuple[list[float], float]:
    """Run ops in cycle order, exactly `count` of them, or for `seconds`:
    ops start until `seconds` have passed, so the last one may end past
    that, and at least one op runs."""
    times: list[float] = []
    t0 = time.perf_counter()
    while len(times) < count if count is not None else (
        not times or time.perf_counter() - t0 < seconds
    ):
        if tracer is not None:
            tracer.op = len(times)
        times.append(run_op(cli, ops[len(times) % len(ops)], ledger))
    return times, time.perf_counter() - t0


def tail_rank(n: int) -> int:
    """Rank of op_tail_s among n sorted op times: the highest with at least
    10 ops beyond it, but not below the median (the slower middle op when
    n is even)."""
    return max(n - 10, n // 2 + 1)


def run_workload(workload: str, seed: int, seconds: float | None = None,
                 count: int | None = None, trace: bool = False,
                 extra: tuple[str, ...] = ()) -> dict:
    """Warm up, then time ops for `seconds` (or exactly `count` ops); with
    trace, time as many ops again under the tracer.  `extra` flags go to
    every op, warm-up included."""
    import bvplateau
    from bvplateau import cli

    work = f"{WORK_DIR}/{workload}"
    shutil.rmtree(work, ignore_errors=True)
    ops = build_ops(workload, seed, work, extra)
    ledger = Ledger()
    warm_up(cli, workload, seed, work, ops, ledger)
    attempted0, bad0, bytes0 = ledger.attempted, ledger.bad, ledger.report_bytes
    times, wall = timed_loop(cli, ops, ledger, seconds=seconds, count=count)
    n = len(times)
    # the share of timed ops that raised, exited non-zero or failed a check
    failed_share = (ledger.bad - bad0) / (ledger.attempted - attempted0)
    rank = tail_rank(n)
    result = {
        "ops": n,
        "tail_rank": rank,
        "failed_share": failed_share,
        "op_s": statistics.median(times),
        "op_tail_s": sorted(times)[rank - 1],
        "ops_per_s": n / wall,
        "bracket_gap_rel": max(ledger.gaps.values(), default=0.0),
    }
    report_bytes = (ledger.report_bytes - bytes0) / n
    if trace:
        from spans import Tracer, per_layer_metrics

        modules = [bvplateau] + [
            sys.modules[name] for name in sorted(sys.modules) if name.startswith("bvplateau.")
        ]
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced, _ = timed_loop(cli, ops, ledger, count=n, tracer=tracer)
        finally:
            tracer.restore()
        layers = per_layer_metrics(tracer, n)
        layers["cli.report_bytes"] = report_bytes
        layers["cli.failed_share"] = failed_share
        layers["plateau.bracket_gap_rel"] = result["bracket_gap_rel"]
        layers["trace.overhead_s"] = statistics.median(traced) - result["op_s"]
        result["per_layer"] = layers
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        messages=ledger.messages,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a traced run times its ops twice, so each pass gets half the time
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = run_workload(args.workload, args.seed, seconds=seconds, trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
