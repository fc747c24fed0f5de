"""Write the CLI output tree of one source checkout, for diffing two trees.

Usage: python tests/output_tree.py SRC OUTDIR

SRC is the `src` directory whose `bvplateau` package runs; OUTDIR receives
one directory per run, holding what the run wrote plus `exit_code`.  The
runs are:

  * the seven commands on the four builtins at
    `--mesh-h 0.2 --ks 2,4,8 --emit-svg`;
  * `area` and `plateau` on the four builtins at default flags;
  * the seven commands at `--mesh-h 0.2 --ks 2,4,8`, and `area` at default
    flags, on 24 curves from `perfbench/gen.py` (6 per family, seed 0) and
    on the two curves of `_extra_specs`, whose runs add `--emit-svg`: the
    c-jump trace is simple, so its `mesh.svg` draws a filler minimised only
    for that figure, from a start the minimiser moves.

Every run uses paths relative to OUTDIR, so two trees written from
different checkouts should be byte-identical: `diff -r A B`.  The script
runs the CLI in-process and is not collected by pytest.  It prints how
many runs gave each exit code, and exits 1 only when some run gave a code
other than 0 or 3, the two with which the CLI writes its reports (3 marks
a bracket left open, as on some generated loops), so
`output_tree.py SRC A && output_tree.py SRC2 B && diff -r A B` chains.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = ("tv", "complete", "plateau", "area", "tangential", "verify-recovery", "slice-check")
BUILTINS = ("cantor-arc", "figure-eight", "triple", "vortex")
FAMILIES = ("sector", "circle", "loop", "cantor")
SMALL = ["--mesh-h", "0.2", "--ks", "2,4,8"]
TWO_PI = 2 * math.pi


def _extra_specs():
    """Two paths the generated families miss.  ncs-circle: the unit circle
    traced at non-constant speed, which mollify_sequence returns unchanged
    for every k and the constant-speed filler's rim does not match.
    c-jump: 24 constant sectors on the vertices of the C-shaped polygon of
    tests/test_plateau.py, sector i from angle 2*pi*i/24 with a jump from
    vertex i - 1 to vertex i, a jump curve whose Plateau start leaves the
    bracket open."""
    circle = {"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": TWO_PI,
        "path": {"kind": "circle_arc", "center": [0, 0], "radius": 1, "phi0": 0, "phi1": TWO_PI},
        "ac": {"kind": "sampled", "samples": [0, 1, 2, TWO_PI]},
    }]}
    t = np.linspace(math.radians(30), math.radians(330), 12)
    arc = np.stack([np.cos(t), np.sin(t)], axis=-1)
    verts = np.vstack([arc, 0.5 * arc[::-1]]).tolist()
    pieces = []
    for i, v in enumerate(verts):
        t0 = TWO_PI * i / len(verts)
        pieces.append({"type": "jump", "theta": t0, "left": verts[i - 1], "right": v})
        pieces.append({"type": "arc", "theta0": t0, "theta1": TWO_PI * (i + 1) / len(verts),
                       "path": {"kind": "point", "at": v}})
    return {"ncs-circle": circle, "c-jump": {"pieces": pieces}}


def _runs():
    for name in BUILTINS:
        for cmd in COMMANDS:
            yield f"builtin-{name}/{cmd}", [cmd, "--builtin", name, *SMALL, "--emit-svg"]
        for cmd in ("area", "plateau"):
            yield f"builtin-{name}/{cmd}-default", [cmd, "--builtin", name]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import make_curve

    rng = random.Random(0)
    specs = {f"{family}-{i}": make_curve(family, rng, i)["spec"]
             for family in FAMILIES for i in range(6)}
    os.makedirs("curves", exist_ok=True)
    extras = _extra_specs()
    for name, spec in {**specs, **extras}.items():
        path = f"curves/{name}.json"
        Path(path).write_text(json.dumps(spec, indent=1) + "\n")
        svg = ["--emit-svg"] if name in extras else []
        for cmd in COMMANDS:
            yield f"{name}/{cmd}", [cmd, "--curve", path, *SMALL, *svg]
        yield f"{name}/area-default", ["area", "--curve", path, *svg]


def main(argv=None) -> int:
    src, outdir = (argv if argv is not None else sys.argv[1:])
    sys.path.insert(0, str(Path(src).resolve()))
    from bvplateau.cli import main as cli_main

    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    runs_by_code = Counter()
    for run_dir, args in _runs():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main([*args, "--out", run_dir])
        Path(run_dir, "exit_code").write_text(f"{code}\n{err.getvalue()}")
        runs_by_code[code] += 1
    for code, runs in sorted(runs_by_code.items()):
        print(f"exit {code}: {runs} runs")
    return 1 if set(runs_by_code) - {0, 3} else 0


if __name__ == "__main__":
    sys.exit(main())
