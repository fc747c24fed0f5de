"""Command line front end.

Every command reads one curve (from a JSON spec or a named builtin) and
formats the result of one library operation: no quantity is computed
here.  The seven commands share one option set, declared once on a
single parser.  _run checks every option, whichever command reads it,
and builds the ExtensionParams and PlateauOptions once.  A command reads
only those and the resolved configuration, the dict embedded in
report.json, and writes nothing: it returns its report fields, its
report.csv rows, its figures and its exit code.  The rows hold plain
Python values, and csv formats them: a float is written as its repr.
_run alone writes report.json, report.csv and, under --emit-svg,
curve.svg (the command's polyline, else the completion with the
COMPLETE_VERTICES budget for circle arcs; straight pieces give their
corners only) and mesh.svg.  The map mesh.svg draws is asked for only
then: on a simple trace the Plateau certificate's constant-speed filler
is minimised for that figure alone.  Each file is rewritten in place and
then cut to its new length, so an interrupted write can leave old and
new bytes mixed.  Reports are byte-identical across reruns with equal
flags.  The parser is built on the first main call and shared by every
later call in the process; callers must not mutate it.

Exit codes: 0 success; 2 invalid input or configuration; 3, with the
reports still written, when `plateau` or `area` reports a bracket that
is not converged: the Plateau minimiser's last delta-stage stopped by
max_iters or by a failed line search (neither bracket_closed nor
stationary: report.json's plateau.termination names it), or it stopped
stationary with plateau.gap_flag set; or when `verify-recovery` finds
the L1 errors increasing, the variations decreasing or above their
target, or a Jacobian mismatch.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from typing import Callable, NamedTuple

from .curveio import BUILTIN_NAMES, CurveFormatError, builtin_curve, load_curve
from .curves import ClosedPolyline, CurveValidationError, completed_curve, total_variation
from .homogeneous import ExtensionParams, relaxed_area, tangential_variation
from .plateau import DiscreteMap, PlateauOptions, plateau_value
from .relaxation import slicing_check, strict_convergence_report
from .svgout import curve_svg, mesh_svg
from .winding import winding_area_grid


COMPLETE_VERTICES = 256


class _Result(NamedTuple):
    """What a command returns: report.json fields besides config, the
    report.csv rows (header first; None for no file), its figures and its
    exit code.  mesh_map gives mesh.svg's map and is called only under
    --emit-svg."""

    report: dict
    rows: list | None = None
    poly: ClosedPolyline | None = None
    mesh_map: Callable[[], DiscreteMap] | None = None
    code: int = 0


def _record_json(record) -> dict:
    """A library record's compared fields by name: everything but its figures."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.compare}


def _cmd_tv(curve, config, params, options):
    variation = _record_json(total_variation(curve))
    return _Result({"variation": variation, "closure_gap": curve.closure_gap},
                   [list(variation), list(variation.values())])


def _cmd_complete(curve, config, params, options):
    poly = completed_curve(curve, COMPLETE_VERTICES)
    return _Result(
        {"n_vertices": len(poly.vertices) - 1,  # closing duplicate not counted
         "length": poly.length,
         "closure_gap": curve.closure_gap},
        poly.vertices[:-1].tolist(), poly,
    )


def _cmd_plateau(curve, config, params, options):
    cert = plateau_value(curve, options)
    grid = winding_area_grid(cert.poly, resolution=64, seed=config["seed"])
    return _Result(
        {"plateau": _record_json(cert), "winding_grid": _record_json(grid)},
        poly=cert.poly, mesh_map=lambda: cert.result.dmap, code=0 if cert.converged else 3,
    )


def _cmd_area(curve, config, params, options):
    rep = relaxed_area(curve, params, options)
    return _Result(
        {**_record_json(rep), "plateau": _record_json(rep.plateau)},
        poly=rep.plateau.poly, mesh_map=lambda: rep.plateau.result.dmap,
        code=0 if rep.plateau.converged else 3,
    )


def _cmd_tangential(curve, config, params, options):
    return _Result({
        "tangential_variation": tangential_variation(curve, params, config["eps"]),
        "full_variation": tangential_variation(curve, params),
    })


def _cmd_verify_recovery(curve, config, params, options):
    rep = strict_convergence_report(curve, params, tuple(config["ks"]), options)
    report = _record_json(rep)
    # the record's boolean fields are the report's flags
    report["flags"] = {name: report.pop(name) for name, v in list(report.items())
                       if isinstance(v, bool)}
    columns = (rep.k_values, rep.l1_errors, rep.tv_values, rep.area_values,
               rep.jacobian_tv_values, rep.filler_jacobian_tv)
    ok = (rep.l1_nonincreasing and rep.tv_nondecreasing and rep.tv_within_target
          and rep.jacobian_matched)
    return _Result(
        report,
        [["k", "l1_error", "tv_value", "area_value", "jacobian_tv", "filler_jacobian_tv"]]
        + list(zip(*columns)),
        mesh_map=lambda: rep.recovery_map, code=0 if ok else 3,
    )


def _cmd_slice_check(curve, config, params, options):
    report = _record_json(
        slicing_check(curve, params, eps=config["eps"], n_radii=config["n_radii"]))
    # the record's two arrays are the report.csv columns
    columns = report.pop("radii").tolist(), report.pop("slice_tv").tolist()
    return _Result(report, [["radius", "slice_tv"], *zip(*columns)])


_COMMANDS = {
    "tv": (_cmd_tv, "variation decomposition of a curve"),
    "complete": (_cmd_complete, "chord-filled completion of a curve"),
    "plateau": (_cmd_plateau, "bracket for the least sweeping area of the completed trace"),
    "area": (_cmd_area, "relaxed graph area of the homogeneous extension"),
    "tangential": (_cmd_tangential, "tangential variation of the extension over an annulus"),
    "verify-recovery": (_cmd_verify_recovery,
                        "strict-convergence report for the mollified sequence"),
    "slice-check": (_cmd_slice_check,
                    "circle-slice variation against the tangential variation"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvplateau",
        description="graph area and Plateau brackets for homogeneous extensions of circle curves",
        epilog="commands:\n" + "".join(
            f"  {name:<17}{help_text}\n" for name, (_, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help="curve spec JSON file")
    src.add_argument("--builtin", choices=BUILTIN_NAMES, help="named example curve")
    parser.add_argument("--radius", type=float, default=1.0, help="disk radius (default 1)")
    parser.add_argument("--mesh-h", type=float, default=0.05, dest="mesh_h",
                        help="target mesh edge length (default 0.05)")
    parser.add_argument("--nodes", type=int, default=4096,
                        help="angular quadrature nodes (default 4096)")
    parser.add_argument("--delta-schedule", default="1e-1,1e-2,1e-3,1e-4",
                        dest="delta_schedule", help="comma list of smoothing levels")
    parser.add_argument("--out", default=None,
                        help="output directory (default $BVPLATEAU_OUT or .)")
    parser.add_argument("--emit-svg", action="store_true", dest="emit_svg",
                        help="also write curve.svg / mesh.svg figures")
    parser.add_argument("--seed", type=int, default=0, help="grid-oracle jitter seed")
    parser.add_argument("--eps", type=float, default=0.0,
                        help="inner radius excluded from radial integrals")
    parser.add_argument("--ks", default="2,4,8,16,32", help="comma list of sequence indices")
    parser.add_argument("--n-radii", type=int, default=256, dest="n_radii",
                        help="radial sample count for slice checks")
    return parser


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{what} must be a comma list of numbers: {text!r}")
    if not vals:
        raise ValueError(f"{what} must be nonempty")
    return vals


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{what} must be a comma list of integers: {text!r}")


def _run(args: argparse.Namespace) -> int:
    # every option is checked whichever command reads it, before any output
    delta_schedule = _parse_floats(args.delta_schedule, "--delta-schedule")
    ks = _parse_ints(args.ks, "--ks")
    params = ExtensionParams(radius=args.radius, nodes=args.nodes)
    options = PlateauOptions(mesh_h=args.mesh_h, delta_schedule=delta_schedule)
    if not 0.0 <= args.eps < args.radius:
        raise ValueError("--eps must satisfy 0 <= eps < radius")
    if not ks or ks[0] < 2 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("--ks must be nonempty, strictly increasing and >= 2")
    if args.n_radii < 1:
        raise ValueError("--n-radii must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    outdir = args.out if args.out is not None else os.environ.get("BVPLATEAU_OUT", ".")
    curve = builtin_curve(args.builtin) if args.builtin else load_curve(args.curve)
    # the parsed options, with the curve source, output directory and lists resolved
    config = {**vars(args), "curve": f"builtin:{args.builtin}" if args.builtin else args.curve,
              "out": outdir, "delta_schedule": list(delta_schedule), "ks": list(ks)}
    del config["builtin"]
    result = _COMMANDS[args.command][0](curve, config, params, options)

    # allow_nan=False: a non-finite value is an error, never a NaN token
    files = {"report.json": json.dumps({"config": config, **result.report},
                                       indent=2, sort_keys=True, allow_nan=False) + "\n"}
    if result.rows is not None:
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(result.rows)
        files["report.csv"] = text.getvalue()
    if config["emit_svg"]:
        poly = result.poly if result.poly is not None else completed_curve(curve, COMPLETE_VERTICES)
        files["curve.svg"] = curve_svg(poly)
        if result.mesh_map is not None:
            files["mesh.svg"] = mesh_svg(result.mesh_map())
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        # not truncated to zero first: on some file systems that makes the
        # close start writeback, and the next truncation waits for it
        fd = os.open(os.path.join(outdir, name), os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="") as f:
            f.write(text)
            f.truncate()
    return result.code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CurveFormatError, CurveValidationError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
