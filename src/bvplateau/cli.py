"""Command line front end.

Every command reads one curve (from a JSON spec or a named builtin) and
formats the result of one library operation: no quantity is computed
here.  The seven commands share one option set, declared once on a
single parser.  A command reads only the resolved configuration, the
dict embedded in report.json, and writes nothing: it returns its report
fields, its report.csv rows, the figure objects it has and its exit
code.  _run alone writes report.json, report.csv and, under --emit-svg,
curve.svg (the command's polyline, else the 256-vertex completion) and
mesh.svg.  Reports are byte-identical across reruns with equal flags.

Exit codes: 0 success; 2 invalid input or configuration; 3, with the
reports still written, when `plateau` or `area` ends with the Plateau
minimiser's last delta-stage stopped by max_iters or by a failed line
search (neither bracket_closed nor stationary: report.json's
plateau.termination names it), or when `verify-recovery` finds the L1
errors increasing, the variations decreasing or above their target, or
a Jacobian mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import NamedTuple

from .curveio import BUILTIN_NAMES, CurveFormatError, builtin_curve, load_curve
from .curves import ClosedPolyline, CurveValidationError, completed_curve, total_variation
from .homogeneous import ExtensionParams, relaxed_area, tangential_variation
from .plateau import DiscreteMap, PlateauCertificate, PlateauOptions, plateau_value
from .relaxation import slicing_check, strict_convergence_report
from .svgout import curve_svg, mesh_svg
from .winding import winding_area_grid


class _Result(NamedTuple):
    """What a command returns: report.json fields besides config, the
    report.csv rows (header first; None for no file), its figures and its
    exit code."""

    report: dict
    rows: list | None = None
    poly: ClosedPolyline | None = None
    dmap: DiscreteMap | None = None
    code: int = 0


def _extension_params(config: dict) -> ExtensionParams:
    return ExtensionParams(radius=config["radius"], nodes=config["nodes"])


def _plateau_options(config: dict) -> PlateauOptions:
    return PlateauOptions(mesh_h=config["mesh_h"], delta_schedule=tuple(config["delta_schedule"]))


def _certificate_json(cert: PlateauCertificate) -> dict:
    return {
        "lower": cert.lower,
        "upper": cert.upper,
        "delta_final": cert.delta_final,
        "h": cert.h,
        "iterations": cert.iterations,
        "converged": cert.converged,
        "termination": cert.termination,
        "gap_flag": cert.gap_flag,
    }


def _cmd_tv(curve, config):
    dec = total_variation(curve)
    return _Result(
        {"variation": {"ac": dec.ac, "jump": dec.jump, "cantor": dec.cantor, "total": dec.total},
         "closure_gap": curve.closure_gap},
        [["ac", "jump", "cantor", "total"],
         [repr(dec.ac), repr(dec.jump), repr(dec.cantor), repr(dec.total)]],
    )


def _cmd_complete(curve, config):
    poly = completed_curve(curve, 256)
    return _Result(
        {"n_vertices": len(poly.vertices) - 1,  # closing duplicate not counted
         "length": poly.length,
         "closure_gap": curve.closure_gap},
        [[repr(float(x)), repr(float(y))] for x, y in poly.vertices[:-1]],
        poly,
    )


def _cmd_plateau(curve, config):
    cert = plateau_value(curve, _plateau_options(config))
    grid = winding_area_grid(cert.poly, resolution=64, seed=config["seed"])
    return _Result(
        {"plateau": _certificate_json(cert),
         "winding_grid": {"value": grid.value, "stderr": grid.stderr,
                          "resolution": grid.resolution, "samples": grid.samples}},
        poly=cert.poly, dmap=cert.result.dmap, code=0 if cert.converged else 3,
    )


def _cmd_area(curve, config):
    rep = relaxed_area(curve, _extension_params(config), _plateau_options(config))
    return _Result(
        {"graph_area": rep.graph_area,
         "singular": rep.singular,
         "plateau": _certificate_json(rep.plateau),
         "relaxed_lower": rep.relaxed_lower,
         "relaxed_upper": rep.relaxed_upper},
        poly=rep.plateau.poly, dmap=rep.plateau.result.dmap,
        code=0 if rep.plateau.converged else 3,
    )


def _cmd_tangential(curve, config):
    params = _extension_params(config)
    return _Result({
        "tangential_variation": tangential_variation(curve, params, config["eps"]),
        "full_variation": tangential_variation(curve, params),
    })


def _cmd_verify_recovery(curve, config):
    rep = strict_convergence_report(curve, _extension_params(config), tuple(config["ks"]),
                                    _plateau_options(config))
    columns = (rep.k_values, rep.l1_errors, rep.tv_values, rep.area_values,
               rep.jacobian_tv_values, rep.filler_jacobian_tv)
    ok = (rep.l1_nonincreasing and rep.tv_nondecreasing and rep.tv_within_target
          and rep.jacobian_matched is not False)
    return _Result(
        {"k_values": list(rep.k_values),
         "l1_errors": list(rep.l1_errors),
         "tv_values": list(rep.tv_values),
         "area_values": list(rep.area_values),
         "jacobian_tv_values": list(rep.jacobian_tv_values),
         "filler_jacobian_tv": list(rep.filler_jacobian_tv),
         "tv_target": rep.tv_target,
         "area_target": rep.area_target,
         "flags": {"l1_nonincreasing": rep.l1_nonincreasing,
                   "tv_nondecreasing": rep.tv_nondecreasing,
                   "tv_within_target": rep.tv_within_target,
                   "jacobian_matched": rep.jacobian_matched,
                   "area_converged": rep.area_converged}},
        [["k", "l1_error", "tv_value", "area_value", "jacobian_tv", "filler_jacobian_tv"]]
        + [[k] + [repr(v) for v in rest] for k, *rest in zip(*columns)],
        dmap=rep.recovery_map, code=0 if ok else 3,
    )


def _cmd_slice_check(curve, config):
    rep = slicing_check(curve, _extension_params(config), eps=config["eps"],
                        n_radii=config["n_radii"])
    return _Result(
        {"circle_tv": rep.circle_tv, "estimate": rep.estimate, "exact": rep.exact,
         "rel_error": rep.rel_error},
        [["radius", "slice_tv"]]
        + [[repr(float(r)), repr(float(v))] for r, v in zip(rep.radii, rep.slice_tv)],
    )


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
    if not (math.isfinite(args.radius) and args.radius > 0.0):
        raise ValueError("--radius must be finite and positive")
    if not 0.0 < args.mesh_h < 1.0:
        raise ValueError("--mesh-h must lie in (0, 1)")
    outdir = args.out if args.out is not None else os.environ.get("BVPLATEAU_OUT", ".")
    os.makedirs(outdir, exist_ok=True)
    curve = builtin_curve(args.builtin) if args.builtin else load_curve(args.curve)
    config = {
        "command": args.command,
        "curve": f"builtin:{args.builtin}" if args.builtin else args.curve,
        "radius": args.radius,
        "mesh_h": args.mesh_h,
        "nodes": args.nodes,
        "delta_schedule": list(_parse_floats(args.delta_schedule, "--delta-schedule")),
        "out": outdir,
        "emit_svg": args.emit_svg,
        "seed": args.seed,
        "eps": args.eps,
        "ks": list(_parse_ints(args.ks, "--ks")),
        "n_radii": args.n_radii,
    }
    result = _COMMANDS[args.command][0](curve, config)

    # allow_nan=False: a non-finite value is an error, never a NaN token
    files = {"report.json": json.dumps({"config": config, **result.report},
                                       indent=2, sort_keys=True, allow_nan=False) + "\n"}
    if result.rows is not None:
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(result.rows)
        files["report.csv"] = text.getvalue()
    if config["emit_svg"]:
        poly = result.poly if result.poly is not None else completed_curve(curve, 256)
        files["curve.svg"] = curve_svg(poly)
        if result.dmap is not None:
            files["mesh.svg"] = mesh_svg(result.dmap)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", newline="") as f:
            f.write(text)
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
