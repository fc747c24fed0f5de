"""Command line front end.

Every command reads one curve (from a JSON spec or a named builtin),
runs the corresponding library operation, and writes report.json (plus
report.csv where the result is tabular, and SVG figures on request)
into the output directory.  Commands only format library results: no
quantity is computed here.  Reports embed the fully resolved
configuration and are byte-identical across reruns with equal flags.

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
import json
import os
import sys

from .curveio import BUILTIN_NAMES, CurveFormatError, builtin_curve, load_curve, save_polyline
from .curves import CurveValidationError, completed_curve, total_variation
from .homogeneous import ExtensionParams, relaxed_area, tangential_variation, total_variation_Du
from .plateau import PlateauCertificate, PlateauOptions, plateau_value
from .relaxation import slicing_check, strict_convergence_report
from .svgout import curve_svg, mesh_svg
from .winding import winding_area_grid

_COMMANDS = (
    ("tv", "variation decomposition of a curve"),
    ("complete", "chord-filled completion of a curve"),
    ("plateau", "bracket for the least sweeping area of the completed trace"),
    ("area", "relaxed graph area of the homogeneous extension"),
    ("tangential", "tangential variation of the extension over an annulus"),
    ("verify-recovery", "strict-convergence report for the mollified sequence"),
    ("slice-check", "circle-slice variation against the tangential variation"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvplateau",
        description="graph area and Plateau brackets for homogeneous extensions of circle curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--curve", help="curve spec JSON file")
        src.add_argument("--builtin", choices=BUILTIN_NAMES, help="named example curve")
        sp.add_argument("--radius", type=float, default=1.0, help="disk radius (default 1)")
        sp.add_argument("--mesh-h", type=float, default=0.05, dest="mesh_h",
                        help="target mesh edge length (default 0.05)")
        sp.add_argument("--nodes", type=int, default=4096,
                        help="angular quadrature nodes (default 4096)")
        sp.add_argument("--delta-schedule", default="1e-1,1e-2,1e-3,1e-4",
                        dest="delta_schedule", help="comma list of smoothing levels")
        sp.add_argument("--out", default=None,
                        help="output directory (default $BVPLATEAU_OUT or .)")
        sp.add_argument("--emit-svg", action="store_true", dest="emit_svg",
                        help="also write curve.svg / mesh.svg figures")
        sp.add_argument("--seed", type=int, default=0, help="grid-oracle jitter seed")
        sp.add_argument("--eps", type=float, default=0.0,
                        help="inner radius excluded from radial integrals")
        sp.add_argument("--ks", default="2,4,8,16,32",
                        help="comma list of sequence indices")
        sp.add_argument("--n-radii", type=int, default=256, dest="n_radii",
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


def _write_json(outdir: str, payload: dict) -> None:
    with open(os.path.join(outdir, "report.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(outdir: str, header: list[str], rows) -> None:
    with open(os.path.join(outdir, "report.csv"), "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_svg(outdir: str, name: str, text: str) -> None:
    with open(os.path.join(outdir, name), "w") as f:
        f.write(text)


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


def _write_plateau_svgs(outdir: str, cert: PlateauCertificate) -> None:
    _write_svg(outdir, "curve.svg", curve_svg(cert.poly))
    _write_svg(outdir, "mesh.svg", mesh_svg(cert.result.dmap))


def _cmd_tv(curve, args, config, outdir):
    dec = total_variation(curve)
    _write_json(outdir, {
        "config": config,
        "variation": {"ac": dec.ac, "jump": dec.jump, "cantor": dec.cantor,
                      "total": dec.total},
        "closure_gap": curve.closure_gap,
    })
    _write_csv(outdir, ["ac", "jump", "cantor", "total"],
               [[repr(dec.ac), repr(dec.jump), repr(dec.cantor), repr(dec.total)]])
    if args.emit_svg:
        _write_svg(outdir, "curve.svg", curve_svg(completed_curve(curve, 256)))
    return 0


def _cmd_complete(curve, args, config, outdir):
    poly = completed_curve(curve, 256)
    _write_json(outdir, {
        "config": config,
        "n_vertices": len(poly.vertices) - 1,  # closing duplicate not counted
        "length": poly.length,
        "closure_gap": curve.closure_gap,
    })
    save_polyline(poly, os.path.join(outdir, "report.csv"))
    if args.emit_svg:
        _write_svg(outdir, "curve.svg", curve_svg(poly))
    return 0


def _cmd_plateau(curve, args, config, outdir):
    cert = plateau_value(curve, _plateau_options(config))
    grid = winding_area_grid(cert.poly, resolution=64, seed=args.seed)
    _write_json(outdir, {
        "config": config,
        "plateau": _certificate_json(cert),
        "winding_grid": {"value": grid.value, "stderr": grid.stderr,
                         "resolution": grid.resolution, "samples": grid.samples},
    })
    if args.emit_svg:
        _write_plateau_svgs(outdir, cert)
    return 0 if cert.converged else 3


def _cmd_area(curve, args, config, outdir):
    rep = relaxed_area(curve, _extension_params(config), _plateau_options(config))
    _write_json(outdir, {
        "config": config,
        "graph_area": rep.graph_area,
        "singular": rep.singular,
        "plateau": _certificate_json(rep.plateau),
        "relaxed_lower": rep.relaxed_lower,
        "relaxed_upper": rep.relaxed_upper,
    })
    if args.emit_svg:
        _write_plateau_svgs(outdir, rep.plateau)
    return 0 if rep.plateau.converged else 3


def _cmd_tangential(curve, args, config, outdir):
    params = _extension_params(config)
    _write_json(outdir, {
        "config": config,
        "tangential_variation": tangential_variation(curve, params, args.eps),
        "full_variation": total_variation_Du(curve, params),
    })
    if args.emit_svg:
        _write_svg(outdir, "curve.svg", curve_svg(completed_curve(curve, 256)))
    return 0


def _cmd_verify_recovery(curve, args, config, outdir):
    rep = strict_convergence_report(curve, _extension_params(config), tuple(config["ks"]),
                                    _plateau_options(config))
    _write_json(outdir, {
        "config": config,
        "k_values": list(rep.k_values),
        "l1_errors": list(rep.l1_errors),
        "tv_values": list(rep.tv_values),
        "area_values": list(rep.area_values),
        "jacobian_tv_values": list(rep.jacobian_tv_values),
        "filler_jacobian_tv": list(rep.filler_jacobian_tv),
        "tv_target": rep.tv_target,
        "area_target": rep.area_target,
        "flags": {
            "l1_nonincreasing": rep.l1_nonincreasing,
            "tv_nondecreasing": rep.tv_nondecreasing,
            "tv_within_target": rep.tv_within_target,
            "jacobian_matched": rep.jacobian_matched,
            "area_converged": rep.area_converged,
        },
    })
    _write_csv(outdir,
               ["k", "l1_error", "tv_value", "area_value", "jacobian_tv", "filler_jacobian_tv"],
               [[k, repr(a), repr(b), repr(c), repr(d), repr(e)]
                for k, a, b, c, d, e in zip(rep.k_values, rep.l1_errors, rep.tv_values,
                                            rep.area_values, rep.jacobian_tv_values,
                                            rep.filler_jacobian_tv)])
    if args.emit_svg:
        _write_svg(outdir, "curve.svg", curve_svg(completed_curve(curve, 256)))
        _write_svg(outdir, "mesh.svg", mesh_svg(rep.recovery_map))
    ok = (rep.l1_nonincreasing and rep.tv_nondecreasing and rep.tv_within_target
          and rep.jacobian_matched is not False)
    return 0 if ok else 3


def _cmd_slice_check(curve, args, config, outdir):
    rep = slicing_check(curve, _extension_params(config), eps=args.eps, n_radii=args.n_radii)
    _write_json(outdir, {
        "config": config,
        "circle_tv": rep.circle_tv,
        "estimate": rep.estimate,
        "exact": rep.exact,
        "rel_error": rep.rel_error,
    })
    _write_csv(outdir, ["radius", "slice_tv"],
               [[repr(float(r)), repr(float(v))] for r, v in zip(rep.radii, rep.slice_tv)])
    if args.emit_svg:
        _write_svg(outdir, "curve.svg", curve_svg(completed_curve(curve, 256)))
    return 0


_DISPATCH = {
    "tv": _cmd_tv,
    "complete": _cmd_complete,
    "plateau": _cmd_plateau,
    "area": _cmd_area,
    "tangential": _cmd_tangential,
    "verify-recovery": _cmd_verify_recovery,
    "slice-check": _cmd_slice_check,
}


def _run(args: argparse.Namespace) -> int:
    if args.radius <= 0.0:
        raise ValueError("--radius must be positive")
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
    return _DISPATCH[args.command](curve, args, config, outdir)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CurveFormatError, CurveValidationError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
