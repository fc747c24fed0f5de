"""Strict-convergence experiments for homogeneous extensions.

The classical graph area of a piecewise affine map is evaluated exactly
per triangle.  Recovery maps glue a rescaled disk filler to an annulus
carrying the mollified boundary profile; because every annulus ring
reuses one shared angle grid, ring-to-ring triangles repeat values and
their Jacobians vanish identically, so the Jacobian mass of the glued
map is the filler's alone.  Slice reports integrate the circle-wise
variation of the extension over radii and compare with the tangential
variation computed from the curve itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    ClosedPolyline,
    Curve,
    completed_curve,
    evaluate_many,
    l1_distance,
    mollify_sequence,
    total_variation,
)
from .geometry import TWO_PI
from .homogeneous import ExtensionParams, graph_area_term, singular_term, tangential_variation
from .meshing import TriMesh
from .plateau import (
    DiscreteMap,
    MinimizeResult,
    PlateauOptions,
    _datum_start,
    _minimize_from,
    _radial_start,
    jacobian_tv,
    origin_value,
)
from .winding import winding_area


class RecoveryMismatchError(ValueError):
    """Filler rim values do not match the mollified profile at the seam."""

    def __init__(self, mismatch: float, tol: float):
        self.mismatch = mismatch
        self.tol = tol
        super().__init__(
            f"filler rim deviates from the mollified profile by {mismatch:.3e} "
            f"(tolerance {tol:.3e}); use minimize_for_profile on the mollified "
            "curve when the datum parametrization differs from the angle profile"
        )


def area_functional(dmap: DiscreteMap) -> float:
    """Graph area sum_T area_T sqrt(1 + |G_T|^2 + J_T^2) of an affine map.

    G_T is the constant 2x2 gradient on triangle T (Frobenius norm) and
    J_T = det G_T.  Exact for the piecewise affine interpolant.
    """
    tris = dmap.mesh.triangles
    q = dmap.mesh.vertices[tris]
    v = dmap.values[tris]
    a = q[:, 1] - q[:, 0]
    b = q[:, 2] - q[:, 0]
    va = v[:, 1] - v[:, 0]
    vb = v[:, 2] - v[:, 0]
    detq = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    if np.any(detq <= 0.0):
        raise ValueError("mesh triangles must be counterclockwise and nondegenerate")
    g00 = (va[:, 0] * b[:, 1] - vb[:, 0] * a[:, 1]) / detq
    g01 = (vb[:, 0] * a[:, 0] - va[:, 0] * b[:, 0]) / detq
    g10 = (va[:, 1] * b[:, 1] - vb[:, 1] * a[:, 1]) / detq
    g11 = (vb[:, 1] * a[:, 0] - va[:, 1] * b[:, 0]) / detq
    frob2 = g00 * g00 + g01 * g01 + g10 * g10 + g11 * g11
    jac = (va[:, 0] * vb[:, 1] - va[:, 1] * vb[:, 0]) / detq
    terms = 0.5 * detq * np.sqrt(1.0 + frob2 + jac * jac)
    return math.fsum(terms.tolist())


def _rim_angles(mesh: TriMesh) -> np.ndarray:
    rim = mesh.vertices[mesh.boundary_loop]
    ang = np.mod(np.arctan2(rim[:, 1], rim[:, 0]), TWO_PI)
    if np.any(np.diff(ang) <= 0.0):
        raise ValueError("boundary loop is not sorted by angle")
    return ang


def minimize_for_profile(
    curve: Curve, options: PlateauOptions = PlateauOptions()
) -> MinimizeResult:
    """Minimise the Jacobian mass with rim values read off the curve by angle.

    Unlike minimize_for_datum, which traverses the completed polyline at
    constant speed, the rim vertex at angle theta is pinned to the curve
    value at theta.  This is the datum matching a homogeneous extension,
    and the one a recovery gluing needs.  The lower end of the bracket is
    the winding area of the rim polygon.
    """
    extras = [p.theta0 for p in curve.arcs] + [p.theta for p in curve.jumps]
    start = _radial_start(lambda ang: evaluate_many(curve, ang), extras, origin_value(curve),
                          options.mesh_h)
    rim = ClosedPolyline(start.values[start.mesh.boundary_loop])
    return _minimize_from(start, options, winding_area(rim))


# ring-gap grading toward the gluing circle: four shrinking steps, then uniform
_GRADE = [0.7**4, 0.7**3, 0.7**2, 0.7]


def _annulus_radii(s: float, ell: float, h: float) -> np.ndarray:
    width = ell - s
    n_uniform = max(1, int(round(width / h)))
    u = width / (n_uniform + sum(_GRADE))
    gaps = [u * g for g in _GRADE] + [u] * n_uniform
    radii = s + np.cumsum(gaps)
    radii[-1] = ell
    return radii


INTERFACE_TOL = 1e-3


def _seam_values(phi: Curve, filler: DiscreteMap):
    """Rim angles of filler and the values of phi there; raises
    RecoveryMismatchError when the filler's pinned rim deviates from them
    by more than INTERFACE_TOL relative to the value scale."""
    ang = _rim_angles(filler.mesh)
    vals = evaluate_many(phi, ang)
    scale = max(float(np.max(np.abs(vals))), 1e-12)
    mismatch = float(np.max(np.abs(filler.values[filler.mesh.boundary_loop] - vals)))
    if mismatch > INTERFACE_TOL * scale:
        raise RecoveryMismatchError(mismatch, INTERFACE_TOL * scale)
    return ang, vals


def recovery_sequence(
    curve: Curve,
    params: ExtensionParams,
    k: int,
    filler: DiscreteMap,
    mesh_h: float = 0.05,
) -> DiscreteMap:
    """Glue a rescaled filler into the homogeneous extension of the
    mollified profile: the filler occupies the disk of radius R/k, the
    annulus outside carries the k-th mollification evaluated by angle.

    All annulus rings share the filler's rim angle grid, so consecutive
    rings repeat the same value rows and every ring-to-ring triangle has
    Jacobian exactly zero: the Jacobian mass of the result is the
    filler's own.  The filler rim must agree with the mollified profile
    at the shared angles within INTERFACE_TOL (relative to the value
    scale); a constant-speed polyline filler for a jumpy curve fails
    this and raises RecoveryMismatchError.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    phi = mollify_sequence(curve, k)
    return _glue(params, k, filler, _seam_values(phi, filler), mesh_h)


def _glue(params: ExtensionParams, k: int, filler: DiscreteMap, seam, mesh_h: float) -> DiscreteMap:
    """The gluing of recovery_sequence, given seam = _seam_values(phi, filler)
    for phi, the k-th mollification."""
    ang, vals = seam

    s = params.radius / k
    dom_scale = s / filler.mesh.radius
    n = len(ang)
    unit = np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    vert_blocks = [filler.mesh.vertices * dom_scale]
    value_blocks = [filler.values]
    tri_blocks = [filler.mesh.triangles]
    prev = filler.mesh.boundary_loop
    next_id = len(filler.values)
    for r in _annulus_radii(s, params.radius, mesh_h):
        ids = np.arange(next_id, next_id + n)
        next_id += n
        vert_blocks.append(r * unit)
        value_blocks.append(vals)
        i = np.arange(n)
        j = (i + 1) % n
        band = np.empty((2 * n, 3), dtype=int)
        band[0::2] = np.stack([prev[i], ids[i], ids[j]], axis=-1)
        band[1::2] = np.stack([prev[i], ids[j], prev[j]], axis=-1)
        tri_blocks.append(band)
        prev = ids

    mesh = TriMesh(
        np.concatenate(vert_blocks),
        np.concatenate(tri_blocks),
        prev,
        float(params.radius),
    )
    return DiscreteMap(mesh, np.concatenate(value_blocks))


@dataclass(frozen=True)
class SequenceReport:
    """Per-index record of a mollified approximating sequence.

    Mesh columns (area, Jacobian masses) are NaN when no mesh options
    were supplied; the three-valued flags and recovery_map, the glued
    map for the last k, are None in that case.
    """

    k_values: tuple[int, ...]
    l1_errors: tuple[float, ...]
    tv_values: tuple[float, ...]
    area_values: tuple[float, ...]
    jacobian_tv_values: tuple[float, ...]
    filler_jacobian_tv: tuple[float, ...]
    tv_target: float
    area_target: float
    jacobian_rel_tol: float
    area_rel_tol: float
    l1_nonincreasing: bool
    tv_nondecreasing: bool
    tv_within_target: bool
    jacobian_matched: bool | None
    area_converged: bool | None
    recovery_map: DiscreteMap | None = field(compare=False, repr=False)


def strict_convergence_report(
    curve: Curve,
    params: ExtensionParams = ExtensionParams(),
    ks: tuple[int, ...] = (2, 4, 8, 16, 32),
    options: PlateauOptions | None = None,
) -> SequenceReport:
    """Track the mollified sequence toward the curve: L1 disk error and
    scaled variation for every k, plus graph area and Jacobian mass of
    the glued recovery maps when mesh options are given.

    The constant-speed filler for the completed curve serves every k
    whose mollified profile its rim matches, and is minimised once, only
    if some k uses it; the other k (jumpy curves) get their own
    angle-matched filler.  Rims are pinned, so the match is decided on
    the radial start, before any minimisation.
    """
    ks = tuple(int(k) for k in ks)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    if min(ks) < 1 or (options is not None and min(ks) < 2):
        raise ValueError("ks must be >= 1, and >= 2 when recovery maps are built")

    ell = params.radius
    tv_target = ell * total_variation(curve).total
    poly = completed_curve(curve, (options or PlateauOptions()).n_completion)
    lower = winding_area(poly)
    area_target = graph_area_term(curve, params) + singular_term(curve, params) + lower

    start = _datum_start(poly, options.mesh_h) if options is not None else None
    base = None

    vk = None
    l1s, tvs, areas, jtvs, fjtvs = [], [], [], [], []
    for k in ks:
        phi = mollify_sequence(curve, k)
        # the radial midpoint rule is exact on the linear integrand r, so
        # the disk L1 distance reduces to the angular quadrature
        l1s.append(0.5 * ell * ell * l1_distance(curve, phi, params.nodes))
        tvs.append(ell * total_variation(phi).total)
        if options is None:
            areas.append(math.nan)
            jtvs.append(math.nan)
            fjtvs.append(math.nan)
            continue
        try:
            seam = _seam_values(phi, start)
        except RecoveryMismatchError:
            fit = minimize_for_profile(phi, options)
            seam = _seam_values(phi, fit.dmap)
        else:
            # the minimiser keeps the start's mesh and pinned rim: same seam
            if base is None:
                base = _minimize_from(start, options, lower)
            fit = base
        vk = _glue(params, k, fit.dmap, seam, options.mesh_h)
        areas.append(area_functional(vk))
        jtvs.append(jacobian_tv(vk))
        fjtvs.append(fit.energy)

    jac_tol = 1e-3
    area_tol = 0.05
    slack = 1e-12 * max(1.0, tv_target)
    if options is None:
        jac_ok = None
        area_ok = None
    else:
        jac_ok = all(abs(j - f) <= jac_tol * max(f, 1e-9) for j, f in zip(jtvs, fjtvs))
        area_ok = abs(areas[-1] - area_target) <= area_tol * max(area_target, 1e-9)
    return SequenceReport(
        ks,
        tuple(l1s),
        tuple(tvs),
        tuple(areas),
        tuple(jtvs),
        tuple(fjtvs),
        tv_target,
        area_target,
        jac_tol,
        area_tol,
        all(b - a <= slack for a, b in zip(l1s, l1s[1:])),
        all(b - a >= -slack for a, b in zip(tvs, tvs[1:])),
        all(t <= tv_target + slack for t in tvs),
        jac_ok,
        area_ok,
        vk,
    )


@dataclass(frozen=True, eq=False)
class SlicingReport:
    """Circle-wise variation of the extension against the tangential
    variation of the curve.  slice_tv is constant across radii because a
    homogeneous map restricts to the same profile on every circle; open
    traces contribute their closing chord to each slice."""

    radii: np.ndarray
    slice_tv: np.ndarray
    circle_tv: float
    estimate: float
    exact: float
    rel_error: float


def slicing_check(
    curve: Curve,
    params: ExtensionParams = ExtensionParams(),
    eps: float = 0.0,
    n_radii: int = 256,
) -> SlicingReport:
    """Midpoint-integrate the slice variation of the extension over the
    radii in (eps, R) and compare with (R - eps) * TV(curve).

    Each circle is sampled at n_radii angles; jump angles contribute
    their one-sided values exactly, so jump atoms are never smeared by
    sampling.
    """
    if n_radii < 1:
        raise ValueError("n_radii must be >= 1")
    exact = tangential_variation(curve, params, eps)

    uniform = (np.arange(n_radii) + 0.5) * TWO_PI / n_radii
    jump_angles = np.asarray([np.mod(j.theta, TWO_PI) for j in curve.jumps])
    if len(jump_angles):
        d = np.abs(uniform[:, None] - jump_angles[None, :])
        d = np.minimum(d, TWO_PI - d)
        uniform = uniform[np.min(d, axis=1) > 1e-12]
    if len(uniform):
        samples = evaluate_many(curve, uniform)
    else:
        samples = np.zeros((0, 2))

    angles = [uniform]
    keys = [np.ones(len(uniform))]
    values = [samples]
    for j in curve.jumps:
        t = np.mod(j.theta, TWO_PI)
        angles.append(np.array([t, t]))
        keys.append(np.array([0.0, 1.0]))
        values.append(np.stack([j.left, j.right]))
    ang = np.concatenate(angles)
    order = np.lexsort((np.concatenate(keys), ang))
    vals = np.concatenate(values)[order]

    steps = np.linalg.norm(np.diff(vals, axis=0), axis=1)
    wrap = float(np.linalg.norm(vals[0] - vals[-1]))
    circle_tv = math.fsum(steps.tolist()) + wrap

    dr = (params.radius - eps) / n_radii
    radii = eps + (np.arange(n_radii) + 0.5) * dr
    slice_tv = np.full(n_radii, circle_tv)
    estimate = math.fsum((slice_tv * dr).tolist())
    if estimate == 0.0 and exact == 0.0:
        rel = 0.0
    else:
        rel = abs(estimate - exact) / max(abs(exact), 1e-300)
    return SlicingReport(radii, slice_tv, circle_tv, estimate, exact, rel)
