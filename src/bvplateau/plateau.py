"""Discrete Plateau-type bracket for the area swept by a boundary curve.

For a piecewise affine map u on a disk mesh with prescribed boundary
values, the Jacobian total variation

    E0(u) = sum_T area_T |J_T| = 1/2 sum_T |det P_T|

is bounded below by the winding area of the boundary trace, for every u
attaining the datum.  Minimising E0 over interior vertex values therefore
brackets the least sweeping area from above, while the winding area
brackets it from below.

E0 is minimised through the smoothed energies

    E_delta(u) = 1/2 sum_T sqrt(det P_T**2 + (delta det S_T)**2)

(det S_T twice the domain triangle area, so E_delta equals
sum_T area_T sqrt(J_T**2 + delta**2)) with a decreasing delta schedule,
Barzilai-Borwein steps and Armijo backtracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ClosedPolyline, Curve, completed_curve
from .meshing import TriMesh, make_disk_mesh
from .winding import winding_area


@dataclass(frozen=True, eq=False)
class DiscreteMap:
    mesh: TriMesh
    values: np.ndarray  # (n_vertices, 2)


def _dets(values: np.ndarray, tris: np.ndarray) -> np.ndarray:
    p = values[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def jacobian_tv(dmap: DiscreteMap) -> float:
    """Total variation of the Jacobian: sum of area * |J| over triangles."""
    return 0.5 * math.fsum(np.abs(_dets(dmap.values, dmap.mesh.triangles)).tolist())


@dataclass(frozen=True)
class PlateauOptions:
    mesh_h: float = 0.05
    delta_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    max_iters: int = 20000
    grad_tol: float = 1e-8
    n_completion: int = 512


GAP_RATIO = 1.05


@dataclass(frozen=True)
class PlateauCertificate:
    """Bracket [lower, upper] for the least sweeping area of the datum.

    gap_flag marks brackets with upper > GAP_RATIO * lower + 1e-9, where
    the computed upper end should not be quoted as the value itself.
    poly is the completed datum and result the minimisation behind the
    upper end; neither takes part in comparisons.
    """

    lower: float
    upper: float
    delta_final: float
    h: float
    iterations: int
    converged: bool
    gap_flag: bool
    poly: ClosedPolyline = field(compare=False, repr=False)
    result: MinimizeResult = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    dmap: DiscreteMap
    energy: float  # E0 of the final iterate
    iterations: int
    converged: bool
    grad_norm: float
    stages: tuple[tuple[float, int, float], ...]  # (delta, iters, grad_norm)


def arclength_centroid(poly: ClosedPolyline) -> np.ndarray:
    v = poly.vertices
    seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
    if float(np.sum(seg)) == 0.0:
        return v[0].copy()
    mids = 0.5 * (v[:-1] + v[1:])
    return np.average(mids, axis=0, weights=seg)


def _energy_grad(values, tris, det_s, delta, grad_out):
    n = len(values)
    p = values[tris]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    det = e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0])
    root = np.sqrt(det * det + (delta * det_s) ** 2)
    energy = 0.5 * float(np.sum(root))
    w = 0.5 * det / np.maximum(root, 1e-300)
    grad_out[:] = 0.0
    for k, e in ((0, e0), (1, e1), (2, e2)):
        idx = tris[:, k]
        grad_out[:, 0] += np.bincount(idx, weights=-e[:, 1] * w, minlength=n)
        grad_out[:, 1] += np.bincount(idx, weights=e[:, 0] * w, minlength=n)
    return energy


def _energy_only(values, tris, det_s, delta):
    det = _dets(values, tris)
    return 0.5 * float(np.sum(np.sqrt(det * det + (delta * det_s) ** 2)))


def jacobian_tv_minimize(
    mesh: TriMesh,
    boundary_values: np.ndarray,
    options: PlateauOptions = PlateauOptions(),
    init: np.ndarray | None = None,
) -> MinimizeResult:
    """Descend E_delta over interior vertex values along the delta schedule.

    Boundary vertices are pinned to boundary_values throughout, so every
    iterate is admissible and its E0 is a valid upper bound.
    """
    tris = mesh.triangles
    dom = mesh.vertices[tris]
    det_s = (dom[:, 1, 0] - dom[:, 0, 0]) * (dom[:, 2, 1] - dom[:, 0, 1]) - (
        dom[:, 1, 1] - dom[:, 0, 1]
    ) * (dom[:, 2, 0] - dom[:, 0, 0])

    free = ~mesh.boundary_mask()
    values = init.copy() if init is not None else np.zeros((mesh.n_vertices, 2))
    values[mesh.boundary_loop] = boundary_values

    grad = np.zeros_like(values)
    total_iters = 0
    stages = []
    converged_all = True
    grad_norm = 0.0

    for delta in options.delta_schedule:
        prev_x = None
        prev_g = None
        stage_iters = 0
        converged = False
        energy = _energy_grad(values, tris, det_s, delta, grad)
        for _ in range(options.max_iters):
            g = grad[free]
            grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
            if grad_norm < options.grad_tol:
                converged = True
                break
            x = values[free]
            if prev_x is None:
                step = 1e-3 / max(grad_norm, 1e-12)
            else:
                s = (x - prev_x).ravel()
                y = (g - prev_g).ravel()
                sy = float(s @ y)
                step = float(s @ s) / sy if sy > 1e-300 else 1e-3 / max(grad_norm, 1e-12)
                step = min(max(step, 1e-14), 1e8)
            prev_x = x.copy()
            prev_g = g.copy()

            gg = float(np.sum(g * g))
            accepted = False
            for _ in range(60):
                trial = values.copy()
                trial[free] = x - step * g
                e_trial = _energy_only(trial, tris, det_s, delta)
                if e_trial <= energy - 1e-4 * step * gg:
                    values = trial
                    accepted = True
                    break
                step *= 0.5
            stage_iters += 1
            if not accepted:
                break
            energy = _energy_grad(values, tris, det_s, delta, grad)
        total_iters += stage_iters
        stages.append((float(delta), stage_iters, grad_norm))
        if not converged:
            converged_all = False

    dmap = DiscreteMap(mesh, values)
    return MinimizeResult(
        dmap, jacobian_tv(dmap), total_iters, converged_all, grad_norm, tuple(stages)
    )


def _as_polyline(datum: Curve | ClosedPolyline, options: PlateauOptions) -> ClosedPolyline:
    if isinstance(datum, Curve):
        return completed_curve(datum, options.n_completion)
    return datum


def _minimize_radial(value_at, corner_angles, centroid, options: PlateauOptions) -> MinimizeResult:
    """Minimise on the unit-disk mesh whose rim keeps corner_angles, with
    every rim vertex pinned to value_at(its angle).  The start interpolates
    radially from centroid at the origin to value_at on the rim."""
    mesh = make_disk_mesh(1.0, options.mesh_h, extra_boundary_angles=corner_angles)
    ang = np.mod(np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0]), 2 * math.pi)
    vals = value_at(ang)
    r = np.linalg.norm(mesh.vertices, axis=1) / mesh.radius
    init = centroid + r[:, None] * (vals - centroid)
    return jacobian_tv_minimize(mesh, vals[mesh.boundary_loop], options, init=init)


def minimize_for_datum(
    datum: Curve | ClosedPolyline, options: PlateauOptions = PlateauOptions()
) -> MinimizeResult:
    """Minimise from the radial start with the rim traversing the completed
    polyline at constant speed.  The rim sampling keeps the datum's corner
    angles, so the boundary trace of every iterate is the polyline itself."""
    poly = _as_polyline(datum, options)
    return _minimize_radial(poly.point_at, poly.vertex_angles(), arclength_centroid(poly), options)


def plateau_value(
    datum: Curve | ClosedPolyline, options: PlateauOptions = PlateauOptions()
) -> PlateauCertificate:
    """Bracket the least sweeping area of a boundary curve.

    Curves are completed to their chord-filled polyline first.  The mesh
    always lives on the unit disk: the bracket depends on the datum only.
    """
    poly = _as_polyline(datum, options)
    result = minimize_for_datum(poly, options)
    lower = winding_area(poly)
    upper = result.energy
    gap = upper > GAP_RATIO * lower + 1e-9
    return PlateauCertificate(
        lower,
        upper,
        options.delta_schedule[-1],
        options.mesh_h,
        result.iterations,
        result.converged,
        gap,
        poly,
        result,
    )
