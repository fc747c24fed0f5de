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

Every iterate pins the rim, so each one's E0 is a valid upper bound.
The minimiser checks E0 at the start point and after every accepted
step and returns the best iterate seen, not the last one; its
jacobian_tv is the reported upper end.  Each delta-stage ends on the
first of:

- bracket_closed: best E0 - lower <= BRACKET_RTOL * max(lower, scale**2),
  with lower the winding area of the rim trace and scale the largest
  rim-value norm.  This ends the whole schedule.
- stationary: the sup-norm gradient of E_delta is below grad_tol, or
  E_delta fell by at most STALL_RTOL (relative) over the last
  STALL_WINDOW steps.
- max_iters: the stage ran options.max_iters steps.
- line_search_failed: 60 halvings found no Armijo decrease.

A run is converged when its last stage ended bracket_closed or
stationary.  The window constants were set on the cantor-arc k = 8
filler without a lower bound: at mesh_h 0.05 the stages stop after
7116, 1337, 100 and 100 steps and reach the same best E0 as runs with a
ten times smaller STALL_RTOL, which hit max_iters in the first stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ClosedPolyline, Curve, completed_curve
from .geometry import triangle_dets
from .meshing import TriMesh, make_disk_mesh
from .winding import winding_area


@dataclass(frozen=True, eq=False)
class DiscreteMap:
    mesh: TriMesh
    values: np.ndarray  # (n_vertices, 2)


def jacobian_tv(dmap: DiscreteMap) -> float:
    """Total variation of the Jacobian: sum of area * |J| over triangles."""
    return 0.5 * math.fsum(np.abs(triangle_dets(dmap.values, dmap.mesh.triangles)).tolist())


@dataclass(frozen=True)
class PlateauOptions:
    mesh_h: float = 0.05
    delta_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    max_iters: int = 20000
    grad_tol: float = 1e-8
    n_completion: int = 512

    def __post_init__(self):
        if not self.delta_schedule:
            raise ValueError("delta_schedule must be nonempty")
        if not all(math.isfinite(d) and d > 0.0 for d in self.delta_schedule):
            raise ValueError("every delta must be finite and positive")


GAP_RATIO = 1.05

# stopping rules of jacobian_tv_minimize (see the module docstring)
BRACKET_RTOL = 1e-12
STALL_WINDOW = 100
STALL_RTOL = 1e-4

# completion resolution of the value at the origin (see origin_value)
ORIGIN_VERTICES = 512


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
    termination: str
    gap_flag: bool
    poly: ClosedPolyline = field(compare=False, repr=False)
    result: MinimizeResult = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """The best iterate and how each delta-stage that ran ended.

    terminations holds one reason per stage: "bracket_closed",
    "stationary", "max_iters" or "line_search_failed"; converged means the
    last one is "bracket_closed" or "stationary".  grad_norm and the stage
    records are sup-norm gradients of E_delta at the stop.
    """

    dmap: DiscreteMap
    energy: float  # E0 of dmap, the iterate of least E0
    iterations: int
    converged: bool
    grad_norm: float
    stages: tuple[tuple[float, int, float], ...]  # (delta, iters, grad_norm)
    terminations: tuple[str, ...]


def arclength_centroid(poly: ClosedPolyline) -> np.ndarray:
    v = poly.vertices
    seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
    if float(np.sum(seg)) == 0.0:
        return v[0].copy()
    mids = 0.5 * (v[:-1] + v[1:])
    return np.average(mids, axis=0, weights=seg)


def _energy_grad(values, tris, det_s, delta, grad_out):
    """E_delta and its gradient (into grad_out), plus E0 of the same values
    (a plain sum; jacobian_tv gives the correctly rounded one)."""
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
    return energy, 0.5 * float(np.sum(np.abs(det)))


def _energy_only(values, tris, det_s, delta):
    det = triangle_dets(values, tris)
    return 0.5 * float(np.sum(np.sqrt(det * det + (delta * det_s) ** 2)))


def _stalled(history: list[float]) -> bool:
    if len(history) <= STALL_WINDOW:
        return False
    return history[-1 - STALL_WINDOW] - history[-1] <= STALL_RTOL * abs(history[-1])


def jacobian_tv_minimize(
    mesh: TriMesh,
    boundary_values: np.ndarray,
    options: PlateauOptions = PlateauOptions(),
    init: np.ndarray | None = None,
    lower: float | None = None,
) -> MinimizeResult:
    """Descend E_delta over interior vertex values along the delta schedule
    and return the iterate of least E0 seen.

    Boundary vertices are pinned to boundary_values throughout, so every
    iterate is admissible and its E0 is a valid upper bound.  lower is a
    lower bound for E0 over admissible maps (the winding area of the rim
    trace); without it the bracket rule never fires.
    """
    tris = mesh.triangles
    det_s = triangle_dets(mesh.vertices, tris)

    free = ~mesh.boundary_mask()
    values = init.copy() if init is not None else np.zeros((mesh.n_vertices, 2))
    values[mesh.boundary_loop] = boundary_values
    if lower is None:
        target = -math.inf
    else:
        scale = float(np.max(np.linalg.norm(boundary_values, axis=1)))
        target = lower + BRACKET_RTOL * max(lower, scale * scale)

    # iterates are replaced, never written in place, so best can alias one
    best, best_e0 = values, math.inf
    grad = np.zeros_like(values)
    total_iters = 0
    stages = []
    terminations = []

    for delta in options.delta_schedule:
        prev_x = None
        prev_g = None
        stage_iters = 0
        energy, e0 = _energy_grad(values, tris, det_s, delta, grad)
        history = [energy]
        while True:
            if e0 < best_e0:
                best, best_e0 = values, e0
            g = grad[free]
            grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
            if best_e0 <= target:
                reason = "bracket_closed"
                break
            if grad_norm < options.grad_tol or _stalled(history):
                reason = "stationary"
                break
            if stage_iters == options.max_iters:
                reason = "max_iters"
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
                reason = "line_search_failed"
                break
            energy, e0 = _energy_grad(values, tris, det_s, delta, grad)
            history.append(energy)
        total_iters += stage_iters
        stages.append((float(delta), stage_iters, grad_norm))
        terminations.append(reason)
        if reason == "bracket_closed":
            break

    dmap = DiscreteMap(mesh, best)
    return MinimizeResult(
        dmap,
        jacobian_tv(dmap),
        total_iters,
        reason in ("bracket_closed", "stationary"),
        grad_norm,
        tuple(stages),
        tuple(terminations),
    )


def _as_polyline(datum: Curve | ClosedPolyline, options: PlateauOptions) -> ClosedPolyline:
    if isinstance(datum, Curve):
        return completed_curve(datum, options.n_completion)
    return datum


def origin_value(curve: Curve) -> np.ndarray:
    """Value given to the homogeneous extension of curve at the origin: the
    arclength centroid of its completion with ORIGIN_VERTICES vertices."""
    return arclength_centroid(completed_curve(curve, ORIGIN_VERTICES))


def _radial_start(value_at, corner_angles, centroid, mesh_h: float) -> DiscreteMap:
    """Map on the unit-disk mesh whose rim keeps corner_angles: every rim
    vertex pinned to value_at(its angle), interpolated radially from
    centroid at the origin."""
    mesh = make_disk_mesh(1.0, mesh_h, extra_boundary_angles=corner_angles)
    ang = np.mod(np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0]), 2 * math.pi)
    vals = value_at(ang)
    r = np.linalg.norm(mesh.vertices, axis=1) / mesh.radius
    values = centroid + r[:, None] * (vals - centroid)
    values[mesh.boundary_loop] = vals[mesh.boundary_loop]  # r is 1 only up to rounding
    return DiscreteMap(mesh, values)


def _datum_start(poly: ClosedPolyline, mesh_h: float) -> DiscreteMap:
    """Radial start whose rim traverses poly at constant speed.  The rim
    keeps the polyline's corner angles, so its trace is poly itself."""
    return _radial_start(poly.point_at, poly.vertex_angles(), arclength_centroid(poly), mesh_h)


def _minimize_from(start: DiscreteMap, options: PlateauOptions, lower: float | None) -> MinimizeResult:
    mesh = start.mesh
    return jacobian_tv_minimize(mesh, start.values[mesh.boundary_loop], options, start.values, lower)


def minimize_for_datum(
    datum: Curve | ClosedPolyline,
    options: PlateauOptions = PlateauOptions(),
    lower: float | None = None,
) -> MinimizeResult:
    """Minimise from the radial start with the rim traversing the completed
    polyline at constant speed.  lower, when given, is the winding area of
    that polyline and lets the minimiser stop once the bracket closes."""
    return _minimize_from(_datum_start(_as_polyline(datum, options), options.mesh_h), options, lower)


def plateau_value(
    datum: Curve | ClosedPolyline, options: PlateauOptions = PlateauOptions()
) -> PlateauCertificate:
    """Bracket the least sweeping area of a boundary curve.

    Curves are completed to their chord-filled polyline first.  The mesh
    always lives on the unit disk: the bracket depends on the datum only.
    """
    poly = _as_polyline(datum, options)
    lower = winding_area(poly)
    result = minimize_for_datum(poly, options, lower)
    upper = result.energy
    gap = upper > GAP_RATIO * lower + 1e-9
    return PlateauCertificate(
        lower,
        upper,
        result.stages[-1][0],
        options.mesh_h,
        result.iterations,
        result.converged,
        result.terminations[-1],
        gap,
        poly,
        result,
    )
