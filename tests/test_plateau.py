"""Discrete Jacobian minimisation and the bracket certificate.

Frozen oracles: the unit-circle datum has least sweeping area pi; the
equilateral triangle with unit sides has sqrt(3)/4; any admissible map's
Jacobian total variation dominates the winding area of its datum.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvplateau import ClosedPolyline, completed_curve
from bvplateau.curveio import builtin_curve, constant_curve
from bvplateau.curves import evaluate_many, mollify_sequence
from bvplateau.geometry import triangle_dets
from bvplateau.meshing import make_disk_mesh
from bvplateau.plateau import (
    BRACKET_RTOL,
    DiscreteMap,
    PlateauOptions,
    _datum_start,
    _energy_grad,
    _minimize_from,
    _radial_start,
    arclength_centroid,
    jacobian_tv,
    minimize_for_datum,
    origin_value,
    plateau_value,
)
from bvplateau.winding import winding_area

QUICK = PlateauOptions(mesh_h=0.15, max_iters=4000)


def rim_angles(mesh):
    rim = mesh.vertices[mesh.boundary_loop]
    return np.mod(np.arctan2(rim[:, 1], rim[:, 0]), 2 * math.pi)


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    mesh = make_disk_mesh(1.0, 0.5)
    values = rng.normal(size=(mesh.n_vertices, 2))
    tris = mesh.triangles
    dom = mesh.vertices[tris]
    det_s = (dom[:, 1, 0] - dom[:, 0, 0]) * (dom[:, 2, 1] - dom[:, 0, 1]) - (
        dom[:, 1, 1] - dom[:, 0, 1]
    ) * (dom[:, 2, 0] - dom[:, 0, 0])
    grad = np.zeros_like(values)
    _energy_grad(values, tris, det_s, 0.05, grad)

    def energy(v):
        g = np.zeros_like(v)
        return _energy_grad(v, tris, det_s, 0.05, g)[0]

    eps = 1e-6
    for idx in [(0, 0), (3, 1), (7, 0), (mesh.n_vertices - 1, 1)]:
        bump = values.copy()
        bump[idx] += eps
        dip = values.copy()
        dip[idx] -= eps
        fd = (energy(bump) - energy(dip)) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_jacobian_tv_of_identity_is_mesh_area():
    mesh = make_disk_mesh(1.0, 0.2)
    dmap = DiscreteMap(mesh, mesh.vertices.copy())
    assert jacobian_tv(dmap) == pytest.approx(
        float(np.sum(0.5 * triangle_dets(mesh.vertices, mesh.triangles))), abs=1e-14
    )


def test_degree_bound_any_admissible_map():
    # E0 dominates the winding area for arbitrary interior values
    rng = np.random.default_rng(12)
    poly = completed_curve(builtin_curve("vortex"), 64)
    mesh = make_disk_mesh(1.0, 0.3, extra_boundary_angles=poly.vertex_angles())
    bvals = poly.point_at(rim_angles(mesh))
    lower = winding_area(poly)
    for _ in range(10):
        values = rng.normal(scale=2.0, size=(mesh.n_vertices, 2))
        values[mesh.boundary_loop] = bvals
        assert jacobian_tv(DiscreteMap(mesh, values)) >= lower - 1e-9


def test_minimize_vortex_quick():
    result = minimize_for_datum(builtin_curve("vortex"), QUICK)
    poly = completed_curve(builtin_curve("vortex"), QUICK.n_completion)
    lower = winding_area(poly)
    assert result.converged
    assert result.energy >= lower - 1e-9
    assert result.energy <= 1.10 * math.pi


def test_certificate_identity_datum():
    opts = PlateauOptions(mesh_h=0.05)
    cert = plateau_value(builtin_curve("vortex"), opts)
    assert cert.lower >= math.pi - 1e-3
    assert cert.upper <= 1.05 * math.pi
    assert cert.upper >= cert.lower - 1e-9
    assert not cert.gap_flag
    assert cert.converged


def test_certificate_triangle():
    cert = plateau_value(builtin_curve("triple"), QUICK)
    expect = math.sqrt(3) / 4
    assert cert.lower == pytest.approx(expect, abs=1e-6)
    assert cert.upper >= cert.lower - 1e-9
    assert cert.upper <= 1.05 * expect


def test_certificate_constant_datum():
    cert = plateau_value(constant_curve([0.3, 0.7]), QUICK)
    assert cert.lower == 0.0
    assert cert.upper == 0.0
    assert not cert.gap_flag
    assert cert.converged


def test_certificate_deterministic():
    c1 = plateau_value(builtin_curve("triple"), QUICK)
    c2 = plateau_value(builtin_curve("triple"), QUICK)
    assert c1 == c2


def test_minimize_respects_boundary():
    poly = completed_curve(builtin_curve("triple"), 64)
    result = minimize_for_datum(poly, dataclasses.replace(QUICK, mesh_h=0.3))
    mesh = result.dmap.mesh
    bvals = poly.point_at(rim_angles(mesh))
    assert np.array_equal(result.dmap.values[mesh.boundary_loop], bvals)


def test_centroid_of_square():
    poly = ClosedPolyline(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float))
    assert np.allclose(arclength_centroid(poly), [1.0, 1.0])


# ---------------------------------------------------------------- stopping rules

# an annular sector from 30 to 330 degrees: its arclength centroid lies
# outside the kernel, so the radial start overshoots the winding area
_T = np.linspace(math.radians(30), math.radians(330), 12)
_ARC = np.stack([np.cos(_T), np.sin(_T)], axis=-1)
C_SHAPE = ClosedPolyline(np.vstack([_ARC, 0.5 * _ARC[::-1]]))


@pytest.mark.parametrize("datum", ["triple", "figure-eight", "c-shape"])
def test_upper_never_above_radial_start(datum):
    opts = PlateauOptions(mesh_h=0.2)
    poly = C_SHAPE if datum == "c-shape" else completed_curve(builtin_curve(datum), 512)
    start = jacobian_tv(_datum_start(poly, opts.mesh_h))
    cert = plateau_value(poly, opts)
    assert cert.upper <= start
    assert cert.termination == "bracket_closed" and cert.converged
    assert cert.result.terminations[-1] == cert.termination
    assert len(cert.result.terminations) == len(cert.result.stages)
    assert cert.delta_final == cert.result.stages[-1][0]
    if datum == "c-shape":
        assert cert.iterations > 0
        assert cert.upper < 0.7 * start


@st.composite
def star_polygons(draw):
    """Polygons star-shaped about a random centre, 3 to 8 vertices."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    centre = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    ang = 2 * math.pi * np.cumsum(gaps) / np.sum(gaps)
    return ClosedPolyline(centre + radii[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(star_polygons())
def test_bracket_valid_and_closed_on_star_polygons(poly):
    cert = plateau_value(poly, PlateauOptions(mesh_h=0.3))
    scale2 = float(np.max(np.sum(poly.vertices**2, axis=1)))
    assert cert.upper >= cert.lower - 1e-12 * scale2
    assert cert.termination == "bracket_closed"
    # the stop reads a plain sum of E0, the report its correctly rounded value
    assert cert.upper - cert.lower <= 2 * BRACKET_RTOL * max(cert.lower, scale2)


def test_stationary_stop_without_lower_bound():
    # the k = 8 profile filler of cantor-arc starts 9e-4 above its rim's
    # winding area; with no bound to close on, every stage must stall
    phi = mollify_sequence(builtin_curve("cantor-arc"), 8)
    corners = [p.theta0 for p in phi.arcs] + [p.theta for p in phi.jumps]
    opts = PlateauOptions(mesh_h=0.15)
    start = _radial_start(lambda ang: evaluate_many(phi, ang), corners, origin_value(phi),
                          opts.mesh_h)
    result = _minimize_from(start, opts, None)
    assert result.terminations == ("stationary",) * len(opts.delta_schedule)
    assert result.converged
    assert all(iters < opts.max_iters // 4 for _, iters, _ in result.stages)
    assert result.energy < jacobian_tv(start)
    assert result.energy == jacobian_tv(result.dmap)


@pytest.mark.parametrize("schedule", [(), (math.nan,), (math.inf,), (0.0,), (1e-1, -0.1)])
def test_options_reject_bad_delta_schedule(schedule):
    with pytest.raises(ValueError):
        PlateauOptions(delta_schedule=schedule)
