"""Discrete Jacobian minimisation and the bracket certificate.

Frozen oracles: the unit-circle datum has least sweeping area pi; the
equilateral triangle with unit sides has sqrt(3)/4; any admissible map's
Jacobian total variation dominates the winding area of its datum.
"""

import dataclasses
import math

import numpy as np
import pytest

from bvplateau import ClosedPolyline, completed_curve
from bvplateau.curveio import builtin_curve, constant_curve
from bvplateau.meshing import make_disk_mesh
from bvplateau.plateau import (
    DiscreteMap,
    PlateauOptions,
    _energy_grad,
    arclength_centroid,
    jacobian_tv,
    minimize_for_datum,
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
        return _energy_grad(v, tris, det_s, 0.05, g)

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
        float(np.sum(mesh.triangle_areas())), abs=1e-14
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
