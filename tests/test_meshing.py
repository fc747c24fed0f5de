"""Disk mesh structure: conformity, orientation, quality, boundary control."""

import math

import numpy as np
import pytest

from bvplateau.geometry import polygon_signed_area, triangle_dets
from bvplateau.meshing import make_disk_mesh

TWO_PI = 2 * math.pi


def edge_counts(mesh):
    counts = {}
    for tri in mesh.triangles:
        for k in range(3):
            e = (int(tri[k]), int(tri[(k + 1) % 3]))
            key = (min(e), max(e))
            counts[key] = counts.get(key, 0) + 1
    return counts


def triangle_areas(mesh):
    return 0.5 * triangle_dets(mesh.vertices, mesh.triangles)


def min_angle_deg(mesh):
    p = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        num = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        den = np.sum(a * b, axis=1)
        angles.append(np.abs(np.arctan2(num, den)))
    return float(np.degrees(np.min(angles)))


@pytest.mark.parametrize("h", [0.4, 0.2, 0.1])
def test_conforming(h):
    mesh = make_disk_mesh(1.0, h)
    counts = edge_counts(mesh)
    assert set(counts.values()) <= {1, 2}
    n_boundary_edges = sum(1 for c in counts.values() if c == 1)
    assert n_boundary_edges == len(mesh.boundary_loop)
    # Euler formula for a disk: V - E + F = 1 (bounded faces only)
    assert mesh.n_vertices - len(counts) + len(mesh.triangles) == 1


def test_orientation_and_cover():
    mesh = make_disk_mesh(1.0, 0.2)
    areas = triangle_areas(mesh)
    assert np.all(areas > 0.0)
    rim = mesh.vertices[mesh.boundary_loop]
    hull_area = polygon_signed_area(np.vstack([rim, rim[:1]]))
    assert math.fsum(areas.tolist()) == pytest.approx(hull_area, abs=1e-12)


def test_area_converges_to_disk():
    a1 = float(np.sum(triangle_areas(make_disk_mesh(1.0, 0.3))))
    a2 = float(np.sum(triangle_areas(make_disk_mesh(1.0, 0.1))))
    a3 = float(np.sum(triangle_areas(make_disk_mesh(1.0, 0.05))))
    assert abs(a2 - math.pi) < abs(a1 - math.pi)
    # rim polygon inscribed in the circle: deficit is pi*(h)**2/6 at best
    assert abs(a3 - math.pi) < 2e-3


def test_min_angle_quality():
    mesh = make_disk_mesh(1.0, 0.1)
    assert min_angle_deg(mesh) > 20.0


def test_boundary_loop_ordered_on_rim():
    mesh = make_disk_mesh(2.0, 0.25)
    rim = mesh.vertices[mesh.boundary_loop]
    assert np.allclose(np.linalg.norm(rim, axis=1), 2.0, atol=1e-12)
    ang = np.arctan2(rim[:, 1], rim[:, 0]) % TWO_PI
    assert np.all(np.diff(ang) > 0.0)


def test_extra_boundary_angles_present():
    extras = [0.3, 2.0, 5.1]
    mesh = make_disk_mesh(1.0, 0.2, extra_boundary_angles=extras)
    rim = mesh.vertices[mesh.boundary_loop]
    ang = np.arctan2(rim[:, 1], rim[:, 0]) % TWO_PI
    for e in extras:
        assert np.min(np.abs(ang - e)) < 1e-12
    assert np.min(np.diff(np.sort(ang))) > 1e-9
    counts = edge_counts(mesh)
    assert set(counts.values()) <= {1, 2}


def test_extra_angles_near_uniform_sample():
    # an extra angle close to a uniform one must evict it, not duplicate it
    mesh = make_disk_mesh(1.0, 0.2, extra_boundary_angles=[1e-4])
    rim = mesh.vertices[mesh.boundary_loop]
    ang = np.sort(np.arctan2(rim[:, 1], rim[:, 0]) % TWO_PI)
    assert np.min(np.diff(ang)) > 1e-3


def test_coarse_mesh_still_valid():
    mesh = make_disk_mesh(1.0, 5.0)
    counts = edge_counts(mesh)
    assert set(counts.values()) <= {1, 2}
    assert len(mesh.boundary_loop) >= 16
    assert np.all(triangle_areas(mesh) > 0.0)


def test_bad_parameters():
    with pytest.raises(ValueError):
        make_disk_mesh(0.0, 0.1)
    with pytest.raises(ValueError):
        make_disk_mesh(1.0, -1.0)
