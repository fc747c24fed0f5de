"""Disk mesh structure: conformity, orientation, quality, boundary control."""

import math
import tracemalloc

import numpy as np
import pytest
import reference_meshing as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_arrangement import polygon_signed_area

from bvplateau import completed_curve
from bvplateau.curveio import BUILTIN_NAMES, builtin_curve
from bvplateau.geometry import triangle_dets
from bvplateau.meshing import _boundary_angles, _ring_angles, make_disk_mesh

TWO_PI = 2 * math.pi


def corner_angles(name):
    """Rim angles an area op passes: a builtin's 512-vertex completion's."""
    return completed_curve(builtin_curve(name), 512).vertex_angles()


def edge_counts(mesh):
    """Number of triangles on each undirected edge."""
    t = mesh.triangles
    edges = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=-1).reshape(-1, 2), axis=1)
    return np.unique(edges, axis=0, return_counts=True)[1]


def assert_conforming(mesh):
    counts = edge_counts(mesh)
    assert set(counts.tolist()) <= {1, 2}
    assert np.count_nonzero(counts == 1) == len(mesh.boundary_loop)
    # Euler formula for a disk: V - E + F = 1 (bounded faces only)
    assert mesh.n_vertices - len(counts) + len(mesh.triangles) == 1


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
    assert_conforming(make_disk_mesh(1.0, h))


@pytest.mark.parametrize("h", [0.05, 0.2])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conforming_with_dense_rim(name, h):
    # the corners evict every uniform rim sample, as in every area op
    mesh = make_disk_mesh(1.0, h, corner_angles(name))
    assert_conforming(mesh)
    assert np.all(triangle_dets(mesh.vertices, mesh.triangles) > 0.0)


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
    assert set(edge_counts(mesh).tolist()) <= {1, 2}


def test_extra_angles_near_uniform_sample():
    # an extra angle close to a uniform one must evict it, not duplicate it
    mesh = make_disk_mesh(1.0, 0.2, extra_boundary_angles=[1e-4])
    rim = mesh.vertices[mesh.boundary_loop]
    ang = np.sort(np.arctan2(rim[:, 1], rim[:, 0]) % TWO_PI)
    assert np.min(np.diff(ang)) > 1e-3


def test_coarse_mesh_still_valid():
    mesh = make_disk_mesh(1.0, 5.0)
    assert set(edge_counts(mesh).tolist()) <= {1, 2}
    assert len(mesh.boundary_loop) >= 16
    assert np.all(triangle_areas(mesh) > 0.0)


def test_bad_parameters():
    with pytest.raises(ValueError):
        make_disk_mesh(0.0, 0.1)
    with pytest.raises(ValueError):
        make_disk_mesh(1.0, -1.0)


@st.composite
def mesh_arguments(draw):
    """radius, h and rim extras: None, or up to 600 angles in [-10, 10],
    some at uniform rim angles or a quarter spacing off them, where
    _boundary_angles decides whether to evict the uniform sample."""
    radius = draw(st.floats(0.5, 3.0))
    h = draw(st.floats(0.02, 2.0))
    if draw(st.booleans()):
        return radius, h, None
    spacing = TWO_PI / max(16, int(round(TWO_PI * radius / h)))
    free = st.floats(-10.0, 10.0)
    snapped = st.builds(
        lambda k, off: k * spacing + off * spacing,
        st.integers(-200, 200),
        st.sampled_from([-0.25, 0.0, 0.25]),
    )
    return radius, h, draw(st.lists(free | snapped, max_size=600))


def assert_matches_reference(radius, h, extras):
    got = make_disk_mesh(radius, h, extras)
    want = reference.make_disk_mesh(radius, h, extras)
    for name in ("vertices", "triangles", "boundary_loop"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.radius == want.radius


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mesh_arguments())
@example((1.0, 0.05, [0.0, math.pi, TWO_PI, -1e-12]))
def test_matches_loop_reference(args):
    assert_matches_reference(*args)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_matches_loop_reference_on_builtin_corners(name, h):
    assert_matches_reference(1.0, h, corner_angles(name))


# ---------------------------------------------------------------------------
# rim angles against the distance-matrix reference


@st.composite
def rim_arguments(draw):
    """r, h and rim extras that probe the eviction rule: uniform rim
    angles, a quarter spacing off them and one ulp either side of that,
    angles near 0 and near 2*pi, repeats, and optionally a random batch
    of up to three times as many extras as uniform samples."""
    r = draw(st.floats(0.5, 3.0))
    h = draw(st.floats(0.05, 2.0))
    n = max(16, int(round(TWO_PI * r / h)))
    base = _ring_angles(n)
    spacing = TWO_PI / n

    def probe(k, off, ulps):
        x = base[k % n] + off * spacing
        for _ in range(abs(ulps)):
            x = np.nextafter(x, math.copysign(math.inf, ulps))
        return float(x) + TWO_PI * (k // n)

    probes = st.builds(
        probe,
        st.integers(-2 * n, 2 * n),
        st.sampled_from([-0.25, 0.0, 0.25]),
        st.integers(-1, 1),
    )
    edges = st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12, TWO_PI, math.nextafter(TWO_PI, 0.0),
         TWO_PI - 1e-12, -0.25 * spacing, TWO_PI - 0.25 * spacing, 0.25 * spacing]
    )
    extras = draw(st.lists(probes | edges | st.floats(-10.0, 10.0), min_size=1, max_size=40))
    extras += draw(st.lists(st.sampled_from(extras), max_size=5))  # repeats
    batch = draw(st.integers(0, 3 * n))
    if draw(st.booleans()) and batch:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        extras += rng.uniform(-1.0, 7.0, batch).tolist()
    return r, h, draw(st.permutations(extras))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rim_arguments())
@example((1.0, 0.05, [0.25 * TWO_PI / 126]))
@example((1.0, 0.05, [math.nextafter(TWO_PI, 0.0)]))
@example((1.0, 0.05, [TWO_PI - 0.25 * TWO_PI / 126, 0.25 * TWO_PI / 126]))
def test_boundary_angles_match_distance_matrix(args):
    got = _boundary_angles(*args)
    want = reference._boundary_angles(*args)
    assert got.dtype == want.dtype
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_boundary_angles_memory_is_linear():
    # a work count, not a timing: the (samples x extras) distance matrix
    # would take n * e * 8 bytes, 104 MB here, several times over
    n = e = 3600
    extras = (np.arange(e) + 0.5) * (TWO_PI / e)
    tracemalloc.start()
    try:
        angles = _boundary_angles(1.0, TWO_PI / n, extras)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(angles) == n + e
    assert peak <= 64 * 8 * (n + e)
