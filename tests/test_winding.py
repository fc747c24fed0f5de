"""Winding numbers and exact winding areas.

Frozen oracles: regular n-gon inscribed in the unit circle has area
(n/2)*sin(2*pi/n); the two-lobe square chain and the integer bowtie both
enclose total multiplicity-weighted area 2.
"""

import math
import re
import warnings

import numpy as np
import pytest
import reference_arrangement as reference
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_plateau import star_polygons

from bvplateau import ClosedPolyline, completed_curve, winding
from bvplateau.curveio import BUILTIN_NAMES, builtin_curve, constant_curve
from bvplateau.winding import (
    ArrangementError,
    GridEstimate,
    _candidate_pairs,
    _cut_parameters,
    _poly_scale,
    _segments,
    _snap,
    _Snapper,
    build_arrangement,
    winding_area,
    winding_area_grid,
    winding_number_many,
)


def ngon(n: int, wound: int = 1) -> ClosedPolyline:
    t = np.linspace(0.0, wound * 2 * math.pi, wound * n, endpoint=False)
    return ClosedPolyline(np.stack([np.cos(t), np.sin(t)], axis=-1))


UNIT_SQUARE = ClosedPolyline(
    np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
)
BOWTIE = ClosedPolyline(np.array([[0, 0], [2, 2], [2, 0], [0, 2]], dtype=float))
FIGURE_EIGHT_POLY = ClosedPolyline(
    np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0], [0, -1], [-1, -1], [-1, 0]],
        dtype=float,
    )
)
DOUBLE_SQUARE = ClosedPolyline(
    np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0], [1, 0], [1, 1], [0, 1]],
        dtype=float,
    )
)
SLIT_SQUARE = ClosedPolyline(
    np.array([[0, 0], [2, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
)

# integer 3- to 8-gons with vertices in [-8, 8]; repeated vertices and
# self-intersections included
integer_polygons = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=3, max_size=8
).map(lambda pts: np.array(pts, dtype=float))


@st.composite
def near_degenerate_polylines(draw):
    """Polylines grown from an integer vertex, each next vertex either
    integer or made from an earlier edge p -> q: a repeated vertex, a point
    on the edge (T-junctions and vertex-on-edge touches), a point on its
    line beyond it (collinear overlaps), a point a few 1e-12 |q - p| off
    its line, a step turned about 1e-12 rad from it (the _cut_parameters
    parallel threshold), or such a step started just past q: there
    rounding lets _cut_parameters accept pairs whose boxes are up to about
    1e-4 of their length apart.  Then scaled and translated, so that
    collinearity holds only up to rounding."""
    ints = st.integers(-8, 8)
    v = [np.array([draw(ints), draw(ints)], dtype=float)]
    for _ in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(
            ["point", "repeat", "on_edge", "on_line", "off_line", "turned", "past_end"]
        ))
        if kind == "point" or len(v) < 2:
            v.append(np.array([draw(ints), draw(ints)], dtype=float))
            continue
        if kind == "repeat":
            v.append(v[-1])
            continue
        k = draw(st.integers(0, len(v) - 2))
        p, w = v[k], v[k + 1] - v[k]
        normal = np.array([-w[1], w[0]])
        if kind == "on_edge":
            v.append(p + draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])) * w)
        elif kind == "on_line":
            v.append(p + draw(st.sampled_from([-1.0, -0.5, 1.5, 2.0])) * w)
        elif kind == "off_line":
            lam = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
            v.append(p + lam * w + draw(st.floats(-4e-12, 4e-12)) * normal)
        else:
            a = draw(st.floats(0.25e-12, 4e-12)) * draw(st.sampled_from([-1.0, 1.0]))
            turned = math.cos(a) * w + math.sin(a) * normal
            if kind == "past_end":
                v.append(p + (1.0 + 10.0 ** draw(st.floats(-9.0, -4.0))) * w)
            v.append(v[-1] + draw(st.sampled_from([-1.0, 0.5, 1.0, 2.0])) * turned)
    scale = draw(st.sampled_from([1.0, 2.0**-20, 1e-3, 37.5, 1e6]))
    shift = draw(st.sampled_from([0.0, 0.1, 1e3, 1e6]))
    return ClosedPolyline(scale * np.array(v) + shift)


# ---------------------------------------------------------------------------
# exact areas


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 17, 24, 33, 48, 64])
def test_regular_ngon_area(n):
    expect = 0.5 * n * math.sin(2 * math.pi / n)
    assert abs(winding_area(ngon(n)) - expect) < 1e-12


def test_unit_square_exact():
    assert winding_area(UNIT_SQUARE) == 1.0


def test_orientation_does_not_matter():
    cw = ClosedPolyline(UNIT_SQUARE.vertices[::-1].copy())
    assert winding_area(cw) == 1.0


def test_double_square_multiplicity():
    assert winding_area(DOUBLE_SQUARE) == 2.0


def test_double_wound_polygon():
    n = 16
    expect = 2 * 0.5 * n * math.sin(2 * math.pi / n)
    assert abs(winding_area(ngon(n, wound=2)) - expect) < 1e-12


def test_bowtie():
    assert winding_area(BOWTIE) == 2.0


def test_figure_eight_polygon():
    assert winding_area(FIGURE_EIGHT_POLY) == 2.0


def test_figure_eight_builtin_completed():
    poly = completed_curve(builtin_curve("figure-eight"), 64)
    assert abs(winding_area(poly) - 2.0) < 1e-12


# winding areas of the completions computed by testing every segment pair;
# triple completes to its three corners at any n, and its entry is the
# fractions.Fraction shoelace of [0, 0], [1, 0], [0.5, sqrt(3)/2], rounded
FROZEN_AREAS = {
    512: {"vortex": 3.14151349222452, "triple": 0.4330127018922193,
          "cantor-arc": 0.28539369992267466, "figure-eight": 2.0},
    1024: {"vortex": 3.1415729018083027, "triple": 0.4330127018922193,
           "cantor-arc": 0.28539704752732786, "figure-eight": 2.0},
}


@pytest.mark.parametrize("n", sorted(FROZEN_AREAS))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_completion_frozen_area(name, n):
    assert winding_area(completed_curve(builtin_curve(name), n)) == FROZEN_AREAS[n][name]


def test_slit_square():
    # the doubled-back spur bounds no area and must not break face tracing
    assert winding_area(SLIT_SQUARE) == 1.0


def test_degenerate_point():
    poly = ClosedPolyline(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert winding_area(poly) == 0.0


def test_flat_polygon():
    poly = ClosedPolyline(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
    assert winding_area(poly) == 0.0


# ---------------------------------------------------------------------------
# structure


def test_figure_eight_faces():
    arr = build_arrangement(FIGURE_EIGHT_POLY)
    bounded = [f for f in arr.faces if not f.is_outer]
    outer = [f for f in arr.faces if f.is_outer]
    assert len(outer) == 1
    assert outer[0].winding == 0
    assert sorted(f.winding for f in bounded) == [-1, 1]
    assert all(f.area == 1.0 for f in bounded)


def test_bowtie_faces():
    arr = build_arrangement(BOWTIE)
    bounded = sorted((f.winding, f.area) for f in arr.faces if not f.is_outer)
    assert bounded == [(-1, 1.0), (1, 1.0)] or bounded == [(1, 1.0), (-1, 1.0)]


# ---------------------------------------------------------------------------
# invariances


@pytest.mark.parametrize("poly", [BOWTIE, FIGURE_EIGHT_POLY, DOUBLE_SQUARE])
def test_integer_translation_exact(poly):
    shifted = ClosedPolyline(poly.vertices + np.array([3.0, -7.0]))
    assert winding_area(shifted) == winding_area(poly)


@pytest.mark.parametrize("poly", [BOWTIE, FIGURE_EIGHT_POLY, DOUBLE_SQUARE])
def test_quarter_turn_exact(poly):
    v = poly.vertices
    rot = ClosedPolyline(np.stack([-v[:, 1], v[:, 0]], axis=-1))
    assert winding_area(rot) == winding_area(poly)


@pytest.mark.parametrize("poly", [BOWTIE, FIGURE_EIGHT_POLY])
def test_dyadic_dilation_exact(poly):
    scaled = ClosedPolyline(2.0 * poly.vertices)
    assert winding_area(scaled) == 4.0 * winding_area(poly)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(star_polygons().map(lambda poly: np.round(16.0 * poly.vertices[:-1])))
def test_simple_integer_polygon_cyclic_shift_and_reversal_exact(v):
    nxt = np.roll(v, -1, axis=0)
    c = np.round(np.mean(v, axis=0))
    a, b = v - c, nxt - c
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    # every edge turns strictly counterclockwise about c, once around in total:
    # the polygon is star-shaped about c, hence simple (no cut points)
    turns = np.sum(np.arctan2(cross, np.sum(a * b, axis=1))) / (2 * math.pi)
    assume(np.all(cross > 0) and round(turns) == 1)
    shoelace = 0.5 * abs(math.fsum((v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0]).tolist()))
    area = winding_area(ClosedPolyline(v))
    assert area == shoelace
    for s in range(1, len(v)):
        assert winding_area(ClosedPolyline(np.roll(v, s, axis=0))) == area
    assert winding_area(ClosedPolyline(v[::-1])) == area


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polygons)
def test_integer_polygon_quarter_turn_exact(v):
    # winding_area raising ArrangementError fails the property too
    rot = np.stack([-v[:, 1], v[:, 0]], axis=-1)
    assert winding_area(ClosedPolyline(rot)) == winding_area(ClosedPolyline(v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polygons, st.integers(1, 4))
def test_integer_polygon_dyadic_dilation_exact(v, k):
    assert winding_area(ClosedPolyline(2.0**k * v)) == 4.0**k * winding_area(ClosedPolyline(v))


def test_general_rigid_motion():
    rng = np.random.default_rng(3)
    base = winding_area(BOWTIE)
    for _ in range(5):
        a = rng.uniform(0, 2 * math.pi)
        R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        shift = rng.uniform(-10, 10, 2)
        moved = ClosedPolyline(BOWTIE.vertices @ R.T + shift)
        assert winding_area(moved) == pytest.approx(base, rel=1e-12)


def test_general_dilation():
    for c in (0.3, 1.7, 11.0):
        scaled = ClosedPolyline(c * BOWTIE.vertices)
        assert winding_area(scaled) == pytest.approx(c * c * 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# candidate filter


def assert_filter_keeps_every_cut(poly):
    """The sweep returns exactly the blocked filter's pairs; every pair the
    reference _pair_cuts cuts, tested against all pairs, is among them, and
    _cut_parameters cuts all pairs as the reference does."""
    segs = _segments(poly)
    eps = 1e-12 * _poly_scale(poly)
    pairs = _candidate_pairs(segs, eps)
    assert np.array_equal(pairs, reference._candidate_pairs(segs, eps))
    kept = set(map(tuple, pairs.tolist()))
    want = []
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            cuts = reference._pair_cuts(segs[i, 0], segs[i, 1], segs[j, 0], segs[j, 1], eps)
            if cuts:
                assert (i, j) in kept, (i, j, segs[i].tolist(), segs[j].tolist())
            want += [(i, t) for t, _ in cuts] + [(j, u) for _, u in cuts]
    all_pairs = np.array(np.triu_indices(len(segs), 1)).T
    seg, t = _cut_parameters(segs, all_pairs, eps)
    assert sorted(zip(seg.tolist(), t.tolist())) == sorted(want)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_candidate_filter_keeps_builtin_cuts(name, n):
    assert_filter_keeps_every_cut(completed_curve(builtin_curve(name), n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polygons)
def test_candidate_filter_keeps_integer_polygon_cuts(v):
    assert_filter_keeps_every_cut(ClosedPolyline(v))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_degenerate_polylines())
def test_candidate_filter_keeps_near_degenerate_cuts(poly):
    assert_filter_keeps_every_cut(poly)


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_arrangement_tests_linearly_many_pairs(monkeypatch, name, n):
    # a work count, not a timing: testing every pair would take m(m-1)/2 rows
    rows = []

    def counting(segs, pairs, eps):
        rows.append(len(pairs))
        return _cut_parameters(segs, pairs, eps)

    monkeypatch.setattr(winding, "_cut_parameters", counting)
    poly = completed_curve(builtin_curve(name), n)
    winding_area(poly)
    assert len(rows) == 1 and 0 < rows[0] <= 2 * len(_segments(poly))


# ---------------------------------------------------------------------------
# array code against the loop reference


def assert_matches_reference(poly):
    """build_arrangement returns what the loop reference returns, and
    winding_area its winding area bit for bit, or both raise the same
    ArrangementError."""
    try:
        want = reference.build_arrangement(poly)
    except ArrangementError as err:
        for f in (build_arrangement, winding_area):
            with pytest.raises(ArrangementError, match=f"^{re.escape(str(err))}$"):
                f(poly)
        return
    got = build_arrangement(poly)
    assert np.array_equal(got.vertices, want.vertices)
    assert [(f.vertex_cycle, f.signed_area, f.winding, f.is_outer) for f in got.faces] == [
        (f.vertex_cycle, f.signed_area, f.winding, f.is_outer) for f in want.faces
    ]
    assert winding_area(poly) == want.winding_area


@pytest.mark.parametrize("n", [64, 256, 512, 1024])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_arrangement_matches_reference(name, n):
    assert_matches_reference(completed_curve(builtin_curve(name), n))


@pytest.mark.parametrize("poly", [SLIT_SQUARE, FIGURE_EIGHT_POLY, DOUBLE_SQUARE])
def test_fixture_arrangement_matches_reference(poly):
    assert_matches_reference(poly)


def test_collinear_cuts_do_not_depend_on_blas():
    # segments 1 and 2 overlap collinearly; with the dot products of that
    # branch taken by a BLAS ddot (r @ r), the overlap's cut parameter
    # differs in its last bits from rx*rx + ry*ry arithmetic, and the area
    # from 8.046627044675854e-07 by 1 ulp
    poly = ClosedPolyline(np.array([
        [-0.001220703125, 0.0009765625000000733],
        [-0.0012207031249997558, -0.0007324218749997558],
        [0.0009765624999997558, 0.000732421875],
        [0.00024414062500007324, 0.00024414062500024416],
        [-0.0017089843749999267, -2.44140625e-16],
    ]))
    assert_matches_reference(poly)


def test_overlapping_edges_ordered_by_index():
    # snapping makes edges overlap, so half-edges leave one vertex at one
    # angle; ordered by index, not by the numpy build's unstable argsort,
    # the face walk meets the same inconsistency on every build
    poly = ClosedPolyline(np.array([
        [1, 0], [2, 0], [1, -2.48573809e-12], [0, 0],
        [2.0001, 0], [1.0001, -1.12260239e-12], [3, 0],
    ]))
    with pytest.raises(ArrangementError, match="^inconsistent winding at faces 0/0: 0 vs -1$"):
        build_arrangement(poly)
    assert_matches_reference(poly)


def test_segment_whose_square_underflows():
    # the last segment is 1.5e-168 long; its squared length is 0
    poly = ClosedPolyline(np.array([[0, 0], [0, 9.53674316e-07], [0, 0], [-1.52534524e-168, 0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert winding_area(poly) == 0.0
    assert_matches_reference(poly)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polygons)
def test_integer_polygon_arrangement_matches_reference(v):
    assert_matches_reference(ClosedPolyline(v))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_degenerate_polylines())
def test_near_degenerate_arrangement_matches_reference(poly):
    assert_matches_reference(poly)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(star_polygons(), st.integers(-20, 30))
def test_translated_star_polygon_arrangement_matches_reference(poly, k):
    # a far translation makes the shoelace terms large next to the area
    assert_matches_reference(ClosedPolyline(poly.vertices + 2.0**k))


def test_simple_trace_skips_the_face_stage(monkeypatch):
    def no_faces(*args):
        raise AssertionError("face stage ran")

    monkeypatch.setattr(winding, "_faces", no_faces)
    assert winding_area(completed_curve(builtin_curve("triple"), 512)) == FROZEN_AREAS[512]["triple"]
    with pytest.raises(AssertionError, match="face stage ran"):
        winding_area(completed_curve(builtin_curve("figure-eight"), 512))


# ---------------------------------------------------------------------------
# snapping


def sequential_snap(points, eps):
    snap = _Snapper(eps)
    ids = [snap.add(p) for p in points]
    return np.array(ids, dtype=np.intp), np.asarray(snap.points)


@st.composite
def clustered_clouds(draw):
    """(points, eps): points within 2 eps of a few centres 8 eps apart, at
    offsets in quarters of eps, so that some pairs lie exactly eps apart,
    with exact repeats mixed in."""
    eps = draw(st.sampled_from([0.25, 2.0**-40, 1e-12]))
    centres = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=5))
    quarters = st.integers(-8, 8)
    pts = []
    for _ in range(draw(st.integers(1, 40))):
        if pts and draw(st.integers(0, 3)) == 0:
            pts.append(pts[draw(st.integers(0, len(pts) - 1))])
        else:
            cx, cy = draw(st.sampled_from(centres))
            pts.append((8 * cx * eps + draw(quarters) * eps / 4,
                        8 * cy * eps + draw(quarters) * eps / 4))
    return np.array(pts), eps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clustered_clouds())
def test_snap_matches_sequential_snapper(cloud):
    points, eps = cloud
    ids, merged = _snap(points, eps)
    want_ids, want_merged = sequential_snap(points, eps)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(merged, want_merged)


def test_snapper_runs_only_where_points_are_close(monkeypatch):
    # the vortex completion's closing segment is 2.4e-16 long: its two ends
    # are the only distinct points within eps, among 1 023 cut points
    added = []
    add = _Snapper.add

    def counting(self, p):
        added.append(p)
        return add(self, p)

    monkeypatch.setattr(_Snapper, "add", counting)
    poly = completed_curve(builtin_curve("vortex"), 512)
    assert winding_area(poly) == FROZEN_AREAS[512]["vortex"]
    assert 0 < len(added) <= 8


# ---------------------------------------------------------------------------
# point queries


def _angle_winding(poly: ClosedPolyline, point) -> int:
    """Independent oracle for the crossing counts: the turned angle of the
    chain seen from a point off the curve, in whole turns."""
    p = np.asarray(point, dtype=float)
    segs = _segments(poly)
    va = segs[:, 0] - p
    vb = segs[:, 1] - p
    ang = np.arctan2(va[:, 0] * vb[:, 1] - va[:, 1] * vb[:, 0], np.sum(va * vb, axis=1))
    turns = float(np.sum(ang)) / (2 * math.pi)
    w = round(turns)
    assert abs(turns - w) <= 1e-6
    return w


def _dense_winding(poly: ClosedPolyline, points) -> np.ndarray:
    """Crossing counts of every segment against every point in one (m, n)
    broadcast: the reference for winding_number_many's y-sorted runs."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    segs = _segments(poly)
    if len(segs) == 0:
        return np.zeros(len(pts), dtype=int)
    ax, ay = segs[:, 0, 0][:, None], segs[:, 0, 1][:, None]
    bx, by = segs[:, 1, 0][:, None], segs[:, 1, 1][:, None]
    px, py = pts[:, 0][None, :], pts[:, 1][None, :]
    up = (ay <= py) & (by > py)
    down = (by <= py) & (ay > py)
    dy = np.where(by == ay, 1.0, by - ay)
    xi = ax + (py - ay) / dy * (bx - ax)
    hit = xi > px
    return (np.sum(up & hit, axis=0) - np.sum(down & hit, axis=0)).astype(int)


def assert_winding_matches_dense(poly, points):
    got = winding_number_many(poly, points)
    want = _dense_winding(poly, points)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# integer and half-integer points over the integer_polygons box and a
# margin: many lie at vertex y values, on edges and on vertices
HALF_INTEGER_GRID = np.stack(
    np.meshgrid(np.arange(-9, 9.5, 0.5), np.arange(-9, 9.5, 0.5)), axis=-1
).reshape(-1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polygons)
def test_integer_polygon_winding_matches_dense(v):
    assert_winding_matches_dense(ClosedPolyline(v), HALF_INTEGER_GRID)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_winding_matches_dense(name):
    poly = completed_curve(builtin_curve(name), 512)
    lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    rng = np.random.default_rng(7)
    cells = np.stack(np.meshgrid(np.arange(64), np.arange(64)), axis=-1).reshape(-1, 2)
    pts = lo + (cells + rng.random(cells.shape)) * (hi - lo) / 64
    assert_winding_matches_dense(poly, pts)


def test_winding_number_square():
    assert winding_number_many(UNIT_SQUARE, [[0.5, 0.5], [1.5, 0.5]]).tolist() == [1, 0]
    assert _angle_winding(UNIT_SQUARE, [0.5, 0.5]) == 1
    cw = ClosedPolyline(UNIT_SQUARE.vertices[::-1].copy())
    assert winding_number_many(cw, [0.5, 0.5]).tolist() == [-1]


def test_winding_number_double_wound():
    poly = ngon(16, wound=2)
    assert winding_number_many(poly, [0.0, 0.0]).tolist() == [2]
    assert _angle_winding(poly, [0.0, 0.0]) == 2


def test_crossing_matches_angle_random():
    rng = np.random.default_rng(11)
    for _ in range(15):
        poly = ClosedPolyline(rng.uniform(-1, 1, (8, 2)))
        pts = rng.uniform(-1.2, 1.2, (20, 2))
        assert winding_number_many(poly, pts).tolist() == [
            _angle_winding(poly, p) for p in pts
        ]


def test_many_matches_scalar():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 1.5, (50, 2))
    w = winding_number_many(UNIT_SQUARE, pts)
    inside = (
        (pts[:, 0] > 0) & (pts[:, 0] < 1) & (pts[:, 1] > 0) & (pts[:, 1] < 1)
    )
    assert np.array_equal(w != 0, inside)


# ---------------------------------------------------------------------------
# arrangement vs grid estimator


def test_grid_square():
    est = winding_area_grid(UNIT_SQUARE, resolution=32, seed=1)
    assert est.samples == 32 * 32
    assert abs(est.value - 1.0) <= 4 * est.stderr + 0.01


def test_grid_vortex():
    poly = completed_curve(builtin_curve("vortex"), 128)
    exact = winding_area(poly)
    est = winding_area_grid(poly, resolution=64, seed=2)
    assert abs(est.value - exact) <= 4 * est.stderr + 1e-3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polygons, st.integers(0, 2**32 - 1))
@example(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), 0)
def test_grid_matches_integer_polygon_area(v, seed):
    poly = ClosedPolyline(v)
    est = winding_area_grid(poly, 32, seed)
    # the samples cover a box padded by 1e-6 * scale; when none lands in the
    # pad (a filled bounding box: stderr 0), the pad's area counts at up to
    # the largest |winding|, at most half the vertex count
    ext = np.ptp(v, axis=0)
    pad = 2e-6 * _poly_scale(poly) * (ext[0] + ext[1] + 2e-6 * _poly_scale(poly))
    slack = len(v) // 2 * pad + 1e-12 * _poly_scale(poly) ** 2
    assert abs(est.value - winding_area(poly)) <= 4 * est.stderr + slack


def test_grid_deterministic():
    e1 = winding_area_grid(BOWTIE, resolution=32, seed=9)
    e2 = winding_area_grid(BOWTIE, resolution=32, seed=9)
    assert e1.value == e2.value and e1.stderr == e2.stderr


def test_grid_on_a_zero_box():
    # a far constant curve: the box's pad vanishes beside 1e12, so it has no area
    poly = completed_curve(constant_curve([1e12, 1e12]), 512)
    assert winding_area_grid(poly, 64) == GridEstimate(0.0, 0.0, 64, 0)


def test_grid_resolution_floor():
    with pytest.raises(ValueError):
        winding_area_grid(UNIT_SQUARE, resolution=8)
