"""Winding numbers and exact winding areas.

Frozen oracles: regular n-gon inscribed in the unit circle has area
(n/2)*sin(2*pi/n); the two-lobe square chain and the integer bowtie both
enclose total multiplicity-weighted area 2.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_plateau import star_polygons

from bvplateau import ClosedPolyline, completed_curve, winding
from bvplateau.curveio import BUILTIN_NAMES, builtin_curve
from bvplateau.winding import (
    ArrangementError,
    _candidate_pairs,
    _pair_cuts,
    _poly_scale,
    _segments,
    build_arrangement,
    distance_to_curve,
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
    its line, a step turned about 1e-12 rad from it (the _pair_cuts
    parallel threshold), or such a step started just past q: there
    rounding lets _pair_cuts accept pairs whose boxes are up to about 1e-4
    of their length apart.  Then scaled and translated, so that
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


# winding areas of the completions computed by testing every segment pair
FROZEN_AREAS = {
    512: {"vortex": 3.14151349222452, "triple": 0.43301270189221946,
          "cantor-arc": 0.28539369992267455, "figure-eight": 2.0},
    1024: {"vortex": 3.1415729018083027, "triple": 0.43301270189221897,
           "cantor-arc": 0.2853970475273278, "figure-eight": 2.0},
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
    """Every pair _pair_cuts cuts, tested against all pairs, is a candidate;
    candidates are distinct pairs i < j in row-major order."""
    segs = _segments(poly)
    eps = 1e-12 * _poly_scale(poly)
    pairs = [tuple(p) for p in _candidate_pairs(segs, eps).tolist()]
    assert pairs == sorted(set(pairs)) and all(i < j for i, j in pairs)
    kept = set(pairs)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _pair_cuts(segs[i, 0], segs[i, 1], segs[j, 0], segs[j, 1], eps):
                assert (i, j) in kept, (i, j, segs[i].tolist(), segs[j].tolist())


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


def test_arrangement_tests_linearly_many_pairs(monkeypatch):
    # a work count, not a timing: testing every pair would take m(m-1)/2 calls
    calls = []

    def counting(*args):
        calls.append(1)
        return _pair_cuts(*args)

    monkeypatch.setattr(winding, "_pair_cuts", counting)
    poly = completed_curve(builtin_curve("triple"), 512)
    winding_area(poly)
    assert 0 < len(calls) <= 2 * len(_segments(poly))


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


def test_winding_number_square():
    assert winding_number_many(UNIT_SQUARE, [[0.5, 0.5], [1.5, 0.5]]).tolist() == [1, 0]
    assert _angle_winding(UNIT_SQUARE, [0.5, 0.5]) == 1
    cw = ClosedPolyline(UNIT_SQUARE.vertices[::-1].copy())
    assert winding_number_many(cw, [0.5, 0.5]).tolist() == [-1]


def test_winding_number_double_wound():
    poly = ngon(16, wound=2)
    assert winding_number_many(poly, [0.0, 0.0]).tolist() == [2]
    assert _angle_winding(poly, [0.0, 0.0]) == 2


def test_distance_to_curve():
    d = distance_to_curve(UNIT_SQUARE, [[0.5, -1.0], [0.5, 0.5], [3.0, 0.0]])
    assert np.allclose(d, [1.0, 0.5, 2.0])


def test_crossing_matches_angle_random():
    rng = np.random.default_rng(11)
    for _ in range(15):
        poly = ClosedPolyline(rng.uniform(-1, 1, (8, 2)))
        pts = rng.uniform(-1.2, 1.2, (20, 2))
        pts = pts[distance_to_curve(poly, pts) > 1e-9]
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


def test_grid_deterministic():
    e1 = winding_area_grid(BOWTIE, resolution=32, seed=9)
    e2 = winding_area_grid(BOWTIE, resolution=32, seed=9)
    assert e1.value == e2.value and e1.stderr == e2.stderr


def test_grid_resolution_floor():
    with pytest.raises(ValueError):
        winding_area_grid(UNIT_SQUARE, resolution=8)
