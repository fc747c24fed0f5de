"""Winding numbers and exact winding areas.

Frozen oracles: regular n-gon inscribed in the unit circle has area
(n/2)*sin(2*pi/n); the two-lobe square chain and the integer bowtie both
enclose total multiplicity-weighted area 2.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from test_plateau import star_polygons

from bvplateau import ClosedPolyline, completed_curve
from bvplateau.curveio import builtin_curve
from bvplateau.winding import (
    ArrangementError,
    PointOnCurveError,
    build_arrangement,
    distance_to_curve,
    winding_area,
    winding_area_grid,
    winding_number,
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
# point queries


def test_winding_number_square():
    assert winding_number(UNIT_SQUARE, [0.5, 0.5]) == 1
    assert winding_number(UNIT_SQUARE, [1.5, 0.5]) == 0
    assert winding_number(UNIT_SQUARE, [0.5, 0.5], method="angle") == 1
    cw = ClosedPolyline(UNIT_SQUARE.vertices[::-1].copy())
    assert winding_number(cw, [0.5, 0.5]) == -1


def test_winding_number_double_wound():
    assert winding_number(ngon(16, wound=2), [0.0, 0.0]) == 2


def test_point_on_curve_raises():
    with pytest.raises(PointOnCurveError) as e:
        winding_number(UNIT_SQUARE, [0.5, 0.0])
    assert e.value.distance <= 1e-12
    with pytest.raises(PointOnCurveError):
        winding_number(UNIT_SQUARE, [1.0, 1.0], method="angle")


def test_distance_to_curve():
    d = distance_to_curve(UNIT_SQUARE, [[0.5, -1.0], [0.5, 0.5], [3.0, 0.0]])
    assert np.allclose(d, [1.0, 0.5, 2.0])


def test_crossing_matches_angle_random():
    rng = np.random.default_rng(11)
    for _ in range(15):
        poly = ClosedPolyline(rng.uniform(-1, 1, (8, 2)))
        for _ in range(20):
            p = rng.uniform(-1.2, 1.2, 2)
            try:
                wc = winding_number(poly, p, method="crossing")
                wa = winding_number(poly, p, method="angle")
            except PointOnCurveError:
                continue
            assert wc == wa


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
