"""Core curve model: decomposition, evaluation, completion, mollification.

Expected values are frozen from closed forms computed by hand:
  unit circle trace: TV = 2*pi
  three-sector step curve: TV = (0, 3, 0)
  Cantor quarter arc: TV = (0, 0, pi/2); completed length pi/2 + sqrt(2)
  n-gon inscribed in the unit circle: perimeter 2*n*sin(pi/n)
"""

import math

import numpy as np
import pytest

from bvplateau import (
    Arc,
    CircleArcPath,
    Curve,
    CurveValidationError,
    Jump,
    PointPath,
    PolylinePath,
    ZERO_MASS,
    completed_curve,
    evaluate,
    evaluate_many,
    l1_distance,
    linear_mass,
    mollify_sequence,
    reparam_profile,
    sampled_mass,
    total_variation,
    validate,
    variation_to,
)
from bvplateau.curveio import builtin_curve, constant_curve

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# decompositions


def test_vortex_total_variation():
    dec = total_variation(builtin_curve("vortex"))
    assert dec.ac == TWO_PI
    assert dec.jump == 0.0
    assert dec.cantor == 0.0
    assert dec.total == TWO_PI


def test_triple_total_variation():
    dec = total_variation(builtin_curve("triple"))
    assert dec.ac == 0.0
    assert dec.cantor == 0.0
    assert abs(dec.jump - 3.0) < 1e-12
    assert abs(dec.total - 3.0) < 1e-12


def test_cantor_arc_total_variation():
    curve = builtin_curve("cantor-arc")
    dec = total_variation(curve)
    assert dec.ac == 0.0
    assert dec.jump == 0.0
    assert dec.cantor == math.pi / 2
    assert dec.total == math.pi / 2
    # open trace: the endpoint mismatch is a recorded gap, not variation
    assert abs(curve.closure_gap - math.sqrt(2)) < 1e-15


def test_figure_eight_total_variation():
    dec = total_variation(builtin_curve("figure-eight"))
    assert dec.total == 8.0
    assert dec.ac == 8.0


def test_constant_curve_total_variation():
    dec = total_variation(constant_curve([2.0, -1.0]))
    assert dec.total == 0.0


# ---------------------------------------------------------------------------
# evaluation


def test_vortex_evaluates_to_unit_circle():
    curve = builtin_curve("vortex")
    thetas = np.linspace(0.0, TWO_PI, 17, endpoint=False)
    vals = evaluate_many(curve, thetas)
    expect = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_triple_one_sided_values():
    curve = builtin_curve("triple")
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    g = np.array([0.5, math.sqrt(3) / 2])
    assert np.array_equal(evaluate(curve, math.pi / 3, "left"), a)
    assert np.array_equal(evaluate(curve, math.pi / 3, "right"), b)
    assert np.array_equal(evaluate(curve, math.pi, "left"), b)
    assert np.array_equal(evaluate(curve, math.pi, "right"), g)
    assert np.array_equal(evaluate(curve, 0.0), a)
    assert np.array_equal(evaluate(curve, 2.0), b)
    assert np.array_equal(evaluate(curve, 4.0), g)


def test_cantor_arc_midpoint():
    # staircase value at the middle of the interval is exactly 1/2, so the
    # trace sits at arclength pi/4 along the quarter circle
    curve = builtin_curve("cantor-arc")
    v = evaluate(curve, math.pi)
    expect = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
    assert np.max(np.abs(v - expect)) < 1e-12


def test_wrap_piece_evaluation():
    # the arc declared over [5*pi/3, 7*pi/3] must answer queries below pi/3
    curve = builtin_curve("triple")
    a = np.array([0.0, 0.0])
    for theta in (0.0, 0.5, 6.0, 5.9):
        assert np.array_equal(evaluate(curve, theta), a)


def test_variation_to_triple():
    curve = builtin_curve("triple")
    assert variation_to(curve, math.pi / 3, "right") == pytest.approx(1.0, abs=1e-12)
    assert variation_to(curve, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert variation_to(curve, math.pi, "left") == pytest.approx(1.0, abs=1e-12)
    assert variation_to(curve, math.pi, "right") == pytest.approx(2.0, abs=1e-12)
    assert variation_to(curve, 5 * math.pi / 3, "right") == pytest.approx(3.0, abs=1e-12)


def test_variation_to_vortex_is_linear():
    curve = builtin_curve("vortex")
    for t in (0.3, 1.0, 2.0, 4.5, 6.0):
        assert variation_to(curve, t) == pytest.approx(t, abs=1e-12)


# ---------------------------------------------------------------------------
# validation


def _unit_circle_arc():
    return Arc(0.0, TWO_PI, CircleArcPath(np.zeros(2), 1.0, 0.0, TWO_PI), linear_mass(TWO_PI))


def _kind(excinfo):
    return excinfo.value.kind


def test_validate_empty():
    with pytest.raises(CurveValidationError) as e:
        validate(Curve(()))
    assert _kind(e) == "empty"


def test_validate_tiling():
    arc = Arc(0.0, math.pi, PointPath([0.0, 0.0]), ZERO_MASS)
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((arc,)))
    assert _kind(e) == "tiling"


def test_validate_empty_interval():
    bad = Arc(0.0, 0.0, PointPath([0.0, 0.0]), ZERO_MASS)
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((bad, _unit_circle_arc())))
    assert _kind(e) == "empty-interval"


def test_validate_zero_jump():
    jump = Jump(0.0, [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((jump, _unit_circle_arc())))
    assert _kind(e) == "zero-jump"


def test_validate_adjacent_jumps():
    j1 = Jump(0.0, [1.0, 0.0], [2.0, 0.0])
    j2 = Jump(0.0, [2.0, 0.0], [1.0, 0.0])
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((j1, j2, _unit_circle_arc())))
    assert _kind(e) == "adjacent-jumps"


def test_validate_mass_mismatch():
    square = PolylinePath(
        np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    )
    bad = Arc(0.0, TWO_PI, square, linear_mass(3.0))
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((bad,)))
    assert _kind(e) == "mass-mismatch"


def test_validate_point_path_with_mass():
    bad = Arc(0.0, TWO_PI, PointPath([0.0, 0.0]), linear_mass(1.0))
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((bad,)))
    assert _kind(e) == "mass-mismatch"


def test_validate_nonmonotone_cumulative():
    from bvplateau import CumulativeVariation

    bad_mass = CumulativeVariation("sampled", 1.0, np.array([0.0, 0.6, 0.4, 1.0]))
    arc = Arc(0.0, TWO_PI, PolylinePath(np.array([[0, 0], [1, 0]], dtype=float)), bad_mass)
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((arc,)))
    assert _kind(e) == "nonmonotone-cumulative"


def test_validate_sampled_endpoint():
    from bvplateau import CumulativeVariation

    bad_mass = CumulativeVariation("sampled", 1.0, np.array([0.1, 0.5, 1.0]))
    arc = Arc(0.0, TWO_PI, PolylinePath(np.array([[0, 0], [1, 0]], dtype=float)), bad_mass)
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((arc,)))
    assert _kind(e) == "cumulative-samples"


def test_validate_trace_discontinuity():
    a1 = Arc(0.0, math.pi, PointPath([0.0, 0.0]), ZERO_MASS)
    a2 = Arc(math.pi, TWO_PI, PointPath([0.5, 0.0]), ZERO_MASS)
    with pytest.raises(CurveValidationError) as e:
        validate(Curve((a1, a2)))
    assert _kind(e) == "trace-discontinuity"


def test_validate_open_trace_allowed():
    # mismatch at the closing boundary is recorded, not rejected
    seg = PolylinePath(np.array([[0, 0], [1, 0]], dtype=float))
    curve = validate(Curve((Arc(0.0, TWO_PI, seg, linear_mass(1.0)),)))
    assert curve.closure_gap == 1.0


# ---------------------------------------------------------------------------
# completion


def test_completed_square_exact_length():
    square = PolylinePath(
        np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    )
    curve = validate(Curve((Arc(0.0, TWO_PI, square, linear_mass(4.0)),)))
    for n in (8, 64, 512):
        poly = completed_curve(curve, n)
        assert abs(poly.length - 4.0) < 1e-12


def test_completed_vortex_lengths_monotone():
    curve = builtin_curve("vortex")
    lengths = [completed_curve(curve, n).length for n in (8, 32, 128, 512, 2048)]
    assert all(l2 >= l1 for l1, l2 in zip(lengths, lengths[1:]))
    assert all(l <= TWO_PI + 1e-12 for l in lengths)
    assert abs(lengths[-1] - TWO_PI) < 1e-4


def test_completed_triple_is_triangle():
    poly = completed_curve(builtin_curve("triple"), 256)
    assert abs(poly.length - 3.0) < 1e-9
    from bvplateau.geometry import polygon_signed_area

    assert abs(abs(polygon_signed_area(poly.vertices)) - math.sqrt(3) / 4) < 1e-9


def test_completed_cantor_arc_closes_gap():
    curve = builtin_curve("cantor-arc")
    poly = completed_curve(curve, 4096)
    expect = math.pi / 2 + math.sqrt(2)
    assert poly.length <= expect + 1e-12
    assert abs(poly.length - expect) < 1e-6


def test_completed_constant_degenerate():
    poly = completed_curve(constant_curve([1.0, 2.0]))
    assert poly.is_degenerate
    assert np.array_equal(poly.point_at(1.0), np.array([1.0, 2.0]))


def test_completed_preserves_first_value():
    curve = builtin_curve("triple")
    poly = completed_curve(curve, 128)
    assert np.array_equal(poly.vertices[0], np.array([0.0, 0.0]))
    assert np.array_equal(poly.vertices[0], poly.vertices[-1])


def test_vertex_angles_cover_corners():
    square = PolylinePath(
        np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    )
    curve = validate(Curve((Arc(0.0, TWO_PI, square, linear_mass(4.0)),)))
    poly = completed_curve(curve, 16)
    angles = poly.vertex_angles()
    # corner at arclength 1 of 4 sits at parameter angle pi/2
    assert np.min(np.abs(angles - math.pi / 2)) < 1e-12


# ---------------------------------------------------------------------------
# reparametrisation profile


def test_reparam_profile_vortex_is_identity():
    prof = reparam_profile(builtin_curve("vortex"))
    assert prof.length == TWO_PI
    assert prof.jump_intervals == ()
    for t in (0.0, 1.0, 2.5, 6.0):
        assert prof(t) == pytest.approx(t, abs=1e-12)


def test_reparam_profile_triple_gaps():
    curve = builtin_curve("triple")
    prof = reparam_profile(curve)
    L = prof.length
    scale = L / (L + TWO_PI)
    assert abs(L - 3.0) < 1e-12
    assert len(prof.jump_intervals) == 3
    widths = [hi - lo for _, lo, hi in prof.jump_intervals]
    assert all(abs(w - scale * 1.0) < 1e-12 for w in widths)
    # the profile is flat on arcs: slope there comes from angle only
    t_mid1 = prof(2.0)
    t_mid2 = prof(3.0)
    assert t_mid2 - t_mid1 == pytest.approx(scale * 1.0, abs=1e-12)
    # one-sided values at a jump bracket its gap interval
    theta, lo, hi = prof.jump_intervals[1]
    assert prof(theta, "left") == pytest.approx(lo, abs=1e-12)
    assert prof(theta, "right") == pytest.approx(hi, abs=1e-12)


def test_reparam_profile_monotone_random():
    rng = np.random.default_rng(7)
    curve = builtin_curve("triple")
    prof = reparam_profile(curve)
    base = math.pi / 3
    ts = np.sort(rng.uniform(1e-6, TWO_PI - 1e-6, 64))
    vals = [prof(base + t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# mollification


def test_mollify_ac_curve_unchanged():
    curve = builtin_curve("vortex")
    assert mollify_sequence(curve, 3) is curve


def test_mollify_triple_tv_constant():
    curve = builtin_curve("triple")
    for k in (1, 2, 4, 8, 16):
        phi = mollify_sequence(curve, k)
        dec = total_variation(phi)
        assert dec.jump == 0.0
        assert dec.cantor == 0.0
        assert abs(dec.total - 3.0) < 1e-12


def test_mollify_triple_l1_strictly_decreasing():
    curve = builtin_curve("triple")
    dists = []
    for k in (2, 4, 8, 16):
        phi = mollify_sequence(curve, k)
        dists.append(l1_distance(phi, curve, nodes=8192))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 0.1


def test_mollify_cantor_arc():
    curve = builtin_curve("cantor-arc")
    phis = {}
    for k in (2, 5, 12, 32):
        phi = phis[k] = mollify_sequence(curve, k)
        dec = total_variation(phi)
        assert dec.cantor == 0.0
        assert dec.jump == 0.0
        # the interpolant of a nondecreasing profile keeps its total mass
        assert abs(dec.total - math.pi / 2) < 1e-12
        assert abs(phi.closure_gap - math.sqrt(2)) < 1e-12
    # past the staircase's own 3**7 cells, finer grids change nothing
    assert np.array_equal(phis[12].arcs[0].ac.samples, phis[32].arcs[0].ac.samples)


def test_mollify_tv_never_increases_random():
    rng = np.random.default_rng(42)
    for trial in range(20):
        m = int(rng.integers(1, 5))
        gaps = rng.uniform(0.5, 1.5, m)
        rel = TWO_PI * np.cumsum(gaps) / np.sum(gaps)
        angles = rng.uniform(0.0, TWO_PI) + np.concatenate([[0.0], rel[:-1]])
        stops = rng.uniform(-1.0, 1.0, (2 * m, 2))
        pieces = []
        for i in range(m):
            right_val = stops[2 * i + 1]
            next_left = stops[(2 * i + 2) % (2 * m)]
            t0 = angles[i]
            t1 = angles[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
            pieces.append(Jump(t0, stops[2 * i], right_val))
            seg = PolylinePath(np.array([right_val, next_left]))
            if rng.random() < 0.5 or seg.length == 0.0:
                mass = linear_mass(seg.length)
            else:
                cum = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 3)]))
                mass = sampled_mass(cum * seg.length)
            pieces.append(Arc(t0, t1, seg, mass))
        curve = validate(Curve(tuple(pieces)))
        tv0 = total_variation(curve).total
        for k in (1, 3, 6):
            phi = mollify_sequence(curve, k)
            assert total_variation(phi).total <= tv0 + 1e-9
            assert total_variation(phi).jump == 0.0


def test_mollify_requires_positive_k():
    with pytest.raises(ValueError):
        mollify_sequence(builtin_curve("triple"), 0)


# ---------------------------------------------------------------------------
# paths


def test_polyline_restrict_keeps_corners():
    path = PolylinePath(np.array([[0, 0], [1, 0], [1, 1]], dtype=float))
    sub = path.restrict(0.5, 1.5)
    assert isinstance(sub, PolylinePath)
    assert len(sub.points) == 3
    assert np.allclose(sub.points[1], [1.0, 0.0])
    assert sub.length == pytest.approx(1.0, abs=1e-15)


def test_circle_arc_clockwise():
    path = CircleArcPath(np.zeros(2), 2.0, math.pi / 2, 0.0)
    assert path.length == pytest.approx(math.pi, abs=1e-15)
    assert np.allclose(path.start, [0.0, 2.0])
    assert np.allclose(path.end, [2.0, 0.0])
    mid = path.point_at_arclength(path.length / 2)
    assert np.allclose(mid, [2 * math.cos(math.pi / 4), 2 * math.sin(math.pi / 4)])


def test_point_path_broadcast():
    p = PointPath([1.0, 2.0])
    out = p.point_at_arclength(np.zeros(5))
    assert out.shape == (5, 2)
    assert np.all(out == np.array([1.0, 2.0]))


def test_l1_distance_constants():
    c1 = constant_curve([0.0, 0.0])
    c2 = constant_curve([3.0, 4.0])
    assert l1_distance(c1, c2, nodes=64) == pytest.approx(5.0 * TWO_PI, rel=1e-12)
