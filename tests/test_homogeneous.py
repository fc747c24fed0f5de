"""Closed-form energy terms of the homogeneous extension.

Frozen oracles:
  unit-speed circle datum, R = 1: graph term 2*pi*F_1(1)
      = pi*(sqrt(2) + log(1 + sqrt(2))) = 7.2117997242070470
  constant datum: graph term pi*R^2 exactly
  radial integral F_R(m) checked against Gauss-Legendre quadrature
"""

import math

import numpy as np
import pytest

from bvplateau import Arc, CumulativeVariation, Curve, PolylinePath, validate
from bvplateau.curveio import builtin_curve, constant_curve
from bvplateau.homogeneous import (
    ExtensionParams,
    graph_area_term,
    radial_integral,
    relaxed_area,
    singular_term,
    tangential_variation,
)
from bvplateau.plateau import PlateauOptions, origin_value
from bvplateau.relaxation import minimize_for_profile

TWO_PI = 2 * math.pi

VORTEX_GRAPH_TERM = math.pi * (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0)))


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1e-3, 0.3, 1.0, 7.0])
def test_radial_integral_against_quadrature(radius, m):
    # split at the curvature scale of the integrand so small m stays sharp
    x, w = np.polynomial.legendre.leggauss(64)
    cut = min(radius, 32.0 * m)
    quad = 0.0
    for a, b in ((0.0, cut), (cut, radius)):
        if b <= a:
            continue
        r = 0.5 * (b - a) * (x + 1.0) + a
        quad += 0.5 * (b - a) * float(np.sum(w * np.sqrt(r * r + m * m)))
    assert radial_integral(radius, m) == pytest.approx(quad, rel=1e-12)


def test_radial_integral_zero_speed():
    assert radial_integral(1.0, 0.0) == 0.5
    assert radial_integral(3.0, 0.0) == 4.5
    # continuity of the closed form near m = 0
    assert radial_integral(1.0, 1e-13) == pytest.approx(0.5, abs=1e-12)


def test_vortex_graph_term_frozen_value():
    got = graph_area_term(builtin_curve("vortex"), ExtensionParams(radius=1.0))
    assert got == pytest.approx(VORTEX_GRAPH_TERM, rel=1e-14)
    assert got == pytest.approx(7.211799724207047, abs=1e-10)


def test_constant_datum_graph_term_exact():
    for radius in (1.0, 2.0):
        got = graph_area_term(constant_curve([1.0, -1.0]), ExtensionParams(radius=radius))
        assert got == math.pi * radius * radius
    got = graph_area_term(constant_curve([0.0, 0.0]), ExtensionParams(radius=1.3))
    assert got == pytest.approx(math.pi * 1.3**2, rel=1e-14)


def test_triple_terms():
    params = ExtensionParams(radius=1.0)
    curve = builtin_curve("triple")
    assert graph_area_term(curve, params) == pytest.approx(math.pi, rel=1e-14)
    assert singular_term(curve, params) == pytest.approx(3.0, abs=1e-12)
    assert tangential_variation(curve, params) == pytest.approx(3.0, abs=1e-12)


def test_cantor_arc_terms():
    params = ExtensionParams(radius=2.0)
    curve = builtin_curve("cantor-arc")
    # Cantor mass is singular: the graph term sees zero tangential speed
    assert graph_area_term(curve, params) == pytest.approx(4 * math.pi, rel=1e-14)
    assert singular_term(curve, params) == 2.0 * (math.pi / 2)


def test_sampled_profile_matches_quadrature():
    # piecewise constant speed: assemble against independent 2d quadrature
    seg = PolylinePath(np.array([[0.0, 0.0], [2.0, 0.0]]))
    cum = CumulativeVariation(np.array([0.0, 0.2, 0.2, 1.1, 2.0]))
    curve = validate(Curve((Arc(0.0, TWO_PI, seg, cum),)))
    params = ExtensionParams(radius=1.5)
    got = graph_area_term(curve, params)

    x, w = np.polynomial.legendre.leggauss(48)
    edges = np.linspace(0.0, 1.0, 5) * TWO_PI
    masses = np.diff(np.array([0.0, 0.2, 0.2, 1.1, 2.0]))
    total = 0.0
    for (a, b), mass in zip(zip(edges, edges[1:]), masses):
        speed = mass / (b - a)
        r = 0.75 * (x + 1.0)
        inner = 0.75 * float(np.sum(w * np.sqrt(r * r + speed * speed)))
        total += (b - a) * inner
    assert got == pytest.approx(total, rel=1e-12)


def test_graph_term_scales_like_area_for_flat_data():
    # constant datum on two radii: quadratic scaling, exact
    p1 = graph_area_term(constant_curve([5.0, 5.0]), ExtensionParams(radius=1.0))
    p2 = graph_area_term(constant_curve([5.0, 5.0]), ExtensionParams(radius=2.0))
    assert p2 == 4.0 * p1


def test_tangential_variation_window():
    params = ExtensionParams(radius=1.0)
    curve = builtin_curve("vortex")
    assert tangential_variation(curve, params) == pytest.approx(TWO_PI, rel=1e-14)
    assert tangential_variation(curve, params, eps=0.5) == pytest.approx(
        0.5 * TWO_PI, rel=1e-14
    )
    with pytest.raises(ValueError):
        tangential_variation(curve, params, eps=1.0)


def test_relaxed_area_constant_exact():
    report = relaxed_area(
        constant_curve([0.2, 0.4]),
        ExtensionParams(radius=1.0),
        PlateauOptions(mesh_h=0.3),
    )
    assert report.graph_area == math.pi
    assert report.singular == 0.0
    assert report.plateau.lower == 0.0 and report.plateau.upper == 0.0
    assert report.relaxed_lower == math.pi
    assert report.relaxed_upper == math.pi
    assert not report.plateau.gap_flag


def test_relaxed_area_triple_structure():
    report = relaxed_area(
        builtin_curve("triple"),
        ExtensionParams(radius=1.0),
        PlateauOptions(mesh_h=0.15, max_iters=4000),
    )
    expect_lower = math.pi + 3.0 + math.sqrt(3.0) / 4.0
    assert report.relaxed_lower == pytest.approx(expect_lower, abs=1e-6)
    assert report.relaxed_upper >= report.relaxed_lower - 1e-9
    assert report.relaxed_upper <= expect_lower * 1.01
    assert not report.plateau.gap_flag


def test_sample_extension_values():
    # the profile filler, returned unmoved when no step may run, carries
    # the extension's values: the datum on the rim, the centroid at 0
    curve = builtin_curve("vortex")
    dmap = minimize_for_profile(curve, PlateauOptions(mesh_h=0.3, max_iters=0)).dmap
    v = dmap.mesh.vertices
    r = np.linalg.norm(v, axis=1)
    rim = dmap.mesh.boundary_loop
    ang = np.arctan2(v[rim, 1], v[rim, 0])
    expect = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    assert np.max(np.abs(dmap.values[rim] - expect)) < 1e-12
    # origin takes the centroid, which is near zero for the circle
    assert np.linalg.norm(dmap.values[r == 0.0][0]) < 1e-3


def test_origin_value_matches_profile_filler_start():
    # one value at the origin: plateau.origin_value and the start of the
    # profile filler (returned unmoved when no step may run) agree exactly
    curve = builtin_curve("cantor-arc")
    fit = minimize_for_profile(curve, PlateauOptions(mesh_h=0.3, max_iters=0))
    origin = np.linalg.norm(fit.dmap.mesh.vertices, axis=1) == 0.0
    assert np.count_nonzero(origin) == 1
    assert np.array_equal(fit.dmap.values[origin][0], origin_value(curve))


def test_params_validation():
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ExtensionParams(radius=radius)
    with pytest.raises(ValueError):
        ExtensionParams(nodes=32)
    with pytest.raises(ValueError):
        radial_integral(1.0, -0.5)
