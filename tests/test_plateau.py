"""Discrete Jacobian minimisation and the bracket certificate.

Frozen oracles: the unit-circle datum has least sweeping area pi; the
equilateral triangle with unit sides has sqrt(3)/4; any admissible map's
Jacobian total variation dominates the winding area of its datum.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
import reference_plateau as reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bvplateau import ClosedPolyline, completed_curve, plateau
from bvplateau.curveio import BUILTIN_NAMES, builtin_curve, constant_curve
from bvplateau.curves import evaluate_many, mollify_sequence
from bvplateau.geometry import triangle_dets
from bvplateau.meshing import make_disk_mesh
from bvplateau.plateau import (
    BRACKET_RTOL,
    COMPLETION_VERTICES,
    GAP_RATIO,
    DiscreteMap,
    PlateauCertificate,
    PlateauOptions,
    _datum_start,
    _energy_grad,
    _radial_start,
    arclength_centroid,
    jacobian_tv,
    jacobian_tv_minimize,
    origin_value,
    plateau_value,
)
from bvplateau.winding import _winding_area_simple, winding_area

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
    result = plateau_value(builtin_curve("vortex"), QUICK).result
    poly = completed_curve(builtin_curve("vortex"), COMPLETION_VERTICES)
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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_bracket_is_ordered_without_slack(name):
    cert = plateau_value(builtin_curve(name))
    assert cert.lower <= cert.upper


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
    result = plateau_value(poly, dataclasses.replace(QUICK, mesh_h=0.3)).result
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
# the same C with inner vertices 14 and 15 swapped: a self-crossing polygon,
# so its bracket goes through the minimiser (at mesh_h 0.2 its start is
# 3.133 against the winding area 1.916, and it closes after 181 steps)
C_CROSSED = ClosedPolyline(C_SHAPE.vertices[:-1][[*range(14), 15, 14, *range(16, 24)]])


@pytest.mark.parametrize("datum", ["triple", "figure-eight", "c-shape", "c-crossed"])
def test_upper_never_above_radial_start(datum):
    opts = PlateauOptions(mesh_h=0.2)
    polys = {"c-shape": C_SHAPE, "c-crossed": C_CROSSED}
    poly = polys[datum] if datum in polys else completed_curve(builtin_curve(datum), 512)
    start = jacobian_tv(_datum_start(poly, opts.mesh_h))
    cert = plateau_value(poly, opts)
    assert cert.upper <= start
    assert cert.termination == "bracket_closed" and cert.converged
    if datum in ("triple", "c-shape"):
        # simple traces close exactly, with no minimisation
        assert cert.upper == cert.lower and cert.iterations == 0
        return
    assert cert.result.terminations[-1] == cert.termination
    assert len(cert.result.terminations) == len(cert.result.stages)
    assert cert.delta_final == cert.result.stages[-1][0]
    if datum == "c-crossed":
        assert cert.iterations > 0
        assert cert.upper < 0.7 * start


def test_minimize_leaves_start_alone():
    start = _datum_start(C_SHAPE, 0.2)
    values = start.values
    before = values.copy()
    result = jacobian_tv_minimize(start.mesh, values, PlateauOptions(mesh_h=0.2),
                                  winding_area(C_SHAPE))
    assert result.iterations > 0
    assert values.tobytes() == before.tobytes()
    assert result.dmap.values is not values
    rim = start.mesh.boundary_loop
    assert np.array_equal(result.dmap.values[rim], values[rim])


def test_failed_line_search_takes_no_step(monkeypatch):
    # every trial energy is inf: no Armijo decrease exists, and no stage steps
    monkeypatch.setattr(plateau, "_energy_only", lambda *args: math.inf)
    opts = PlateauOptions(mesh_h=0.3)
    start = _datum_start(C_SHAPE, opts.mesh_h)
    result = jacobian_tv_minimize(start.mesh, start.values, opts, winding_area(C_SHAPE))
    assert result.terminations == ("line_search_failed",) * len(opts.delta_schedule)
    assert result.converged is False
    assert result.iterations == 0
    assert all(iters == 0 for _, iters, _ in result.stages)
    assert result.energy == jacobian_tv(start)


@st.composite
def star_polygons(draw, simple=False):
    """Polygons star-shaped about a random centre, 3 to 8 vertices.  A gap
    of pi or more between neighbouring angles can make the chain cross
    itself; simple=True rejects those draws."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    if simple:
        assume(2.0 * np.max(gaps) < np.sum(gaps))
    radii = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    centre = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    ang = 2 * math.pi * np.cumsum(gaps) / np.sum(gaps)
    return ClosedPolyline(centre + radii[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1))


@st.composite
def crossing_star_polygons(draw):
    """Star polygons {n/k}: n points at increasing angles about a random
    centre, joined k apart, so the chain crosses itself and winds k times."""
    n, k = draw(st.sampled_from([(5, 2), (7, 2), (7, 3), (8, 3)]))
    gaps = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    centre = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    order = np.arange(n) * k % n
    ang = (2 * math.pi * np.cumsum(gaps) / np.sum(gaps))[order]
    return ClosedPolyline(centre + radii[order, None] * np.stack([np.cos(ang), np.sin(ang)], -1))


def assert_bracket_valid_and_closed(poly):
    cert = plateau_value(poly, PlateauOptions(mesh_h=0.3))
    scale2 = float(np.max(np.sum(poly.vertices**2, axis=1)))
    assert cert.upper >= cert.lower - 1e-12 * scale2
    assert cert.termination == "bracket_closed"
    # the stop reads a plain sum of E0, the report its correctly rounded value
    assert cert.upper - cert.lower <= 2 * BRACKET_RTOL * max(cert.lower, scale2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(star_polygons())
def test_bracket_valid_and_closed_on_star_polygons(poly):
    assert_bracket_valid_and_closed(poly)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(crossing_star_polygons())
def test_bracket_valid_and_closed_on_crossing_star_polygons(poly):
    # the simple stars above close exactly; these reach the minimiser
    assert not _winding_area_simple(poly)[1]
    assert_bracket_valid_and_closed(poly)


# ---------------------------------------------------------------- exact path


def count_calls(mp, real):
    """Calls of real, counted through every module namespace of the package
    that binds it, patched on the MonkeyPatch mp."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bvplateau") and getattr(mod, real.__name__, None) is real:
            mp.setattr(mod, real.__name__, counting)
    return calls


def assert_closed_exactly_with_no_mesh(datum, opts):
    with pytest.MonkeyPatch.context() as mp:
        meshes = count_calls(mp, make_disk_mesh)
        minimisations = count_calls(mp, jacobian_tv_minimize)
        cert = plateau_value(datum, opts)
    assert cert.upper == cert.lower
    assert (cert.iterations, cert.termination, cert.converged, cert.gap_flag) == (
        0, "bracket_closed", True, False)
    assert (cert.delta_final, cert.h) == (opts.delta_schedule[0], opts.mesh_h)
    assert (len(meshes), len(minimisations)) == (0, 0)


@pytest.mark.parametrize("name", ["triple", "vortex", "cantor-arc", "c-shape"])
def test_simple_trace_closes_exactly_with_no_mesh(name):
    datum = C_SHAPE if name == "c-shape" else builtin_curve(name)
    assert_closed_exactly_with_no_mesh(datum, PlateauOptions())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(star_polygons(simple=True))
def test_simple_star_polygons_close_exactly_with_no_mesh(poly):
    assert_closed_exactly_with_no_mesh(poly, PlateauOptions(mesh_h=0.3))


def test_filler_of_a_simple_trace_is_minimised_once_on_first_read(monkeypatch):
    opts = PlateauOptions(mesh_h=0.2)
    cert = plateau_value(C_SHAPE, opts)
    minimisations = count_calls(monkeypatch, jacobian_tv_minimize)
    result = cert.result
    assert cert.result is result
    assert len(minimisations) == 1
    start = _datum_start(C_SHAPE, opts.mesh_h)
    want = jacobian_tv_minimize(start.mesh, start.values, opts, cert.lower)
    assert result.iterations > 0
    assert result.energy == want.energy >= cert.upper
    assert result.dmap.values.tobytes() == want.dmap.values.tobytes()


@pytest.mark.parametrize("name", ["figure-eight", "c-crossed"])
def test_non_simple_certificate_is_the_direct_minimisation(monkeypatch, name):
    opts = PlateauOptions(mesh_h=0.2)
    poly = C_CROSSED if name == "c-crossed" else completed_curve(builtin_curve(name),
                                                                 COMPLETION_VERTICES)
    cert = plateau_value(poly, opts)
    start = _datum_start(poly, opts.mesh_h)
    lower = winding_area(poly)
    want = jacobian_tv_minimize(start.mesh, start.values, opts, lower)
    gap = want.energy > GAP_RATIO * lower + 1e-9
    assert cert == PlateauCertificate(
        lower, want.energy, want.stages[-1][0], opts.mesh_h, want.iterations,
        want.converged and not gap, want.terminations[-1], gap, poly, opts)
    # both fillers were kept: reading them minimises nothing more
    minimisations = count_calls(monkeypatch, jacobian_tv_minimize)
    assert cert.start.values.tobytes() == start.values.tobytes()
    assert cert.result.dmap.values.tobytes() == want.dmap.values.tobytes()
    assert len(minimisations) == 0


# polygon 6 of the rng(3) draw: its winding area, 0.457, is well below the
# minimum over the mesh_h = 0.2 mesh, 0.625, so the bracket never closes
RNG3_POLYGON = np.array([[-2, 7], [0, -2], [-6, -5], [3, 5], [-4, 2], [6, -6], [-4, 0]]) / 8


def test_bracket_rule_does_not_change_under_translation():
    # the bracket tolerance follows the rim's extent, so a far translate
    # must not close the bracket at the start
    opts = PlateauOptions(mesh_h=0.2, max_iters=200)
    certs = [
        plateau_value(ClosedPolyline(RNG3_POLYGON + offset), opts) for offset in (0.0, 2.0**20)
    ]
    for cert in certs:
        assert not (cert.termination == "bracket_closed" and cert.gap_flag)
        # an open bracket is not converged, however the last stage stopped
        assert not cert.converged
    assert certs[0].termination == certs[1].termination


def test_stationary_stop_without_lower_bound():
    # the k = 8 profile filler of cantor-arc starts 9e-4 above its rim's
    # winding area; with the trivial bound 0 to close on, every stage must
    # stall
    phi = mollify_sequence(builtin_curve("cantor-arc"), 8)
    corners = [p.theta0 for p in phi.arcs] + [p.theta for p in phi.jumps]
    opts = PlateauOptions(mesh_h=0.15)
    start = _radial_start(lambda ang: evaluate_many(phi, ang), corners, origin_value(phi),
                          opts.mesh_h)
    result = jacobian_tv_minimize(start.mesh, start.values, opts, lower=0.0)
    assert result.terminations == ("stationary",) * len(opts.delta_schedule)
    assert result.converged
    assert all(iters < opts.max_iters // 4 for _, iters, _ in result.stages)
    assert result.energy < jacobian_tv(start)
    assert result.energy == jacobian_tv(result.dmap)


@pytest.mark.parametrize("schedule", [(), (math.nan,), (math.inf,), (0.0,), (1e-1, -0.1)])
def test_options_reject_bad_delta_schedule(schedule):
    with pytest.raises(ValueError):
        PlateauOptions(delta_schedule=schedule)


# ---------------------------------------------------------------------------
# column gathers against the block-gather reference


def degenerate_values(mesh, rng, scale):
    """Random values, integer-valued for some scales so that some dets
    are exactly zero, with one triangle's corners collinear."""
    values = rng.normal(scale=scale, size=(mesh.n_vertices, 2))
    if scale >= 1.0:
        values = np.round(values)
    a, b, c = mesh.triangles[len(mesh.triangles) // 2]
    values[c] = 2.0 * values[b] - values[a]
    return values


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.2, 0.1]),
       st.sampled_from([1e-3, 0.7, 4.0]))
def test_gathers_match_block_reference(seed, h, scale):
    rng = np.random.default_rng(seed)
    mesh = make_disk_mesh(1.0, h, rng.uniform(0.0, 2 * math.pi, 7))
    tris = mesh.triangles.copy()
    tris[0, 1] = tris[0, 0]  # a repeated corner
    values = degenerate_values(mesh, rng, scale)
    for points in (mesh.vertices, values):
        got = triangle_dets(points, tris)
        want = reference.triangle_dets(points, tris)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(triangle_dets(values, tris)[:1], [0.0])
    det_s = triangle_dets(mesh.vertices, tris)
    for delta in (1e-1, 1e-4):
        grad, grad_ref = np.zeros_like(values), np.zeros_like(values)
        got = _energy_grad(values, tris, det_s, delta, grad)
        want = reference._energy_grad(values, tris, det_s, delta, grad_ref)
        assert got == want
        assert grad.tobytes() == grad_ref.tobytes()


def test_minimizer_steps_match_block_reference(monkeypatch):
    # runs every stage of the schedule: two to max_iters, two stationary
    poly = ClosedPolyline(RNG3_POLYGON)
    opts = PlateauOptions(mesh_h=0.2, max_iters=300)
    start = _datum_start(poly, opts.mesh_h)
    lower = winding_area(poly)
    got = jacobian_tv_minimize(start.mesh, start.values, opts, lower)
    monkeypatch.setattr(plateau, "_energy_grad", reference._energy_grad)
    monkeypatch.setattr(plateau, "triangle_dets", reference.triangle_dets)
    want = jacobian_tv_minimize(start.mesh, start.values, opts, lower)
    assert got.iterations == want.iterations > 300
    assert got.terminations == want.terminations
    assert (got.energy, got.grad_norm, got.stages, got.converged) == (
        want.energy, want.grad_norm, want.stages, want.converged
    )
    assert got.dmap.values.tobytes() == want.dmap.values.tobytes()
