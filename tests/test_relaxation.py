"""Recovery gluing, graph area, sequence reports, slicing."""

import math

import numpy as np
import pytest

from bvplateau import relaxation
from bvplateau.curveio import builtin_curve, constant_curve
from bvplateau.curves import evaluate_many, mollify_sequence, total_variation
from bvplateau.geometry import triangle_dets
from bvplateau.homogeneous import ExtensionParams
from bvplateau.meshing import make_disk_mesh
from bvplateau.plateau import (
    DiscreteMap,
    PlateauOptions,
    jacobian_tv,
    minimize_for_datum,
)
from bvplateau.relaxation import (
    RecoveryMismatchError,
    _annulus_radii,
    _rim_angles,
    area_functional,
    minimize_for_profile,
    recovery_sequence,
    slicing_check,
    strict_convergence_report,
)

QUICK = PlateauOptions(mesh_h=0.15, n_completion=128)


def mesh_area(mesh):
    return math.fsum((0.5 * triangle_dets(mesh.vertices, mesh.triangles)).tolist())


# ---------------------------------------------------------------- area functional


def test_area_functional_identity_map():
    mesh = make_disk_mesh(1.0, 0.05)
    dmap = DiscreteMap(mesh, mesh.vertices.copy())
    a = area_functional(dmap)
    assert a == pytest.approx(2.0 * mesh_area(mesh), rel=1e-14)
    assert a == pytest.approx(2.0 * math.pi, abs=6e-3)


def test_area_functional_constant_map():
    mesh = make_disk_mesh(1.5, 0.1)
    dmap = DiscreteMap(mesh, np.tile([0.3, -0.7], (mesh.n_vertices, 1)))
    assert area_functional(dmap) == mesh_area(mesh)


def test_area_functional_projection_map():
    mesh = make_disk_mesh(1.0, 0.1)
    vals = np.stack([mesh.vertices[:, 0], np.zeros(mesh.n_vertices)], axis=-1)
    a = area_functional(DiscreteMap(mesh, vals))
    assert a == pytest.approx(math.sqrt(2.0) * mesh_area(mesh), rel=1e-13)


def test_area_functional_dominates_area_and_jacobian():
    mesh = make_disk_mesh(1.0, 0.12)
    rng = np.random.default_rng(7)
    for _ in range(10):
        vals = rng.normal(size=(mesh.n_vertices, 2))
        dmap = DiscreteMap(mesh, vals)
        a = area_functional(dmap)
        assert a >= mesh_area(mesh) - 1e-12
        assert a >= jacobian_tv(dmap) - 1e-12


def test_area_functional_rejects_flipped_mesh():
    mesh = make_disk_mesh(1.0, 0.3)
    tris = mesh.triangles.copy()
    tris[0] = tris[0][[0, 2, 1]]
    bad = type(mesh)(mesh.vertices, tris, mesh.boundary_loop, mesh.radius)
    with pytest.raises(ValueError):
        area_functional(DiscreteMap(bad, mesh.vertices.copy()))


# ---------------------------------------------------------------- annulus radii


def test_annulus_radii_graded_then_uniform():
    r = _annulus_radii(0.25, 1.0, 0.1)
    assert np.all(np.diff(r) > 0)
    assert r[0] > 0.25
    assert r[-1] == 1.0
    gaps = np.diff(np.concatenate([[0.25], r]))
    # grading: the innermost gap is the smallest
    assert gaps[0] < gaps[-1]
    assert gaps[0] == pytest.approx(0.7**4 * gaps[-1], rel=1e-9)


def test_annulus_radii_narrow_band():
    r = _annulus_radii(0.9, 1.0, 0.5)
    assert len(r) == 5
    assert r[-1] == 1.0


# ---------------------------------------------------------------- profile filler


def test_profile_filler_rim_values_match_curve():
    curve = builtin_curve("vortex")
    fit = minimize_for_profile(curve, QUICK)
    mesh = fit.dmap.mesh
    ang = _rim_angles(mesh)
    assert np.array_equal(fit.dmap.values[mesh.boundary_loop], evaluate_many(curve, ang))
    assert fit.energy <= 1.10 * math.pi
    assert fit.energy >= math.pi - 0.05


# ---------------------------------------------------------------- recovery gluing


def test_recovery_requires_k_at_least_two():
    curve = builtin_curve("vortex")
    filler = minimize_for_datum(curve, QUICK).dmap
    with pytest.raises(ValueError):
        recovery_sequence(curve, ExtensionParams(), 1, filler)


def test_recovery_vortex_keeps_jacobian_mass():
    curve = builtin_curve("vortex")
    fit = minimize_for_datum(curve, QUICK)
    vk = recovery_sequence(curve, ExtensionParams(), 4, fit.dmap, mesh_h=0.15)
    assert jacobian_tv(vk) == pytest.approx(fit.energy, rel=1e-3)
    assert vk.mesh.radius == 1.0
    # inner block is the filler scaled by 1/4
    nf = len(fit.dmap.values)
    assert np.array_equal(vk.mesh.vertices[:nf], fit.dmap.mesh.vertices * 0.25)
    assert np.array_equal(vk.values[:nf], fit.dmap.values)


def test_recovery_mismatch_for_constant_speed_filler_on_jumps():
    curve = builtin_curve("triple")
    filler = minimize_for_datum(curve, QUICK).dmap
    with pytest.raises(RecoveryMismatchError):
        recovery_sequence(curve, ExtensionParams(), 8, filler)


def test_recovery_matched_filler_jacobian_exact():
    curve = builtin_curve("triple")
    phi = mollify_sequence(curve, 8)
    fit = minimize_for_profile(phi, QUICK)
    vk = recovery_sequence(curve, ExtensionParams(), 8, fit.dmap, mesh_h=0.15)
    assert jacobian_tv(vk) == fit.energy


def test_recovery_constant_curve_is_constant():
    curve = constant_curve((0.4, -0.2))
    fit = minimize_for_datum(curve, QUICK)
    vk = recovery_sequence(curve, ExtensionParams(), 3, fit.dmap, mesh_h=0.2)
    assert np.all(vk.values == np.array([0.4, -0.2]))
    assert jacobian_tv(vk) == 0.0
    assert area_functional(vk) == mesh_area(vk.mesh)


def test_recovery_jacobian_mass_independent_of_radius():
    curve = builtin_curve("triple")
    phi = mollify_sequence(curve, 4)
    fit = minimize_for_profile(phi, QUICK)
    v1 = recovery_sequence(curve, ExtensionParams(radius=1.0), 4, fit.dmap, mesh_h=0.2)
    v2 = recovery_sequence(curve, ExtensionParams(radius=2.0), 4, fit.dmap, mesh_h=0.2)
    assert jacobian_tv(v1) == jacobian_tv(v2)
    assert v2.mesh.radius == 2.0


def test_recovery_mesh_is_conforming():
    curve = builtin_curve("vortex")
    fit = minimize_for_datum(curve, QUICK)
    vk = recovery_sequence(curve, ExtensionParams(), 2, fit.dmap, mesh_h=0.2)
    mesh = vk.mesh
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    counts = set(edges.values())
    assert counts <= {1, 2}
    n_boundary_edges = sum(1 for c in edges.values() if c == 1)
    assert n_boundary_edges == len(mesh.boundary_loop)
    assert np.all(triangle_dets(mesh.vertices, mesh.triangles) > 0.0)


# ---------------------------------------------------------------- sequence report


def test_report_vortex_meshfree():
    curve = builtin_curve("vortex")
    rep = strict_convergence_report(curve, ExtensionParams(), ks=(2, 4, 8))
    assert rep.k_values == (2, 4, 8)
    assert rep.l1_errors == (0.0, 0.0, 0.0)
    two_pi = 2 * math.pi
    assert all(t == pytest.approx(two_pi, abs=1e-12) for t in rep.tv_values)
    assert all(math.isnan(a) for a in rep.area_values)
    assert rep.l1_nonincreasing and rep.tv_nondecreasing and rep.tv_within_target
    assert rep.jacobian_matched is None and rep.area_converged is None


def test_report_triple_meshfree_trends():
    curve = builtin_curve("triple")
    rep = strict_convergence_report(curve, ExtensionParams(), ks=(2, 4, 8, 16, 32))
    assert all(t == pytest.approx(3.0, abs=1e-12) for t in rep.tv_values)
    assert rep.tv_target == pytest.approx(3.0, abs=1e-12)
    assert all(x > 0 for x in rep.l1_errors)
    assert all(b < a for a, b in zip(rep.l1_errors, rep.l1_errors[1:]))
    assert rep.l1_nonincreasing and rep.tv_within_target
    assert rep.area_target == pytest.approx(math.pi + 3 + math.sqrt(3) / 4, abs=1e-3)


def test_report_cantor_arc_meshfree():
    curve = builtin_curve("cantor-arc")
    rep = strict_convergence_report(curve, ExtensionParams(), ks=(2, 4, 8, 32))
    assert all(t == pytest.approx(math.pi / 2, abs=1e-12) for t in rep.tv_values)
    assert rep.tv_within_target


def test_report_ks_validation():
    curve = builtin_curve("vortex")
    with pytest.raises(ValueError):
        strict_convergence_report(curve, ExtensionParams(), ks=(4, 2))
    with pytest.raises(ValueError):
        strict_convergence_report(curve, ExtensionParams(), ks=())
    with pytest.raises(ValueError):
        strict_convergence_report(curve, ExtensionParams(), ks=(1, 2), options=QUICK)


def test_report_vortex_with_meshes():
    curve = builtin_curve("vortex")
    rep = strict_convergence_report(curve, ExtensionParams(), ks=(2, 4), options=QUICK)
    assert rep.jacobian_matched is True
    # the constant-speed filler is reused for every k
    assert rep.filler_jacobian_tv[0] == rep.filler_jacobian_tv[1]
    assert all(np.isfinite(rep.area_values))
    assert all(a >= math.pi - 0.2 for a in rep.area_values)


def test_report_triple_with_meshes_uses_matched_fillers():
    curve = builtin_curve("triple")
    rep = strict_convergence_report(curve, ExtensionParams(), ks=(2, 4), options=QUICK)
    assert rep.jacobian_matched is True
    assert all(f == pytest.approx(math.sqrt(3) / 4, abs=0.12) for f in rep.filler_jacobian_tv)
    assert all(np.isfinite(rep.area_values))


def test_report_mollifies_each_k_once(monkeypatch):
    real = relaxation.mollify_sequence
    calls = []

    def counting(curve, k):
        calls.append(k)
        return real(curve, k)

    monkeypatch.setattr(relaxation, "mollify_sequence", counting)
    ks = (2, 4, 8)
    rep = strict_convergence_report(builtin_curve("triple"), ExtensionParams(), ks=ks,
                                    options=PlateauOptions(mesh_h=0.3, n_completion=128))
    assert rep.jacobian_matched is True
    # the gluing reuses the report's own mollified profile
    assert calls == list(ks)


@pytest.mark.parametrize("name, checks", [("vortex", 3), ("triple", 6)])
def test_report_checks_each_seam_once(monkeypatch, name, checks):
    real = relaxation._seam_values
    calls = []

    def counting(phi, filler):
        calls.append(filler)
        return real(phi, filler)

    monkeypatch.setattr(relaxation, "_seam_values", counting)
    rep = strict_convergence_report(builtin_curve(name), ExtensionParams(), ks=(2, 4, 8),
                                    options=PlateauOptions(mesh_h=0.3, n_completion=128))
    assert rep.jacobian_matched is True
    # vortex: the radial start's check serves the constant-speed filler for
    # every k; triple: each start check fails, and each profile filler is
    # checked once more
    assert len(calls) == checks


# ---------------------------------------------------------------- slicing


def test_slicing_vortex():
    curve = builtin_curve("vortex")
    rep = slicing_check(curve, ExtensionParams(), eps=0.5, n_radii=256)
    assert rep.rel_error < 1e-3
    assert rep.exact == pytest.approx(math.pi, abs=1e-12)
    assert len(rep.radii) == 256
    assert np.all(rep.slice_tv == rep.circle_tv)
    assert rep.radii[0] == pytest.approx(0.5 + 0.5 / 512, abs=1e-15)


def test_slicing_triple_exact():
    curve = builtin_curve("triple")
    rep = slicing_check(curve, ExtensionParams(), eps=0.0, n_radii=256)
    assert rep.circle_tv == 3.0
    assert rep.estimate == 3.0
    assert rep.rel_error == 0.0


def test_slicing_triple_samples_colliding_with_jumps():
    curve = builtin_curve("triple")
    rep = slicing_check(curve, ExtensionParams(), eps=0.0, n_radii=3)
    assert rep.circle_tv == 3.0


def test_slicing_constant():
    rep = slicing_check(constant_curve((1.0, 2.0)), ExtensionParams(), eps=0.25)
    assert rep.circle_tv == 0.0
    assert rep.rel_error == 0.0


def test_slicing_error_decreases_with_resolution():
    curve = builtin_curve("vortex")
    errs = [
        slicing_check(curve, ExtensionParams(), eps=0.0, n_radii=n).rel_error
        for n in (32, 64, 128, 256)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_slicing_figure_eight_converges():
    curve = builtin_curve("figure-eight")
    errs = [
        slicing_check(curve, ExtensionParams(), eps=0.0, n_radii=n).rel_error
        for n in (64, 256)
    ]
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_slicing_open_trace_reports_seam():
    curve = builtin_curve("cantor-arc")
    rep = slicing_check(curve, ExtensionParams(), eps=0.0, n_radii=256)
    # each slice carries the closing chord of the open trace, the declared
    # tangential variation does not
    assert rep.circle_tv > math.sqrt(2.0)
    assert rep.rel_error > 0.5


def test_slicing_validation():
    curve = builtin_curve("vortex")
    with pytest.raises(ValueError):
        slicing_check(curve, ExtensionParams(), eps=1.0)
    with pytest.raises(ValueError):
        slicing_check(curve, ExtensionParams(), n_radii=0)
