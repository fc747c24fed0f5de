"""CLI dispatch, artifacts, exit codes, determinism."""

import json
import math
import os
import sys

import pytest

from bvplateau import plateau
from bvplateau.cli import main
from bvplateau.curveio import builtin_curve, dump_curve
from bvplateau.homogeneous import ExtensionParams, relaxed_area


COMMANDS = {
    "tv": "variation decomposition of a curve",
    "complete": "chord-filled completion of a curve",
    "plateau": "bracket for the least sweeping area of the completed trace",
    "area": "relaxed graph area of the homogeneous extension",
    "tangential": "tangential variation of the extension over an annulus",
    "verify-recovery": "strict-convergence report for the mollified sequence",
    "slice-check": "circle-slice variation against the tangential variation",
}


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    report = {}
    p = out / "report.json"
    if p.exists():
        report = json.loads(p.read_text())
    return code, out, report


def test_tv_triple(tmp_path):
    code, out, rep = run(tmp_path, "tv", "--builtin", "triple")
    assert code == 0
    v = rep["variation"]
    assert v["ac"] == 0.0 and v["cantor"] == 0.0
    assert v["jump"] == pytest.approx(3.0, abs=1e-12)
    assert v["total"] == pytest.approx(3.0, abs=1e-12)
    assert (out / "report.csv").read_text().splitlines()[0] == "ac,jump,cantor,total"


def test_tv_curve_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dump_curve(builtin_curve("vortex"))))
    code, _, rep = run(tmp_path, "tv", "--curve", str(path))
    assert code == 0
    assert rep["variation"]["total"] == pytest.approx(2 * math.pi, abs=1e-12)
    assert rep["config"]["curve"] == str(path)


def test_complete_writes_polyline(tmp_path):
    code, out, rep = run(tmp_path, "complete", "--builtin", "triple", "--emit-svg")
    assert code == 0
    assert rep["length"] == pytest.approx(3.0, abs=1e-9)
    rows = [
        line for line in (out / "report.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(rows) == rep["n_vertices"]
    assert (out / "curve.svg").exists()


def test_plateau_constant(tmp_path):
    code, out, rep = run(tmp_path, "plateau", "--builtin", "vortex", "--mesh-h", "0.2")
    assert code == 0
    assert rep["plateau"]["lower"] == pytest.approx(math.pi, abs=1e-3)
    assert rep["plateau"]["upper"] >= rep["plateau"]["lower"] - 1e-9
    assert rep["winding_grid"]["stderr"] > 0.0


def test_area_report(tmp_path):
    code, _, rep = run(
        tmp_path, "area", "--builtin", "triple", "--mesh-h", "0.15", "--radius", "1"
    )
    assert code == 0
    assert rep["graph_area"] == pytest.approx(math.pi, rel=1e-12)
    assert rep["singular"] == pytest.approx(3.0, abs=1e-12)
    expect = math.pi + 3 + math.sqrt(3) / 4
    assert rep["relaxed_lower"] == pytest.approx(expect, abs=1e-3)
    assert rep["relaxed_upper"] >= rep["relaxed_lower"] - 1e-9
    # the report formats the library result for the same flags, unchanged
    lib = relaxed_area(builtin_curve("triple"), ExtensionParams(radius=1.0),
                       plateau.PlateauOptions(mesh_h=0.15))
    for key in ("graph_area", "singular", "relaxed_lower", "relaxed_upper"):
        assert rep[key] == getattr(lib, key)
    for key, value in rep["plateau"].items():
        assert value == getattr(lib.plateau, key)


@pytest.mark.parametrize("command", ["plateau", "area"])
@pytest.mark.parametrize("builtin", ["triple", "figure-eight"])
def test_bracket_closes_at_default_flags(tmp_path, command, builtin):
    code, _, rep = run(tmp_path, command, "--builtin", builtin)
    assert code == 0
    cert = rep["plateau"]
    assert cert["termination"] == "bracket_closed"
    assert cert["converged"] is True
    # the radial start already closes the bracket: the first stage ends it
    assert cert["delta_final"] == 0.1
    assert cert["upper"] >= cert["lower"] - 1e-12


def test_tangential(tmp_path):
    code, _, rep = run(
        tmp_path, "tangential", "--builtin", "vortex", "--eps", "0.5"
    )
    assert code == 0
    assert rep["tangential_variation"] == pytest.approx(math.pi, abs=1e-12)
    assert rep["full_variation"] == pytest.approx(2 * math.pi, abs=1e-12)


def test_slice_check(tmp_path):
    code, out, rep = run(
        tmp_path, "slice-check", "--builtin", "triple", "--n-radii", "64"
    )
    assert code == 0
    assert rep["rel_error"] < 1e-12
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0] == "radius,slice_tv"
    assert len(rows) == 65


def test_verify_recovery(tmp_path):
    code, out, rep = run(
        tmp_path, "verify-recovery", "--builtin", "vortex",
        "--mesh-h", "0.15", "--ks", "2,4",
    )
    assert code == 0
    assert rep["flags"]["jacobian_matched"] is True
    assert rep["l1_errors"] == [0.0, 0.0]
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 3


def test_exit_2_on_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tv", "--curve", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_exit_2_on_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pieces": [{"kind": "arc"}]}))
    assert main(["tv", "--curve", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "$.pieces[0]" in capsys.readouterr().err


def test_exit_2_on_bad_flags(tmp_path):
    assert main(["tv", "--builtin", "vortex", "--radius", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["slice-check", "--builtin", "vortex", "--eps", "2.0",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["plateau", "--builtin", "vortex", "--mesh-h", "1.5",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv", [
    ["area", "--radius", "nan"],
    ["area", "--radius", "inf"],
    ["plateau", "--delta-schedule", "nan"],
    ["plateau", "--delta-schedule", "inf"],
    ["plateau", "--delta-schedule", "0"],
    ["plateau", "--delta-schedule", "1e-1,-0.1"],
    ["tv", "--eps", "nan"],
])
def test_exit_2_on_non_finite_or_nonpositive_input(tmp_path, argv):
    out = tmp_path / "o"
    assert main(argv + ["--builtin", "triple", "--mesh-h", "0.3", "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_missing_file_is_exit_2(tmp_path):
    assert main(["tv", "--curve", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_reports_embed_config_and_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(["plateau", "--builtin", "triple", "--mesh-h", "0.2",
                     "--seed", "7", "--out", str(out)])
        assert code in (0, 3)
    ra = (a / "report.json").read_bytes()
    rb = (b / "report.json").read_bytes()
    assert ra.replace(str(a).encode(), b"") == rb.replace(str(b).encode(), b"")
    cfg = json.loads(ra)["config"]
    assert cfg["seed"] == 7 and cfg["command"] == "plateau"
    assert cfg["mesh_h"] == 0.2


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("BVPLATEAU_OUT", str(target))
    assert main(["tv", "--builtin", "vortex"]) == 0
    assert (target / "report.json").exists()


def test_emit_svg_mesh_for_recovery(tmp_path, monkeypatch):
    # count minimisations through every module namespace that binds the minimiser
    real = plateau.jacobian_tv_minimize
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bvplateau") and getattr(mod, "jacobian_tv_minimize", None) is real:
            monkeypatch.setattr(mod, "jacobian_tv_minimize", counting)
    code, out, _ = run(
        tmp_path, "verify-recovery", "--builtin", "triple",
        "--mesh-h", "0.2", "--ks", "2", "--emit-svg",
    )
    assert code == 0
    # the figure draws the report's own recovery map; the datum filler's rim
    # cannot match the jumpy profile, so only the angle-matched filler for
    # k = 2 is minimised
    assert len(calls) == 1
    assert (out / "mesh.svg").exists()
    assert (out / "curve.svg").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_reruns_byte_identical(tmp_path, command):
    outs = (tmp_path / "a", tmp_path / "b")
    codes = [main([command, "--builtin", "triple", "--mesh-h", "0.3", "--ks", "2",
                   "--out", str(out)]) for out in outs]
    assert codes == [0, 0]
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert "report.json" in names
    assert ("report.csv" in names) == (command in ("tv", "complete", "verify-recovery",
                                                   "slice-check"))
    for name in names:
        a, b = ((out / name).read_bytes().replace(str(out).encode(), b"") for out in outs)
        assert a == b


def test_unknown_command_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--builtin", "triple", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, help_text in COMMANDS.items():
        assert f" {name} {help_text} " in text + " "
