"""CLI dispatch, artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest
from test_plateau import C_CROSSED, count_calls

from bvplateau import plateau
from bvplateau.cli import _build_parser, main
from bvplateau.curveio import BUILTIN_NAMES, builtin_curve, constant_curve, dump_curve
from bvplateau.curves import completed_curve
from bvplateau.homogeneous import ExtensionParams, relaxed_area
from bvplateau.relaxation import slicing_check


COMMANDS = {
    "tv": "variation decomposition of a curve",
    "complete": "chord-filled completion of a curve",
    "plateau": "bracket for the least sweeping area of the completed trace",
    "area": "relaxed graph area of the homogeneous extension",
    "tangential": "tangential variation of the extension over an annulus",
    "verify-recovery": "strict-convergence report for the mollified sequence",
    "slice-check": "circle-slice variation against the tangential variation",
}


def child_env():
    """The environment of a child interpreter that imports the package this
    process imports."""
    src = os.path.dirname(os.path.dirname(plateau.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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
    assert len(rows) == rep["n_vertices"] == 3  # a triangle's corners
    assert (out / "curve.svg").exists()


def test_plateau_constant(tmp_path):
    code, out, rep = run(tmp_path, "plateau", "--builtin", "vortex", "--mesh-h", "0.2")
    assert code == 0
    assert rep["plateau"]["lower"] == pytest.approx(math.pi, abs=1e-3)
    assert rep["plateau"]["upper"] >= rep["plateau"]["lower"] - 1e-9
    assert rep["winding_grid"]["stderr"] > 0.0


def test_plateau_on_a_far_constant_curve(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dump_curve(constant_curve([1e12, 1e12]))))
    code, _, rep = run(tmp_path, "plateau", "--curve", str(path), "--mesh-h", "0.3")
    assert code == 0
    assert rep["winding_grid"] == {"value": 0.0, "stderr": 0.0, "resolution": 64, "samples": 0}


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


# loop 2 of perfbench/gen.py (seed 0): at mesh_h 0.2 its minimiser stops
# stationary with the bracket open
LOOP_2 = [[-0.14876233606636569, -0.7969995612516605], [-0.48016022041433604, -0.5583414573673653],
          [0.2938514396706451, -0.2994120652069354], [-0.6393641969406243, 0.007273010419774462],
          [-0.9212425858306152, -0.7981575176220668], [0.9764702974450021, -0.601288419065874],
          [-0.2828893973767963, 0.4631966124507212]]


def test_plateau_exits_3_on_an_open_bracket(tmp_path):
    chain = LOOP_2 + LOOP_2[:1]
    length = math.fsum(math.dist(p, q) for p, q in zip(chain, chain[1:]))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": 2 * math.pi,
        "path": {"kind": "polyline", "points": chain},
        "ac": {"kind": "linear", "total": length},
    }]}))
    code, out, rep = run(tmp_path, "plateau", "--curve", str(path), "--mesh-h", "0.2")
    assert code == 3
    assert (out / "report.json").exists()
    cert = rep["plateau"]
    assert cert["termination"] == "stationary"
    assert cert["gap_flag"] is True
    assert cert["converged"] is False


def test_plateau_exits_3_on_a_failed_line_search(tmp_path, monkeypatch):
    # a self-crossing C, whose radial start leaves the bracket open
    path = tmp_path / "c_crossed.json"
    path.write_text(json.dumps({"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": 2 * math.pi,
        "path": {"kind": "polyline", "points": C_CROSSED.vertices.tolist()},
        "ac": {"kind": "linear", "total": C_CROSSED.length},
    }]}))
    monkeypatch.setattr(plateau, "_energy_only", lambda *args: math.inf)
    code, out, rep = run(tmp_path, "plateau", "--curve", str(path), "--mesh-h", "0.3")
    assert code == 3
    assert (out / "report.json").exists()
    cert = rep["plateau"]
    assert cert["termination"] == "line_search_failed"
    assert cert["iterations"] == 0
    assert cert["converged"] is False


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
    # the output directory is made only when there is output to write
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("argv", [
    ["tv", "--nodes", "10"],
    ["tv", "--delta-schedule", "0"],
    ["tv", "--eps", "-5"],
    ["tv", "--ks", ""],
    ["tv", "--ks", "2,x"],
    ["tv", "--delta-schedule", "1e-1,x"],
    ["tv", "--delta-schedule", ","],
    ["tv", "--seed", "-1"],
    ["tv", "--mesh-h", "1.5"],
    ["complete", "--ks", "4,2"],
    ["complete", "--ks", "1,2"],
    ["tangential", "--n-radii", "0"],
])
def test_exit_2_on_bad_option_the_command_does_not_read(tmp_path, argv):
    out = tmp_path / "o"
    assert main(argv + ["--builtin", "triple", "--out", str(out)]) == 2
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


def test_config_keys_are_the_parser_options(tmp_path):
    code, _, rep = run(tmp_path, "tv", "--builtin", "triple")
    assert code == 0
    options = {a.dest for a in _build_parser()._actions if a.dest != "help"}
    # the curve source is one key, "curve", whichever option named it
    assert set(rep["config"]) == options - {"builtin"}
    assert rep["config"]["curve"] == "builtin:triple"


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("BVPLATEAU_OUT", str(target))
    assert main(["tv", "--builtin", "vortex"]) == 0
    assert (target / "report.json").exists()


def test_emit_svg_mesh_for_recovery(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, plateau.jacobian_tv_minimize)
    code, out, _ = run(
        tmp_path, "verify-recovery", "--builtin", "triple",
        "--mesh-h", "0.2", "--ks", "2", "--emit-svg",
    )
    assert code == 0
    # the figure draws the report's own recovery map; one minimisation runs,
    # the angle-matched filler for k = 2: the area certificate's constant-speed
    # rim cannot match the jumpy profile, so its filler is never minimised
    assert len(calls) == 1
    assert (out / "mesh.svg").exists()
    assert (out / "curve.svg").exists()


def test_shorter_report_overwrites_a_longer_one(tmp_path):
    # reports are rewritten in place, then cut to their new length
    out = str(tmp_path / "out")
    argv = ["--builtin", "vortex", "--emit-svg", "--out", out]
    assert main(["tv", *argv]) == 0
    fresh = {name: (tmp_path / "out" / name).read_bytes() for name in os.listdir(out)}
    for name in fresh:
        os.remove(os.path.join(out, name))
    assert main(["complete", *argv]) == 0
    longer = {name: (tmp_path / "out" / name).stat().st_size for name in fresh}
    assert main(["tv", *argv]) == 0
    assert sorted(os.listdir(out)) == sorted(fresh)
    assert any(longer[name] > len(text) for name, text in fresh.items())
    for name, text in fresh.items():
        assert (tmp_path / "out" / name).read_bytes() == text


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


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dump_curve(builtin_curve("vortex"))))
    out = tmp_path / "complete"
    argv = ["complete", "--curve", str(path), "--out", str(out)]
    # a parse error and a run with other options leave nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--builtin", "triple", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert main(["tv", "--builtin", "triple", "--emit-svg", "--out", str(tmp_path / "tv")]) == 0
    assert main(argv) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["emit_svg"] is False and config["curve"] == str(path)
    files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert sorted(files) == ["report.csv", "report.json"]
    _build_parser.cache_clear()
    assert main(argv) == 0
    assert files == {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_csv_cells_are_reprs_of_library_values(tmp_path, name):
    curve = builtin_curve(name)
    code, out, _ = run(tmp_path, "complete", "--builtin", name)
    assert code == 0
    complete = (out / "report.csv").read_text().splitlines()
    vertices = completed_curve(curve, 256).vertices[:-1].tolist()
    assert complete == [f"{x!r},{y!r}" for x, y in vertices]
    code, out, _ = run(tmp_path, "slice-check", "--builtin", name, "--eps", "0.25")
    assert code == 0
    header, *slices = (out / "report.csv").read_text().splitlines()
    lib = slicing_check(curve, ExtensionParams(), eps=0.25, n_radii=256)
    assert header == "radius,slice_tv"
    assert slices == [f"{r!r},{v!r}" for r, v in zip(lib.radii.tolist(), lib.slice_tv.tolist())]
    # a numpy scalar's repr is np.float64(...); a Python float's is its digits
    assert not any(cell.startswith("np.") for line in complete + slices
                   for cell in line.split(","))


def test_one_shot_process_writes_the_in_process_csv(tmp_path):
    # python -m runs the module as __main__, whose process builds the parser once
    proc = subprocess.run(
        [sys.executable, "-m", "bvplateau.cli", "complete", "--builtin", "triple",
         "--out", str(tmp_path / "child")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["complete", "--builtin", "triple", "--out", str(tmp_path / "here")]) == 0
    assert ((tmp_path / "child" / "report.csv").read_bytes()
            == (tmp_path / "here" / "report.csv").read_bytes())


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, help_text in COMMANDS.items():
        assert f" {name} {help_text} " in text + " "


@pytest.mark.parametrize("command", ["tv", "complete", "area", "slice-check"])
@pytest.mark.parametrize(
    "piece",
    [
        # Cantor samples [0, NaN, pi/2] on a quarter circle
        {"type": "arc", "theta0": 0.0, "theta1": 2 * math.pi,
         "path": {"kind": "circle_arc", "center": [0, 0], "radius": 1, "phi0": 0,
                  "phi1": math.pi / 2},
         "cantor": {"kind": "sampled", "samples": [0, math.nan, math.pi / 2]}},
        # a polyline through [Infinity, 0] with linear total Infinity
        {"type": "arc", "theta0": 0.0, "theta1": 2 * math.pi,
         "path": {"kind": "polyline", "points": [[0, 0], [math.inf, 0]]},
         "ac": {"kind": "linear", "total": math.inf}},
    ],
    ids=["nan-sample", "infinite-point"],
)
def test_exit_2_on_non_finite_curve_file(tmp_path, capsys, command, piece):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"pieces": [piece]}))  # writes NaN / Infinity tokens
    code, out, _ = run(tmp_path, command, "--curve", str(path), "--mesh-h", "0.2")
    assert code == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["tv", "complete"])
def test_exit_2_on_zero_circle_radius(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"pieces": [
        {"type": "arc", "theta0": 0.0, "theta1": 2 * math.pi,
         "path": {"kind": "circle_arc", "center": [0, 0], "radius": 0, "phi0": 0, "phi1": 1}},
    ]}))
    # a RuntimeWarning (a division by the radius) fails the test too
    code, out, _ = run(tmp_path, command, "--curve", str(path))
    assert code == 2
    assert "$.pieces[0].path.radius: expected a positive number, got 0" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 1.2 MB of resident memory; plain np.unique,
    # np.union1d and friends import it
    code = f"""
import contextlib, io, sys
from bvplateau.cli import main
from bvplateau.curveio import BUILTIN_NAMES
for name in BUILTIN_NAMES:
    for command in {sorted(COMMANDS)!r}:
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main([command, "--builtin", name, "--mesh-h", "0.2", "--ks", "2,4,8",
                       "--emit-svg", "--out", {str(tmp_path / "o")!r}])
        assert rc in (0, 3), (name, command, rc)
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=600, check=True)
    assert proc.stdout.strip() == "False"
