"""Curve file format, its dump/load round trip, and built-in curve structure."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from test_curves import bv_curves

from bvplateau import evaluate_many, total_variation
from bvplateau.curveio import (
    BUILTIN_NAMES,
    CurveFormatError,
    _cantor_samples,
    _num,
    _nums,
    builtin_curve,
    dump_curve,
    load_curve,
    parse_curve,
)

TWO_PI = 2 * math.pi


def test_builtin_names():
    assert BUILTIN_NAMES == ("cantor-arc", "figure-eight", "triple", "vortex")
    with pytest.raises(KeyError):
        builtin_curve("nope")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_roundtrip_preserves_values(name, tmp_path):
    curve = builtin_curve(name)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(dump_curve(curve)))
    back = load_curve(path)

    d1, d2 = total_variation(curve), total_variation(back)
    assert d1.ac == d2.ac and d1.jump == d2.jump and d1.cantor == d2.cantor
    assert curve.closure_gap == back.closure_gap

    thetas = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    assert np.array_equal(evaluate_many(curve, thetas), evaluate_many(back, thetas))


def test_roundtrip_is_stable_text(tmp_path):
    curve = builtin_curve("triple")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(json.dumps(dump_curve(curve)))
    p2.write_text(json.dumps(dump_curve(load_curve(p1))))
    assert p1.read_text() == p2.read_text()


def test_load_from_dict():
    data = {
        "pieces": [
            {
                "type": "arc",
                "theta0": 0.0,
                "theta1": TWO_PI,
                "path": {"kind": "point", "at": [1.0, 2.0]},
            }
        ]
    }
    curve = parse_curve(data)
    assert total_variation(curve).total == 0.0


def test_missing_key_reports_json_path():
    data = {"pieces": [{"type": "arc", "theta0": 0.0, "theta1": TWO_PI}]}
    with pytest.raises(CurveFormatError) as e:
        parse_curve(data)
    assert "$.pieces[0]" in str(e.value)
    assert "path" in str(e.value)


def test_bad_path_kind_reports_location():
    data = {
        "pieces": [
            {
                "type": "arc",
                "theta0": 0.0,
                "theta1": TWO_PI,
                "path": {"kind": "spiral"},
            }
        ]
    }
    with pytest.raises(CurveFormatError) as e:
        parse_curve(data)
    assert "$.pieces[0].path.kind" in str(e.value)


def test_bad_number_reports_location():
    data = {
        "pieces": [
            {
                "type": "jump",
                "theta": "zero",
                "left": [0, 0],
                "right": [1, 0],
            }
        ]
    }
    with pytest.raises(CurveFormatError) as e:
        parse_curve(data)
    assert "$.pieces[0].theta" in str(e.value)


def test_invalid_json_is_format_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(CurveFormatError):
        load_curve(p)


def test_structurally_bad_curve_is_validation_error():
    from bvplateau import CurveValidationError

    data = {
        "pieces": [
            {
                "type": "arc",
                "theta0": 0.0,
                "theta1": 1.0,
                "path": {"kind": "point", "at": [0, 0]},
            }
        ]
    }
    with pytest.raises(CurveValidationError):
        parse_curve(data)


def test_cantor_samples_known_values():
    y = _cantor_samples(5)
    n = 3**5
    assert y[0] == 0.0
    assert y[-1] == 1.0
    assert y[n // 3] == 0.5
    assert y[2 * n // 3] == 0.5
    assert y[n // 9] == 0.25
    assert y[7 * n // 9] == 0.75
    assert np.all(np.diff(y) >= 0.0)


def test_dump_skips_zero_masses():
    d = dump_curve(builtin_curve("triple"))
    arcs = [p for p in d["pieces"] if p["type"] == "arc"]
    assert all("ac" not in p and "cantor" not in p for p in arcs)
    text = json.dumps(d, sort_keys=True)
    assert json.loads(text) == d


@settings(max_examples=80, deadline=None, derandomize=True)
@given(bv_curves())
def test_dump_load_roundtrip(curve):
    back = load_curve(json.loads(json.dumps(dump_curve(curve))))
    assert dump_curve(back) == dump_curve(curve)
    assert back.closure_gap == curve.closure_gap
    thetas = np.linspace(0.0, TWO_PI, 97, endpoint=False)
    for side in ("left", "right"):
        assert np.array_equal(evaluate_many(back, thetas, side), evaluate_many(curve, thetas, side))


def _quarter_circle_spec():
    return {"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": TWO_PI,
        "path": {"kind": "circle_arc", "center": [0, 0], "radius": 1, "phi0": 0,
                 "phi1": math.pi / 2},
        "cantor": {"kind": "sampled", "samples": [0, math.pi / 4, math.pi / 2]},
    }]}


def _segment_spec():
    return {"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": TWO_PI,
        "path": {"kind": "polyline", "points": [[0, 0], [1, 0]]},
        "ac": {"kind": "linear", "total": 1},
    }]}


def _set(obj, keys, value):
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] = value


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"]
)
@pytest.mark.parametrize(
    "spec, keys, where",
    [
        (lambda: dump_curve(builtin_curve("triple")), ("pieces", 0, "theta"), "$.pieces[0].theta"),
        (_segment_spec, ("pieces", 0, "path", "points", 1, 0), "$.pieces[0].path.points[1][0]"),
        (_quarter_circle_spec, ("pieces", 0, "path", "radius"), "$.pieces[0].path.radius"),
        (_segment_spec, ("pieces", 0, "ac", "total"), "$.pieces[0].ac.total"),
        (_quarter_circle_spec, ("pieces", 0, "cantor", "samples", 1),
         "$.pieces[0].cantor.samples[1]"),
    ],
    ids=["theta", "point", "radius", "total", "sample"],
)
def test_non_finite_number_is_format_error(spec, keys, where, value):
    data = spec()
    parse_curve(data)  # the spec is valid before the edit
    _set(data, keys, value)
    with pytest.raises(CurveFormatError, match="expected a finite number") as e:
        parse_curve(data)
    assert str(e.value).startswith(where + ":")


def _cantor_level_8_spec():
    """A quarter circle traversed by a level-8 Cantor staircase, whose
    profile has 6 562 samples."""
    data = _quarter_circle_spec()
    samples = (_cantor_samples(8) * (math.pi / 2)).tolist()
    samples[0] = 0  # an int, as a JSON file may give it
    data["pieces"][0]["cantor"]["samples"] = samples
    return data


def test_long_profile_parses_as_per_element():
    data = _cantor_level_8_spec()
    samples = data["pieces"][0]["cantor"]["samples"]
    assert np.array_equal(parse_curve(data).pieces[0].cantor.samples, [_num(s, "$") for s in samples])
    mixed = samples + [7, 2**53 + 1, -3]  # 2**53 + 1 rounds as float() rounds it
    assert np.array_equal(_nums(mixed, "$"), [_num(s, "$") for s in mixed])


@pytest.mark.parametrize("k", [0, 1, 3280, 6561])
@pytest.mark.parametrize(
    "value, message",
    [
        (True, "expected a number, got True"),
        ("1", "expected a number, got '1'"),
        (math.nan, "expected a finite number, got nan"),
        (10**400, f"expected a finite number, got {10**400!r}"),
    ],
    ids=["bool", "string", "nan", "huge-int"],
)
def test_bad_value_in_long_profile_names_its_index(k, value, message):
    data = _cantor_level_8_spec()
    samples = data["pieces"][0]["cantor"]["samples"]
    assert len(samples) == 6562
    samples[k] = value
    with pytest.raises(CurveFormatError) as e:
        parse_curve(data)
    assert str(e.value) == f"$.pieces[0].cantor.samples[{k}]: {message}"


@pytest.mark.parametrize(
    "spec, keys, value, message",
    [
        (_segment_spec, ("pieces", 0), 5, "$.pieces[0]: expected an object, got int"),
        (_segment_spec, ("pieces", 0, "path", "points", 1), [1, 0, 0],
         "$.pieces[0].path.points[1]: expected [x, y], got [1, 0, 0]"),
        (_segment_spec, ("pieces", 0, "path", "points"), [[0, 0]],
         "$.pieces[0].path.points: need at least 2 points"),
        (_quarter_circle_spec, ("pieces", 0, "cantor", "samples"), [0],
         "$.pieces[0].cantor.samples: need at least 2 values"),
        (_segment_spec, ("pieces", 0, "ac", "kind"), "cubic",
         "$.pieces[0].ac.kind: unknown mass kind 'cubic'"),
        (_segment_spec, ("pieces",), [], "$.pieces: expected a nonempty list"),
        (_segment_spec, ("pieces", 0, "type"), "spline",
         "$.pieces[0].type: unknown piece type 'spline'"),
    ],
    ids=["piece-not-object", "bad-point", "one-point", "one-sample", "mass-kind",
         "no-pieces", "piece-type"],
)
def test_malformed_spec_is_format_error_at_its_locator(spec, keys, value, message):
    data = spec()
    parse_curve(data)  # the spec is valid before the edit
    _set(data, keys, value)
    with pytest.raises(CurveFormatError) as e:
        parse_curve(data)
    assert str(e.value) == message


@pytest.mark.parametrize("radius", [0, 0.0, -1, -1e-300])
def test_nonpositive_circle_radius_is_format_error(radius):
    data = _quarter_circle_spec()
    data["pieces"][0]["path"]["radius"] = radius
    with pytest.raises(CurveFormatError) as e:
        parse_curve(data)
    assert str(e.value) == (
        f"$.pieces[0].path.radius: expected a positive number, got {radius!r}")
