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
    from bvplateau.curveio import _cantor_samples

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
