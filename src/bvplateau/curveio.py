"""Loading, dumping and built-in curves.

Curve files are JSON: {"pieces": [...]} where each piece is either

  {"type": "arc", "theta0": t0, "theta1": t1,
   "path": {"kind": "polyline", "points": [[x, y], ...]}
         | {"kind": "circle_arc", "center": [x, y], "radius": r,
            "phi0": p0, "phi1": p1}
         | {"kind": "point", "at": [x, y]},
   "ac":     {"kind": "linear", "total": m}
           | {"kind": "sampled", "samples": [0, ..., m]},   # optional
   "cantor": same shape as "ac"}                            # optional

  {"type": "jump", "theta": t, "left": [x, y], "right": [x, y]}

A mass profile is its samples on a uniform grid over the arc; "linear" is
shorthand for the two samples [0, m], and an omitted profile is [0, 0].
Every number must be finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .curves import (
    Arc,
    CircleArcPath,
    CumulativeVariation,
    Curve,
    Jump,
    PointPath,
    PolylinePath,
    ZERO_MASS,
    linear_mass,
    validate,
)
from .geometry import TWO_PI


class CurveFormatError(ValueError):
    """Malformed curve file; messages carry a JSON-path locator."""


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise CurveFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise CurveFormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def _num(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise CurveFormatError(f"{where}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise CurveFormatError(f"{where}: expected a finite number, got {v!r}")
    return x


def _nums(values: list, where: str) -> np.ndarray:
    """values as a float array, each element checked as _num checks it.

    One pass when every element is an int or a float (not a bool) and the
    array is finite; otherwise _num runs on each element in turn, so the
    first bad one gets its message.
    """
    if set(map(type, values)) <= {int, float}:
        try:
            x = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            x = None
        if x is not None and np.all(np.isfinite(x)):
            return x
    return np.array([_num(v, f"{where}[{i}]") for i, v in enumerate(values)])


def _pt(v, where: str) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise CurveFormatError(f"{where}: expected [x, y], got {v!r}")
    return np.array([_num(v[0], f"{where}[0]"), _num(v[1], f"{where}[1]")])


def _parse_path(obj, where: str):
    kind = _need(obj, "kind", where)
    if kind == "polyline":
        pts = _need(obj, "points", where)
        if not isinstance(pts, list) or len(pts) < 2:
            raise CurveFormatError(f"{where}.points: need at least 2 points")
        return PolylinePath(np.array([_pt(p, f"{where}.points[{i}]") for i, p in enumerate(pts)]))
    if kind == "circle_arc":
        center = _pt(_need(obj, "center", where), f"{where}.center")
        radius = _num(_need(obj, "radius", where), f"{where}.radius")
        if radius <= 0.0:
            raise CurveFormatError(
                f"{where}.radius: expected a positive number, got {obj['radius']!r}")
        return CircleArcPath(
            center,
            radius,
            _num(_need(obj, "phi0", where), f"{where}.phi0"),
            _num(_need(obj, "phi1", where), f"{where}.phi1"),
        )
    if kind == "point":
        return PointPath(_pt(_need(obj, "at", where), f"{where}.at"))
    raise CurveFormatError(f"{where}.kind: unknown path kind {kind!r}")


def _parse_mass(obj, where: str) -> CumulativeVariation:
    if obj is None:
        return ZERO_MASS
    kind = _need(obj, "kind", where)
    if kind == "linear":
        return linear_mass(_num(_need(obj, "total", where), f"{where}.total"))
    if kind == "sampled":
        samples = _need(obj, "samples", where)
        if not isinstance(samples, list) or len(samples) < 2:
            raise CurveFormatError(f"{where}.samples: need at least 2 values")
        return CumulativeVariation(_nums(samples, f"{where}.samples"))
    raise CurveFormatError(f"{where}.kind: unknown mass kind {kind!r}")


def parse_curve(data: dict) -> Curve:
    pieces_raw = _need(data, "pieces", "$")
    if not isinstance(pieces_raw, list) or not pieces_raw:
        raise CurveFormatError("$.pieces: expected a nonempty list")
    pieces = []
    for i, p in enumerate(pieces_raw):
        where = f"$.pieces[{i}]"
        ptype = _need(p, "type", where)
        if ptype == "arc":
            pieces.append(
                Arc(
                    _num(_need(p, "theta0", where), f"{where}.theta0"),
                    _num(_need(p, "theta1", where), f"{where}.theta1"),
                    _parse_path(_need(p, "path", where), f"{where}.path"),
                    _parse_mass(p.get("ac"), f"{where}.ac"),
                    _parse_mass(p.get("cantor"), f"{where}.cantor"),
                )
            )
        elif ptype == "jump":
            pieces.append(
                Jump(
                    _num(_need(p, "theta", where), f"{where}.theta"),
                    _pt(_need(p, "left", where), f"{where}.left"),
                    _pt(_need(p, "right", where), f"{where}.right"),
                )
            )
        else:
            raise CurveFormatError(f"{where}.type: unknown piece type {ptype!r}")
    return validate(Curve(tuple(pieces)))


def load_curve(source) -> Curve:
    """Parse a curve from a JSON file path or an already-decoded dict."""
    if isinstance(source, dict):
        return parse_curve(source)
    text = Path(source).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CurveFormatError(f"{source}: not valid JSON ({e})") from e
    return parse_curve(data)


def _dump_path(path) -> dict:
    if isinstance(path, PolylinePath):
        return {"kind": "polyline", "points": path.points.tolist()}
    if isinstance(path, CircleArcPath):
        return {
            "kind": "circle_arc",
            "center": path.center.tolist(),
            "radius": path.radius,
            "phi0": path.phi0,
            "phi1": path.phi1,
        }
    return {"kind": "point", "at": path.at.tolist()}


def _dump_mass(mass: CumulativeVariation):
    if len(mass.samples) > 2:
        return {"kind": "sampled", "samples": mass.samples.tolist()}
    if mass.total == 0.0:
        return None
    return {"kind": "linear", "total": mass.total}


def dump_curve(curve: Curve) -> dict:
    """Inverse of parse_curve; zero ac and Cantor masses are omitted."""
    pieces = []
    for p in curve.pieces:
        if isinstance(p, Arc):
            d = {
                "type": "arc",
                "theta0": p.theta0,
                "theta1": p.theta1,
                "path": _dump_path(p.path),
            }
            ac = _dump_mass(p.ac)
            cantor = _dump_mass(p.cantor)
            if ac is not None:
                d["ac"] = ac
            if cantor is not None:
                d["cantor"] = cantor
            pieces.append(d)
        else:
            pieces.append(
                {
                    "type": "jump",
                    "theta": p.theta,
                    "left": p.left.tolist(),
                    "right": p.right.tolist(),
                }
            )
    return {"pieces": pieces}


# ---------------------------------------------------------------------------
# built-in curves


def _cantor_samples(level: int) -> np.ndarray:
    """Cantor staircase values at i / 3**level, exactly, via base-3 digits."""
    n = 3**level
    i = np.arange(n + 1)
    y = np.zeros(n + 1)
    active = np.ones(n + 1, dtype=bool)
    rem = i.copy()
    power = n
    factor = 1.0
    for _ in range(level):
        power //= 3
        digit = rem // power
        rem = rem - digit * power
        factor *= 0.5
        y += factor * active * (digit >= 1)
        active &= digit != 1
    y[-1] = 1.0
    return y


def constant_curve(point) -> Curve:
    """Curve identically equal to one point."""
    arc = Arc(0.0, TWO_PI, PointPath(np.asarray(point, dtype=float)), ZERO_MASS)
    return validate(Curve((arc,)))


def _vortex() -> Curve:
    path = CircleArcPath(np.zeros(2), 1.0, 0.0, TWO_PI)
    return validate(Curve((Arc(0.0, TWO_PI, path, linear_mass(TWO_PI)),)))


def _triple() -> Curve:
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    g = np.array([0.5, np.sqrt(3.0) / 2.0])
    t1, t2, t3 = np.pi / 3, np.pi, 5 * np.pi / 3
    pieces = (
        Jump(t1, a, b),
        Arc(t1, t2, PointPath(b), ZERO_MASS),
        Jump(t2, b, g),
        Arc(t2, t3, PointPath(g), ZERO_MASS),
        Jump(t3, g, a),
        Arc(t3, t1 + TWO_PI, PointPath(a), ZERO_MASS),
    )
    return validate(Curve(pieces))


def _cantor_arc() -> Curve:
    path = CircleArcPath(np.zeros(2), 1.0, 0.0, np.pi / 2)
    staircase = CumulativeVariation(_cantor_samples(7) * (np.pi / 2))
    arc = Arc(0.0, TWO_PI, path, ZERO_MASS, staircase)
    return validate(Curve((arc,)))


def _figure_eight() -> Curve:
    pts = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [0.0, 0.0],
            [0.0, -1.0],
            [-1.0, -1.0],
            [-1.0, 0.0],
            [0.0, 0.0],
        ]
    )
    path = PolylinePath(pts)
    return validate(Curve((Arc(0.0, TWO_PI, path, linear_mass(path.length)),)))


_BUILTINS = {
    "vortex": _vortex,
    "triple": _triple,
    "cantor-arc": _cantor_arc,
    "figure-eight": _figure_eight,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_curve(name: str) -> Curve:
    """vortex: unit-circle trace; triple: three constant sectors with unit
    jumps; cantor-arc: quarter circle traversed by a Cantor staircase (open
    trace); figure-eight: two unit squares of opposite orientation."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; have {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name]()
