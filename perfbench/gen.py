"""Seeded curve-spec generator with closed-form expectations.

Every generated curve is a curve-spec dict (the JSON the CLI reads) plus
the values a report must reproduce, computed here without the program:
total variation split by kind, closure gap, and where it exists the
Plateau lower bound (the winding area of the completed trace).

Families:
  sector   piecewise-constant curve, 3-6 sectors whose values are the
           vertices of a polygon star-shaped about the origin; jumps join
           consecutive vertices, so the completed trace is that polygon
  circle   one circle traversed once at constant speed
  loop     self-intersecting closed polyline traversed at constant speed
  cantor   circle arc traversed by a Cantor staircase (sampled mass at
           level 4-8); the trace is open, closed by its chord
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi


def _shoelace(pts) -> float:
    n = len(pts)
    return 0.5 * math.fsum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n)
    )


def _perimeter(pts) -> float:
    n = len(pts)
    return math.fsum(math.dist(pts[i], pts[(i + 1) % n]) for i in range(n))


def _angles(rng: random.Random, n: int, offset: float) -> list[float]:
    # gap weights in [1, 1.8] keep every gap below pi for n >= 3
    w = [rng.uniform(1.0, 1.8) for _ in range(n)]
    total = math.fsum(w)
    out, acc = [], offset
    for x in w:
        out.append(acc)
        acc += TWO_PI * x / total
    return out


def sector(rng: random.Random, n: int) -> dict:
    """n constant sectors; the completed trace is a counterclockwise
    polygon star-shaped about the origin."""
    alphas = _angles(rng, n, rng.uniform(0.0, TWO_PI))
    verts = []
    for a in alphas:
        rho = rng.uniform(0.5, 1.5)
        verts.append([rho * math.cos(a), rho * math.sin(a)])
    thetas = _angles(rng, n, rng.uniform(0.0, 1.0))
    pieces = []
    for i in range(n):
        t1 = thetas[i + 1] if i + 1 < n else thetas[0] + TWO_PI
        pieces.append({"type": "jump", "theta": thetas[i], "left": verts[i - 1], "right": verts[i]})
        pieces.append({"type": "arc", "theta0": thetas[i], "theta1": t1,
                       "path": {"kind": "point", "at": verts[i]}})
    perim = _perimeter(verts)
    return {
        "family": "sector",
        "spec": {"pieces": pieces},
        "ac": 0.0, "jump": perim, "cantor": 0.0, "closure_gap": 0.0,
        "winding_area": _shoelace(verts),
        "scale": max(math.hypot(*v) for v in verts),
    }


def circle(rng: random.Random) -> dict:
    c = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
    r = rng.uniform(0.5, 1.5)
    phi0 = rng.uniform(0.0, TWO_PI)
    length = TWO_PI * r
    spec = {"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": TWO_PI,
        "path": {"kind": "circle_arc", "center": c, "radius": r, "phi0": phi0,
                 "phi1": phi0 + TWO_PI},
        "ac": {"kind": "linear", "total": length},
    }]}
    return {
        "family": "circle", "spec": spec,
        "ac": length, "jump": 0.0, "cantor": 0.0, "closure_gap": 0.0,
        "winding_area": math.pi * r * r,
        "scale": math.hypot(*c) + r,
    }


def loop(rng: random.Random, k: int) -> dict:
    """k random points in the unit square, closed; almost surely
    self-intersecting for k >= 5."""
    pts = [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(k)]
    length = _perimeter(pts)
    spec = {"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": TWO_PI,
        "path": {"kind": "polyline", "points": pts + [pts[0]]},
        "ac": {"kind": "linear", "total": length},
    }]}
    return {
        "family": "loop", "spec": spec,
        "ac": length, "jump": 0.0, "cantor": 0.0, "closure_gap": 0.0,
        "scale": max(math.hypot(*p) for p in pts),
    }


def cantor_samples(level: int) -> list[float]:
    """Cantor staircase at i / 3**level, exactly, from base-3 digits."""
    n = 3**level
    out = []
    for i in range(n + 1):
        y, factor, rem, power = 0.0, 1.0, i, n
        for _ in range(level):
            power //= 3
            digit, rem = divmod(rem, power)
            factor *= 0.5
            if digit >= 1:
                y += factor
            if digit == 1:
                break
        out.append(y)
    out[-1] = 1.0
    return out


def cantor(rng: random.Random, level: int) -> dict:
    c = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
    r = rng.uniform(0.5, 1.5)
    phi0 = rng.uniform(0.0, TWO_PI)
    span = rng.uniform(0.5 * math.pi, 1.5 * math.pi)
    length = r * span
    spec = {"pieces": [{
        "type": "arc", "theta0": 0.0, "theta1": TWO_PI,
        "path": {"kind": "circle_arc", "center": c, "radius": r, "phi0": phi0,
                 "phi1": phi0 + span},
        "cantor": {"kind": "sampled", "samples": [s * length for s in cantor_samples(level)]},
    }]}
    return {
        "family": "cantor", "spec": spec,
        "ac": 0.0, "jump": 0.0, "cantor": length,
        "closure_gap": 2.0 * r * math.sin(0.5 * span),
        "scale": math.hypot(*c) + r,
    }


def make_curve(family: str, rng: random.Random, index: int) -> dict:
    """The index fixes the discrete shape parameters (sector count, loop
    size, Cantor level) so that every seed draws the same mix of sizes."""
    if family == "sector":
        return sector(rng, 3 + index % 4)
    if family == "circle":
        return circle(rng)
    if family == "loop":
        return loop(rng, 5 + index % 5)
    if family == "cantor":
        return cantor(rng, 4 + index % 5)
    raise ValueError(f"unknown family {family!r}")
