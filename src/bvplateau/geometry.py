"""Small planar helpers shared by the curve, winding and mesh modules."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def cross2(a, b) -> float:
    """Scalar cross product a1*b2 - a2*b1."""
    return a[0] * b[1] - a[1] * b[0]


def triangle_dets(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle: det(p1 - p0, p2 - p0) for
    the rows of points indexed by tris, positive when counterclockwise."""
    p = points[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def normalize_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi). The upper endpoint folds to 0."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    # fmod can return TWO_PI - ulp territory; fold exact 2*pi only
    if t == TWO_PI:
        t = 0.0
    return t


def polygon_signed_area(vertices: np.ndarray) -> float:
    """Signed shoelace area of a closed vertex loop.

    Accepts the loop with or without the repeated last vertex.  Uses
    math.fsum so the result is the correctly rounded value of the exact
    term sum: cyclic rotations and reversals of the loop give bitwise
    consistent areas.
    """
    v = np.asarray(vertices, dtype=float)
    if len(v) >= 2 and np.array_equal(v[0], v[-1]):
        v = v[:-1]
    if len(v) < 3:
        return 0.0
    nxt = np.roll(v, -1, axis=0)
    terms = v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0]
    return 0.5 * math.fsum(terms.tolist())
