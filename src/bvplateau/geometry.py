"""Small planar helpers shared by the curve, winding and mesh modules."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def triangle_dets(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle: det(p1 - p0, p2 - p0) for
    the rows of points indexed by tris, positive when counterclockwise."""
    x = points[:, 0][tris]
    y = points[:, 1][tris]
    return (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])


def normalize_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi). The upper endpoint folds to 0."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    # fmod can return TWO_PI - ulp territory; fold exact 2*pi only
    if t == TWO_PI:
        t = 0.0
    return t


def shoelace_terms(x0, y0, x1, y1):
    """The shoelace term x0*y1 - y0*x1 of each edge (x0, y0) -> (x1, y1):
    twice the signed area of the triangle it spans with the origin, each
    product and the difference rounded once.  A reversed edge gives
    exactly the negated term."""
    return x0 * y1 - y0 * x1
