"""Block-gather references for geometry.triangle_dets and
plateau._energy_grad.

Both gather the (m, 3, 2) array of triangle corners and take strided
slices of it.  The tests require the column-gather versions to return
exactly what these return, and a minimiser run on them to take exactly
the same steps.
"""

from __future__ import annotations

import numpy as np


def triangle_dets(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    p = points[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _energy_grad(values, tris, det_s, delta, grad_out):
    n = len(values)
    p = values[tris]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    det = e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0])
    root = np.sqrt(det * det + (delta * det_s) ** 2)
    energy = 0.5 * float(np.sum(root))
    w = 0.5 * det / np.maximum(root, 1e-300)
    grad_out[:] = 0.0
    for k, e in ((0, e0), (1, e1), (2, e2)):
        idx = tris[:, k]
        grad_out[:, 0] += np.bincount(idx, weights=-e[:, 1] * w, minlength=n)
        grad_out[:, 1] += np.bincount(idx, weights=e[:, 0] * w, minlength=n)
    return energy, 0.5 * float(np.sum(np.abs(det)))
