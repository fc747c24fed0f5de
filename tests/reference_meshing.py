"""Loop reference for meshing.make_disk_mesh.

The two-pointer band stitch and the mesh builder that collects vertices
and triangles one Python row at a time, and the rim angles from the full
(uniform samples x extras) distance matrix.  The tests require
make_disk_mesh and meshing._boundary_angles to return exactly what this
module returns.
"""

from __future__ import annotations

import numpy as np

from bvplateau.geometry import TWO_PI, triangle_dets
from bvplateau.meshing import TriMesh, _ring_angles


def _boundary_angles(r: float, h: float, extras) -> np.ndarray:
    n = max(16, int(round(TWO_PI * r / h)))
    base = _ring_angles(n)
    if extras is None:
        return base
    ex = np.unique(np.mod(np.asarray(extras, dtype=float), TWO_PI))
    if len(ex) == 0:
        return base
    keep = np.concatenate([[True], np.diff(ex) > 1e-9])
    ex = ex[keep]
    if len(ex) > 1 and (TWO_PI - (ex[-1] - ex[0])) <= 1e-9:
        ex = ex[:-1]
    spacing = TWO_PI / n
    d = np.abs(base[:, None] - ex[None, :])
    d = np.minimum(d, TWO_PI - d)
    mask = np.min(d, axis=1) > 0.25 * spacing
    return np.sort(np.concatenate([base[mask], ex]))


def _band(ang_a, ids_a, ang_b, ids_b) -> list[tuple[int, int, int]]:
    """Stitch two concentric rings; returns len(a) + len(b) triangles."""
    na, nb = len(ang_a), len(ang_b)
    tris = []
    i = j = 0
    while i < na or j < nb:
        next_a = ang_a[(i + 1) % na] + TWO_PI * ((i + 1) // na)
        next_b = ang_b[(j + 1) % nb] + TWO_PI * ((j + 1) // nb)
        if j >= nb or (i < na and next_a <= next_b):
            tris.append((ids_a[i % na], ids_b[j % nb], ids_a[(i + 1) % na]))
            i += 1
        else:
            tris.append((ids_a[i % na], ids_b[j % nb], ids_b[(j + 1) % nb]))
            j += 1
    return tris


def make_disk_mesh(
    radius: float = 1.0, h: float = 0.1, extra_boundary_angles=None
) -> TriMesh:
    """Mesh the disk of the given radius at target edge length h.

    Angles listed in extra_boundary_angles become rim vertices exactly;
    pass the parameter angles of a boundary datum's corners so that the
    piecewise structure of the datum survives sampling.
    """
    if radius <= 0.0 or h <= 0.0:
        raise ValueError("radius and h must be positive")
    n_rings = max(1, int(round(radius / h)))
    verts: list[np.ndarray] = [np.zeros(2)]
    rings: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(1, n_rings + 1):
        r = radius * j / n_rings
        if j == n_rings:
            ang = _boundary_angles(r, h, extra_boundary_angles)
        else:
            ang = _ring_angles(max(8, int(round(TWO_PI * r / h))))
        ids = np.arange(len(verts), len(verts) + len(ang))
        verts.extend(r * np.stack([np.cos(ang), np.sin(ang)], axis=-1))
        rings.append((ang, ids))

    tris: list[tuple[int, int, int]] = []
    ang0, ids0 = rings[0]
    n0 = len(ids0)
    for k in range(n0):
        tris.append((0, ids0[k], ids0[(k + 1) % n0]))
    for (ang_a, ids_a), (ang_b, ids_b) in zip(rings, rings[1:]):
        tris.extend(_band(ang_a, ids_a, ang_b, ids_b))

    vertices = np.asarray(verts)
    triangles = np.asarray(tris, dtype=int)
    flip = triangle_dets(vertices, triangles) < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    return TriMesh(vertices, triangles, rings[-1][1], float(radius))
