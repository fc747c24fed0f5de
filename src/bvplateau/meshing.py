"""Conforming triangulations of a disk.

Meshes are built from concentric rings of vertices; consecutive rings are
stitched by a stable merge of their sorted "next angle" sequences (the
triangles a cyclic two-pointer walk around the band would make), so
rings of unequal size produce a conforming band with no hanging nodes.
The outer ring can absorb a caller-supplied set of mandatory boundary
angles (nearby uniform samples are dropped to avoid slivers).  Each
uniform sample is measured against four extras only: its two neighbours,
found by binary search, and the first and last, which cover the wrap at
2*pi.  The nearest extra round the circle is among them, so the rim takes
O(n log e) time and O(n) memory for n samples and e extras.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, triangle_dets


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangle mesh of a disk; triangles are counterclockwise."""

    vertices: np.ndarray  # (n, 2)
    triangles: np.ndarray  # (m, 3) int
    boundary_loop: np.ndarray  # ordered vertex ids around the rim
    radius: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.boundary_loop] = True
        return mask


def _ring_angles(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


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
    # the circular distance min(d, 2*pi - d) to the nearest extra, with
    # d = |base - extra|: rounded differences are monotone in the extra, so
    # the least d is at the extra just below or above the sample and the
    # greatest at the first or last extra
    i = np.searchsorted(ex, base)
    last = len(ex) - 1
    k = np.stack(
        [np.maximum(i - 1, 0), np.minimum(i, last), np.zeros_like(i), np.full_like(i, last)]
    )
    d = np.abs(base - ex[k])
    d = np.minimum(d, TWO_PI - d)
    mask = np.min(d, axis=0) > 0.25 * spacing
    return np.sort(np.concatenate([base[mask], ex]))


def _band(ang_a, sa: int, ang_b, sb: int) -> np.ndarray:
    """Stitch two concentric rings whose vertex ids start at sa and sb;
    returns len(a) + len(b) triangles.

    Each triangle steps one ring forward by one vertex: ring a when its
    next angle is not past ring b's, else ring b.  Both rings' angles are
    sorted in [0, 2*pi), so the next-angle sequences are sorted too, and a
    stable merge of them with ring a first gives that order, ties included
    (uniform rings share angles exactly, e.g. 2*pi*1/8 and 2*pi*2/16).
    """
    na, nb = len(ang_a), len(ang_b)
    nxt = np.concatenate([ang_a[1:], [ang_a[0] + TWO_PI], ang_b[1:], [ang_b[0] + TWO_PI]])
    step = np.argsort(nxt, kind="stable")  # the next-angle entry each triangle reaches
    from_b = step >= na
    j = np.cumsum(from_b) - from_b  # ring-b steps taken before each triangle
    i = np.arange(na + nb) - j
    # each ring's vertex ids, closed by repeating its first
    ring_a = np.arange(sa, sa + na + 1)
    ring_a[-1] = sa
    ring_b = np.arange(sb, sb + nb + 1)
    ring_b[-1] = sb
    to = np.concatenate([ring_a[1:], ring_b[1:]])  # the vertex of each next angle
    return np.stack([ring_a[i], ring_b[j], to[step]], axis=-1)


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
    radii = [radius * j / n_rings for j in range(1, n_rings + 1)]
    angs = [_ring_angles(max(8, int(round(TWO_PI * r / h)))) for r in radii[:-1]]
    angs.append(_boundary_angles(radii[-1], h, extra_boundary_angles))
    sizes = [len(a) for a in angs]
    starts = np.cumsum([1] + sizes)  # each ring's first vertex id, then the vertex count
    ang = np.concatenate(angs)
    r = np.repeat(radii, sizes)[:, None]
    vertices = np.concatenate([np.zeros((1, 2)), r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)])

    k = np.arange(sizes[0])
    fan = np.stack([np.zeros_like(k), 1 + k, 1 + (k + 1) % sizes[0]], axis=-1)
    bands = [_band(angs[q], starts[q], angs[q + 1], starts[q + 1]) for q in range(n_rings - 1)]
    triangles = np.concatenate([fan, *bands])
    flip = triangle_dets(vertices, triangles) < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    return TriMesh(vertices, triangles, np.arange(starts[-2], starts[-1]), float(radius))
