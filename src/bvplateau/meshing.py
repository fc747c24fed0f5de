"""Conforming triangulations of a disk.

Meshes are built from concentric rings of vertices; consecutive rings are
stitched by a stable merge of their sorted "next angle" sequences (the
triangles a cyclic two-pointer walk around the band would make), so
rings of unequal size produce a conforming band with no hanging nodes.
All bands are merged at once: one stable sort of every band's entries by
next angle, then one by band, on a small integer type that numpy sorts
by radix.  The outer ring can absorb a caller-supplied set of mandatory
boundary angles (nearby uniform samples are dropped to avoid slivers).
Each uniform sample is measured against four extras only: its two
neighbours, found by binary search, and the first and last, which cover
the wrap at 2*pi.  The nearest extra round the circle is among them, so
the rim takes O(n log e) time and O(n) memory for n samples and e extras."""

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
    ex = np.sort(np.mod(np.asarray(extras, dtype=float), TWO_PI), axis=None)
    if len(ex) == 0:
        return base
    # drops exact repeats too
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
    sizes = np.array([len(a) for a in angs])
    starts = np.cumsum(np.concatenate([[1], sizes]))  # each ring's first vertex id, then the count
    ang = np.concatenate(angs)
    r = np.repeat(radii, sizes)[:, None]
    vertices = np.concatenate([np.zeros((1, 2)), r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)])

    k = np.arange(sizes[0])
    fan = np.stack([np.zeros_like(k), 1 + k, 1 + (k + 1) % sizes[0]], axis=-1)

    # the vertex after each ring vertex round its ring, and its angle: the
    # ring's first angle plus 2*pi after the ring's last vertex
    ring = np.repeat(np.arange(n_rings, dtype=np.min_scalar_type(n_rings)), sizes)
    v = np.arange(len(ang))
    last = v == starts[ring + 1] - 2
    to = np.where(last, starts[ring], v + 2)
    next_angle = np.where(last, ang[to - 1] + TWO_PI, ang[to - 1])

    # band q stitches ring q (side a) to ring q + 1 (side b).  Its entries
    # are the side-a ring's vertices, listed among every ring but the last,
    # then the side-b ring's, among every ring but the first.  Sorted
    # stably by (band, next angle), each band's entries are the merge of
    # its two rings' sequences, side a first on ties; each triangle steps
    # one ring forward, to the next entry.
    n_a = starts[-2] - 1
    band = np.concatenate([ring[:n_a], ring[sizes[0]:] - 1])
    by_angle = np.argsort(np.concatenate([next_angle[:n_a], next_angle[sizes[0]:]]), kind="stable")
    step = by_angle[np.argsort(band[by_angle], kind="stable")]
    band = band[step].astype(np.intp)
    from_b = step >= n_a
    # a triangle's side-a vertex follows the side-a steps before it, counted
    # over all bands, and wraps to its ring's first vertex after its last
    a = 1 + np.cumsum(~from_b) - ~from_b
    a = np.where(a == starts[band + 1], starts[band], a)
    b = starts[1] + np.cumsum(from_b) - from_b
    b = np.where(b == starts[band + 2], starts[band + 1], b)
    stitched = np.stack([a, b, np.concatenate([to[:n_a], to[sizes[0]:]])[step]], axis=-1)
    triangles = np.concatenate([fan, stitched])
    flip = triangle_dets(vertices, triangles) < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    return TriMesh(vertices, triangles, np.arange(starts[-2], starts[-1]), float(radius))
