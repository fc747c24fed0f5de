"""Winding numbers and winding area of closed planar polylines.

The winding area integral(|deg(u, y)|) dy is computed exactly by building
the planar arrangement induced by the (possibly self-intersecting)
polyline: split segments at pairwise intersections, merge coincident
endpoints, trace faces of the half-edge structure, then propagate integer
winding numbers from the unbounded face across edges.  Face areas come
from compensated shoelace sums, so polygons with exactly representable
vertices get exactly representable areas.

Only segment pairs whose slightly inflated bounding boxes overlap are
tested for intersection.  The inflation provably covers every pair the
exact intersection test can accept (see _candidate_pairs), so the cuts,
and hence the areas, are those of the all-pairs test.

A Monte Carlo cross-check on a jittered stratified grid is provided as an
independent estimator with a standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ClosedPolyline
from .geometry import cross2, polygon_signed_area


class ArrangementError(RuntimeError):
    """The induced planar subdivision failed a consistency check."""


# ---------------------------------------------------------------------------
# point queries


def _segments(poly: ClosedPolyline) -> np.ndarray:
    """(m, 2, 2) array of nondegenerate closed-chain segments."""
    v = poly.vertices
    keep = np.any(v[1:] != v[:-1], axis=1)
    a = v[:-1][keep]
    b = v[1:][keep]
    return np.stack([a, b], axis=1)


def distance_to_curve(poly: ClosedPolyline, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    segs = _segments(poly)
    if len(segs) == 0:
        return np.linalg.norm(pts - poly.vertices[0], axis=1)
    a = segs[:, 0][:, None, :]
    d = (segs[:, 1] - segs[:, 0])[:, None, :]
    ll = np.sum(d * d, axis=2)
    t = np.clip(np.sum((pts[None] - a) * d, axis=2) / ll, 0.0, 1.0)
    proj = a + t[:, :, None] * d
    return np.min(np.linalg.norm(pts[None] - proj, axis=2), axis=0)


def winding_number_many(poly: ClosedPolyline, points) -> np.ndarray:
    """Crossing-count winding numbers; no on-curve detection."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    segs = _segments(poly)
    if len(segs) == 0:
        return np.zeros(len(pts), dtype=int)
    ax, ay = segs[:, 0, 0][:, None], segs[:, 0, 1][:, None]
    bx, by = segs[:, 1, 0][:, None], segs[:, 1, 1][:, None]
    px, py = pts[:, 0][None, :], pts[:, 1][None, :]
    up = (ay <= py) & (by > py)
    down = (by <= py) & (ay > py)
    dy = np.where(by == ay, 1.0, by - ay)
    xi = ax + (py - ay) / dy * (bx - ax)
    hit = xi > px
    return (np.sum(up & hit, axis=0) - np.sum(down & hit, axis=0)).astype(int)


def _poly_scale(poly: ClosedPolyline) -> float:
    v = poly.vertices
    ext = v.max(axis=0) - v.min(axis=0)
    return max(1.0, float(ext.max()))


# ---------------------------------------------------------------------------
# exact arrangement


@dataclass(frozen=True, eq=False)
class Face:
    """One face of the subdivision; the cycle keeps the trace orientation
    with the face interior on its left."""

    vertex_cycle: tuple[int, ...]
    signed_area: float
    winding: int
    is_outer: bool

    @property
    def area(self) -> float:
        return abs(self.signed_area)


@dataclass(frozen=True, eq=False)
class Arrangement:
    vertices: np.ndarray  # (n, 2)
    faces: tuple[Face, ...]

    @property
    def winding_area(self) -> float:
        return math.fsum(f.area * abs(f.winding) for f in self.faces if not f.is_outer)


class _Snapper:
    """Merge points within eps (sup norm); first-seen coordinates win, so
    exactly representable input vertices stay exact."""

    def __init__(self, eps: float):
        self.eps = eps
        self.cell = 2.0 * eps
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.points: list[np.ndarray] = []

    def add(self, p: np.ndarray) -> int:
        kx = math.floor(p[0] / self.cell)
        ky = math.floor(p[1] / self.cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self.buckets.get((kx + dx, ky + dy), ()):
                    q = self.points[idx]
                    if abs(p[0] - q[0]) <= self.eps and abs(p[1] - q[1]) <= self.eps:
                        return idx
        idx = len(self.points)
        self.points.append(np.asarray(p, dtype=float))
        self.buckets.setdefault((kx, ky), []).append(idx)
        return idx


def _pair_cuts(a0, a1, b0, b1, eps):
    """Intersection parameters [(t_on_a, t_on_b), ...] including collinear
    overlap endpoints; endpoint touches count."""
    r = a1 - a0
    s = b1 - b0
    d = b0 - a0
    rr = float(r @ r)
    ss = float(s @ s)
    denom = cross2(r, s)
    if abs(denom) > 1e-12 * math.sqrt(rr * ss):
        t = cross2(d, s) / denom
        u = cross2(d, r) / denom
        tol_t = eps / math.sqrt(rr)
        tol_u = eps / math.sqrt(ss)
        if -tol_t <= t <= 1.0 + tol_t and -tol_u <= u <= 1.0 + tol_u:
            return [(min(max(t, 0.0), 1.0), min(max(u, 0.0), 1.0))]
        return []
    # parallel; collinear only if the supporting lines coincide
    if abs(cross2(d, r)) > eps * math.sqrt(rr):
        return []
    t0 = float(d @ r) / rr
    t1 = float((b1 - a0) @ r) / rr
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if hi < lo:
        return []
    out = []
    for t in {lo, hi}:
        p = a0 + t * r
        u = float((p - b0) @ s) / ss
        out.append((t, min(max(u, 0.0), 1.0)))
    return out


# rows of the pair filter compared at once; its masks hold this many times
# the segment count
_BLOCK_ROWS = 256


def _candidate_pairs(segs: np.ndarray, eps: float) -> np.ndarray:
    """(k, 2) array of the index pairs i < j, in row-major order, whose
    bounding boxes overlap once box i is inflated by 4*eps + 1e-2*|seg i|
    on every side (and box j likewise).

    Every pair for which _pair_cuts(..., eps) returns a cut is among them.
    With r = a1 - a0, s = b1 - b0, d = b0 - a0, L = |r| + |s| and c = 2**-53
    the unit roundoff, a computed cross product x X y is off by less than
    6c |x||y|:

    - Crossing branch, |r X s| > 1e-12 |r||s|.  An accepted t lies in
      [-eps/|r|, 1 + eps/|r|], so a0 + t r is within eps of segment a, and
      b0 + u s within eps of segment b.  The denominator's relative error
      is below 6c / 1e-12 < 7e-4 (the nearly parallel worst case) and the
      numerator's error over it below 7e-4 |d|/|r|, so a0 + t r is less
      than 7e-4 (|d| + |r|) from the exact line intersection P; likewise
      b0 + u s.  Both computed points being near P gives |d| < 1.01 L + 3 eps,
      so the distances from P to the two segments sum to less than
      2.01 eps + 2.2e-3 L.
    - Parallel branch.  b0 is within eps + 6c|d| of the line of a, b1 within
      eps + 1.01e-12 |s| + 6c|d|, and some point of b projects into a, so
      the segments come within eps + 1.01e-12 |s| + 1e-15 L of each other.

    The two boxes' margins sum to 8 eps + 1e-2 L, over three times either
    bound.  Adding a margin to a coordinate rounds away at most about one
    of its ulps, and two distinct coordinates are at least that far apart,
    so the spare factor also covers the rounding of lo and hi.  Masks are
    formed _BLOCK_ROWS rows at a time: memory is O(_BLOCK_ROWS * m) for m
    segments.
    """
    margin = (4.0 * eps + 1e-2 * np.hypot(*(segs[:, 1] - segs[:, 0]).T))[:, None]
    lo = np.minimum(segs[:, 0], segs[:, 1]) - margin
    hi = np.maximum(segs[:, 0], segs[:, 1]) + margin
    m = len(segs)
    blocks = [np.empty((0, 2), dtype=np.intp)]
    for start in range(0, m, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, m))
        # columns from start on; the upper triangle keeps j > i
        overlap = np.all(
            (lo[rows, None] <= hi[None, start:]) & (lo[None, start:] <= hi[rows, None]), axis=2
        )
        i, j = np.nonzero(np.triu(overlap, 1))
        blocks.append(np.stack([i, j], axis=1) + start)
    return np.concatenate(blocks)


def build_arrangement(poly: ClosedPolyline) -> Arrangement:
    """Planar subdivision induced by poly, with the winding number of
    every face.

    Segments are split at the cuts _pair_cuts finds with tolerance
    eps = 1e-12 * scale; only pairs from _candidate_pairs, whose inflated
    bounding boxes overlap, are tested.  Its margin, 4 eps + 1e-2 times
    the segment length per box, covers everything _pair_cuts accepts,
    rounding included, so the cuts are those of the all-pairs test and
    areas are reproduced bit for bit.
    """
    segs = _segments(poly)
    if len(segs) == 0:
        return Arrangement(poly.vertices[:1].copy(), ())
    scale = _poly_scale(poly)
    eps = 1e-12 * scale

    cuts: list[list[float]] = [[0.0, 1.0] for _ in segs]
    for i, j in _candidate_pairs(segs, eps).tolist():
        for t, u in _pair_cuts(segs[i, 0], segs[i, 1], segs[j, 0], segs[j, 1], eps):
            cuts[i].append(t)
            cuts[j].append(u)

    snap = _Snapper(eps)
    dir_count: dict[tuple[int, int], int] = {}
    for i, seg in enumerate(segs):
        ts = sorted(cuts[i])
        length = float(np.hypot(*(seg[1] - seg[0])))
        ids = []
        last_t = None
        for t in ts:
            if last_t is not None and (t - last_t) * length <= eps:
                continue
            p = seg[0] if t == 0.0 else (seg[1] if t == 1.0 else seg[0] + t * (seg[1] - seg[0]))
            ids.append(snap.add(p))
            last_t = t
        for a, b in zip(ids, ids[1:]):
            if a != b:
                dir_count[(a, b)] = dir_count.get((a, b), 0) + 1

    verts = np.asarray(snap.points)
    und = sorted({(min(a, b), max(a, b)) for a, b in dir_count})
    if not und:
        return Arrangement(verts, ())

    # half-edges: 2*i is lo->hi of und[i], 2*i+1 its twin
    n_he = 2 * len(und)
    origin = np.empty(n_he, dtype=int)
    dest = np.empty(n_he, dtype=int)
    for i, (u, v) in enumerate(und):
        origin[2 * i], dest[2 * i] = u, v
        origin[2 * i + 1], dest[2 * i + 1] = v, u
    twin = np.arange(n_he) ^ 1
    weight = np.array(
        [
            dir_count.get((origin[h], dest[h]), 0) - dir_count.get((dest[h], origin[h]), 0)
            for h in range(n_he)
        ],
        dtype=int,
    )

    outgoing: dict[int, list[int]] = {}
    for h in range(n_he):
        outgoing.setdefault(int(origin[h]), []).append(h)
    pos = np.empty(n_he, dtype=int)
    for v, hs in outgoing.items():
        d = verts[dest[hs]] - verts[v]
        order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
        hs[:] = [hs[k] for k in order]
        for k, h in enumerate(hs):
            pos[h] = k

    nxt = np.empty(n_he, dtype=int)
    for h in range(n_he):
        ring = outgoing[int(dest[h])]
        nxt[h] = ring[(pos[twin[h]] - 1) % len(ring)]

    face_of = np.full(n_he, -1, dtype=int)
    cycles: list[list[int]] = []
    for h0 in range(n_he):
        if face_of[h0] >= 0:
            continue
        f = len(cycles)
        walk = []
        h = h0
        while face_of[h] < 0:
            face_of[h] = f
            walk.append(h)
            h = int(nxt[h])
        if h != h0:
            raise ArrangementError("face walk did not close on its start")
        cycles.append(walk)

    areas = [polygon_signed_area(verts[origin[walk]]) for walk in cycles]
    if abs(math.fsum(areas)) > 1e-9 * scale * scale:
        raise ArrangementError(f"face areas sum to {math.fsum(areas)!r}, expected 0")

    tol_zero = 1e-12 * scale * scale
    negatives = [f for f, a in enumerate(areas) if a < -tol_zero]
    if len(negatives) > 1:
        raise ArrangementError("multiple unbounded faces; chain is not connected")
    outer = negatives[0] if negatives else int(np.argmin(areas))

    winding = np.full(len(cycles), None, dtype=object)
    winding[outer] = 0
    queue = [outer]
    while queue:
        f = queue.pop()
        for h in cycles[f]:
            g = int(face_of[twin[h]])
            w = winding[f] - int(weight[h])
            if winding[g] is None:
                winding[g] = w
                queue.append(g)
            elif winding[g] != w:
                raise ArrangementError(
                    f"inconsistent winding at faces {f}/{g}: {winding[g]} vs {w}"
                )
    if any(w is None for w in winding):
        raise ArrangementError("some faces were unreachable from the outer face")

    faces = tuple(
        Face(
            tuple(int(origin[h]) for h in walk),
            float(areas[f]),
            int(winding[f]),
            f == outer,
        )
        for f, walk in enumerate(cycles)
    )
    return Arrangement(verts, faces)


def winding_area(poly: ClosedPolyline) -> float:
    """integral |winding(poly, y)| dy, exact up to face-area rounding."""
    return build_arrangement(poly).winding_area


# ---------------------------------------------------------------------------
# grid cross-check


@dataclass(frozen=True)
class GridEstimate:
    value: float
    stderr: float
    resolution: int
    samples: int


def winding_area_grid(
    poly: ClosedPolyline, resolution: int = 64, seed: int = 0
) -> GridEstimate:
    """Stratified Monte Carlo estimate of the winding area.

    One jittered sample per cell of a resolution x resolution grid over a
    slightly padded bounding box; points falling onto the curve itself are
    re-jittered.  The standard error treats cells as independent, which is
    conservative for stratified sampling.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    v = poly.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    pad = 1e-6 * _poly_scale(poly)
    lo = lo - pad
    hi = hi + pad
    box_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
    if box_area == 0.0:
        return GridEstimate(0.0, 0.0, resolution, 0)

    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(resolution), np.arange(resolution), indexing="ij")
    cell = (hi - lo) / resolution
    tol = 1e-12 * _poly_scale(poly)
    pts = np.empty((resolution * resolution, 2))
    pts[:, 0] = lo[0] + (ii.ravel() + rng.random(ii.size)) * cell[0]
    pts[:, 1] = lo[1] + (jj.ravel() + rng.random(jj.size)) * cell[1]
    for _ in range(8):
        close = distance_to_curve(poly, pts) <= tol
        if not np.any(close):
            break
        k = int(np.count_nonzero(close))
        pts[close, 0] = lo[0] + (ii.ravel()[close] + rng.random(k)) * cell[0]
        pts[close, 1] = lo[1] + (jj.ravel()[close] + rng.random(k)) * cell[1]

    w = np.abs(winding_number_many(poly, pts))
    mean = float(np.mean(w))
    std = float(np.std(w, ddof=1))
    n = len(pts)
    return GridEstimate(box_area * mean, box_area * std / math.sqrt(n), resolution, n)
