"""Loop reference for winding.build_arrangement.

The pairwise cut test, the blocked bounding-box filter and the per-segment,
per-point and per-half-edge loops that build the arrangement one Python
object at a time.  Dot products are written out as x0*y0 + x1*y1, as in
the array code, so both round the same way on every BLAS build.  The tests
require build_arrangement to return exactly what this module returns.
"""

from __future__ import annotations

import math

import numpy as np

from bvplateau.geometry import shoelace_terms
from bvplateau.winding import (
    Arrangement,
    ArrangementError,
    Face,
    _poly_scale,
    _segments,
    _Snapper,
)


def polygon_signed_area(vertices: np.ndarray) -> float:
    """Signed shoelace area of a closed vertex loop.

    Accepts the loop with or without the repeated last vertex.  Uses
    math.fsum, so the result is the correctly rounded sum of the rounded
    shoelace terms (not of the exact ones): cyclic rotations and
    reversals of the loop give bitwise consistent areas.
    """
    v = np.asarray(vertices, dtype=float)
    if len(v) >= 2 and np.array_equal(v[0], v[-1]):
        v = v[:-1]
    if len(v) < 3:
        return 0.0
    nxt = np.roll(v, -1, axis=0)
    terms = shoelace_terms(v[:, 0], v[:, 1], nxt[:, 0], nxt[:, 1])
    return 0.5 * math.fsum(terms.tolist())


def cross2(a, b) -> float:
    """Scalar cross product a1*b2 - a2*b1."""
    return a[0] * b[1] - a[1] * b[0]


def dot2(a, b) -> float:
    return float(a[0] * b[0] + a[1] * b[1])


def _pair_cuts(a0, a1, b0, b1, eps):
    """Intersection parameters [(t_on_a, t_on_b), ...] including collinear
    overlap endpoints; endpoint touches count."""
    r = a1 - a0
    s = b1 - b0
    d = b0 - a0
    rr = dot2(r, r)
    ss = dot2(s, s)
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
    t0 = dot2(d, r) / rr
    t1 = dot2(b1 - a0, r) / rr
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if hi < lo:
        return []
    out = []
    for t in {lo, hi}:
        p = a0 + t * r
        u = dot2(p - b0, s) / ss
        out.append((t, min(max(u, 0.0), 1.0)))
    return out


# rows of the pair filter compared at once; its masks hold this many times
# the segment count
_BLOCK_ROWS = 256


def _candidate_pairs(segs: np.ndarray, eps: float) -> np.ndarray:
    """(k, 2) array of the index pairs i < j, in row-major order, whose
    bounding boxes overlap once box i is inflated by 4*eps + 1e-2*|seg i|
    on every side (and box j likewise); masks are formed _BLOCK_ROWS rows
    at a time."""
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


def build_arrangement(poly) -> Arrangement:
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
        order = np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")
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
