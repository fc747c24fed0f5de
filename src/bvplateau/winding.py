"""Winding numbers and winding area of closed planar polylines.

The winding area integral(|deg(u, y)|) dy is computed exactly by building
the planar arrangement induced by the (possibly self-intersecting)
polyline: split segments at pairwise intersections, merge coincident
endpoints, trace faces of the half-edge structure, then propagate integer
winding numbers from the unbounded face across edges.  Twice a face's
area is the math.fsum of its half-edges' shoelace terms: the correctly
rounded sum of the rounded terms, so a face whose terms are exact (small
integer vertices, say) gets its exact area.

The arrangement is built in two stages.  The chain stage (_chain) is
array code, but for a loop over the segments that hold cuts within eps
of each other.  Only segment pairs whose slightly inflated bounding
boxes overlap, found by a sort and sweep, are tested for intersection.  The
inflation provably covers every pair the intersection test can accept
(see _candidate_pairs), so the cuts, and hence the areas, are those of
the all-pairs test.  That test writes its dot and cross products out as
x0*y0 + x1*y1, so its results do not depend on the BLAS build.  Cut
points are merged as a sequential first-seen snapper merges them; a sweep
confines that snapper to the runs of points that hold a close pair (see
_snap).  The face stage (_faces) has three Python loops over half-edges:
the face walk, one math.fsum per face over the shoelace terms (formed as
one array), and the winding propagation.  winding_area skips it when the
chain is one simple cycle: by the Jordan curve theorem the winding area
is then the |shoelace area|, and that is the face stage's own value, bit
for bit (see winding_area).  The Plateau bracket reads the same test:
_winding_area_simple also says whether the chain was one simple cycle.

A Monte Carlo cross-check on a jittered stratified grid, sampled once,
is provided as an independent estimator with a standard error.  Its
winding numbers are crossing counts: the samples are sorted by y once,
and each segment is tested only against the run of samples whose y lies
in its y-range (see winding_number_many).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ClosedPolyline
from .geometry import shoelace_terms


class ArrangementError(RuntimeError):
    """The induced planar subdivision failed a consistency check."""


# ---------------------------------------------------------------------------
# point queries


def _segments(poly: ClosedPolyline) -> np.ndarray:
    """(m, 2, 2) array of the closed-chain segments of positive squared
    length; one whose square underflows is below 1.5e-154, and snapping
    would merge its ends anyway."""
    v = poly.vertices
    d = v[1:] - v[:-1]
    keep = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] > 0
    a = v[:-1][keep]
    b = v[1:][keep]
    return np.stack([a, b], axis=1)


def winding_number_many(poly: ClosedPolyline, points) -> np.ndarray:
    """Crossing-count winding numbers; no on-curve detection.

    A segment counts for a point when the point's y lies in
    [min(ay, by), max(ay, by)) and the segment crosses that horizontal
    line right of the point: +1 going up, -1 going down.  The points are
    sorted by y once, so each segment's candidates are one contiguous run
    found by binary search, and only those (segment, point) pairs are
    tested.  Horizontal segments have empty runs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    segs = _segments(poly)
    if len(segs) == 0:
        return np.zeros(len(pts), dtype=int)
    ax, ay = segs[:, 0, 0], segs[:, 0, 1]
    bx, by = segs[:, 1, 0], segs[:, 1, 1]
    order = np.argsort(pts[:, 1])
    ys = pts[order, 1]
    # the run of sorted samples with min(ay, by) <= y < max(ay, by)
    lo = np.searchsorted(ys, np.minimum(ay, by), side="left")
    hi = np.searchsorted(ys, np.maximum(ay, by), side="left")
    runs = hi - lo
    seg = np.repeat(np.arange(len(segs)), runs)
    first = np.cumsum(runs) - runs
    p = order[np.arange(len(seg)) - np.repeat(first - lo, runs)]
    px, py = pts[p, 0], pts[p, 1]
    ax, ay, bx, by = ax[seg], ay[seg], bx[seg], by[seg]
    hit = ax + (py - ay) / (by - ay) * (bx - ax) > px
    up = by > ay
    n = len(pts)
    return np.bincount(p[hit & up], minlength=n) - np.bincount(p[hit & ~up], minlength=n)


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


def _cut_parameters(
    segs: np.ndarray, pairs: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cuts of the segment pairs (i, j) = pairs[k], as one segment index
    array and one parameter array, each cut listed on i and on j; endpoint
    touches count.

    With r = a1 - a0, s = b1 - b0 and d = b0 - a0 for segments a = i and
    b = j: a crossing pair, |r X s| > 1e-12 |r||s|, is cut at the
    intersection of the two lines, a0 + t r = b0 + u s, when t and u are
    within eps/|r| and eps/|s| of [0, 1], clamped to it.  A parallel pair
    whose lines are within eps of each other is cut at both ends lo <= hi
    of its overlap on a (once when they are equal), paired with the
    clamped projection u of that point onto b.  Dot and cross products are
    written out as x0*y0 + x1*y1 and x0*y1 - x1*y0, so the cuts do not
    depend on the BLAS build.
    """
    i, j = pairs[:, 0], pairs[:, 1]
    a0 = segs[i, 0]
    b0 = segs[j, 0]
    r = segs[i, 1] - a0
    s = segs[j, 1] - b0
    d = b0 - a0
    rx, ry, sx, sy, dx, dy = r[:, 0], r[:, 1], s[:, 0], s[:, 1], d[:, 0], d[:, 1]
    rr = rx * rx + ry * ry
    ss = sx * sx + sy * sy
    denom = rx * sy - ry * sx
    crossing = np.abs(denom) > 1e-12 * np.sqrt(rr * ss)

    c = np.flatnonzero(crossing)
    t = (dx[c] * sy[c] - dy[c] * sx[c]) / denom[c]
    u = (dx[c] * ry[c] - dy[c] * rx[c]) / denom[c]
    tol_t = eps / np.sqrt(rr[c])
    tol_u = eps / np.sqrt(ss[c])
    hit = (-tol_t <= t) & (t <= 1.0 + tol_t) & (-tol_u <= u) & (u <= 1.0 + tol_u)
    c, t, u = c[hit], np.clip(t[hit], 0.0, 1.0), np.clip(u[hit], 0.0, 1.0)

    # parallel: collinear only if the supporting lines coincide
    p = np.flatnonzero(~crossing)
    p = p[~(np.abs(dx[p] * ry[p] - dy[p] * rx[p]) > eps * np.sqrt(rr[p]))]
    e = segs[j[p], 1] - a0[p]
    t0 = (dx[p] * rx[p] + dy[p] * ry[p]) / rr[p]
    t1 = (e[:, 0] * rx[p] + e[:, 1] * ry[p]) / rr[p]
    lo = np.maximum(np.minimum(t0, t1), 0.0)
    hi = np.minimum(np.maximum(t0, t1), 1.0)
    overlap = ~(hi < lo)
    p, lo, hi = p[overlap], lo[overlap], hi[overlap]
    two = hi != lo
    p = np.concatenate([p, p[two]])
    tp = np.concatenate([lo, hi[two]])
    q = a0[p] + tp[:, None] * r[p] - b0[p]
    up = np.clip((q[:, 0] * sx[p] + q[:, 1] * sy[p]) / ss[p], 0.0, 1.0)

    seg = np.concatenate([i[c], j[c], i[p], j[p]])
    return seg, np.concatenate([t, u, tp, up])


def _candidate_pairs(segs: np.ndarray, eps: float) -> np.ndarray:
    """(k, 2) array of the index pairs i < j, in row-major order, whose
    bounding boxes overlap once box i is inflated by 4*eps + 1e-2*|seg i|
    on every side (and box j likewise).

    Every pair for which _cut_parameters(..., eps) returns a cut is among
    them.  With r = a1 - a0, s = b1 - b0, d = b0 - a0, L = |r| + |s| and
    c = 2**-53 the unit roundoff, a computed cross product x X y is off by
    less than 6c |x||y|:

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
    so the spare factor also covers the rounding of lo and hi.

    The pairs come from a sort and sweep: with the boxes sorted by their
    lower x, the boxes after box p that overlap it in x are the run whose
    lower x is at most p's upper x.  Those pairs are then tested in y.
    Memory is O(pairs overlapping in x).
    """
    margin = (4.0 * eps + 1e-2 * np.hypot(*(segs[:, 1] - segs[:, 0]).T))[:, None]
    lo = np.minimum(segs[:, 0], segs[:, 1]) - margin
    hi = np.maximum(segs[:, 0], segs[:, 1]) + margin
    m = len(segs)
    order = np.argsort(lo[:, 0], kind="stable")
    after = np.arange(1, m + 1)
    run = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - after
    # the run of sorted box p is p + 1 .. p + run[p]; begin is its offset in
    # the flat pair list
    begin = np.cumsum(run) - run
    p = np.repeat(np.arange(m), run)
    i = order[p]
    j = order[p + 1 + np.arange(len(p)) - begin[p]]
    y = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1])
    i, j = np.minimum(i[y], j[y]), np.maximum(i[y], j[y])
    rank = np.lexsort((j, i))
    return np.stack([i[rank], j[rank]], axis=1)


def _snap(points: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Ids of points merged as _Snapper merges them, and the merged points.

    _Snapper gives a point the first representative within eps (sup norm)
    that it holds, or makes the point a new one, and ids count the
    representatives in the order they are made.  A sweep shows where that
    is more than an exact deduplication.  Sort the distinct points by x
    and split them into runs wherever consecutive x differ by more than
    eps.  Two points within eps of each other lie in one run, and when
    that run is sorted by y, every two neighbours from the one to the
    other differ by at most eps in y; rounded differences are monotone, so
    this holds for computed differences too.  In a run where no neighbours
    are that close, the only representative within eps of a point is its
    own first occurrence.  The points of the other runs go through one
    _Snapper, in input order.  Every representative within eps of such a
    point lies in its run, so that _Snapper chooses as one over all points
    would.  Its ids are taken per point, not per distinct point, because
    it can give two exact repeats different representatives.
    """
    n = len(points)
    order = np.lexsort((points[:, 1], points[:, 0]))
    sorted_pts = points[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(sorted_pts[1:] != sorted_pts[:-1], axis=1)
    distinct = sorted_pts[new]
    run = np.concatenate([[0], np.cumsum(distinct[1:, 0] - distinct[:-1, 0] > eps)])
    by_y = np.lexsort((distinct[:, 1], run))
    y, run_y = distinct[by_y, 1], run[by_y]
    close = (run_y[1:] == run_y[:-1]) & (y[1:] - y[:-1] <= eps)
    # maker[k] is the point whose coordinates point k takes; lexsort is
    # stable, so each group of repeats starts at its first occurrence
    distinct_of = np.empty(n, dtype=np.intp)
    distinct_of[order] = np.cumsum(new) - 1
    maker = order[new][distinct_of]
    if np.any(close):
        shared = np.zeros(run[-1] + 1, dtype=bool)
        shared[run_y[1:][close]] = True
        sel = np.flatnonzero(shared[run[distinct_of]])
        snap = _Snapper(eps)
        local = np.array([snap.add(p) for p in points[sel]], dtype=np.intp)
        # a point makes a representative when its id exceeds all before it
        made = np.ones(len(local), dtype=bool)
        made[1:] = local[1:] > np.maximum.accumulate(local)[:-1]
        maker[sel] = sel[made][local]
    reps = np.flatnonzero(maker == np.arange(n))
    rank = np.empty(n, dtype=np.intp)
    rank[reps] = np.arange(len(reps))
    return rank[maker], points[reps]


def _chain(poly: ClosedPolyline) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Chain stage of build_arrangement: the merged vertices, the chain's
    sub-edges tail -> head between them in chain order, and the scale."""
    segs = _segments(poly)
    scale = _poly_scale(poly)
    if len(segs) == 0:
        none = np.zeros(0, dtype=np.intp)
        return poly.vertices[:1].copy(), none, none, scale
    eps = 1e-12 * scale
    m = len(segs)

    seg, t = _cut_parameters(segs, _candidate_pairs(segs, eps), eps)
    seg = np.concatenate([np.arange(m), np.arange(m), seg])
    t = np.concatenate([np.zeros(m), np.ones(m), t])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    # an exact repeat is always dropped by the rule below, so dropping the
    # repeats first leaves the rule to run only where a gap is at most eps
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[keep], t[keep]
    d = segs[:, 1] - segs[:, 0]
    length = np.hypot(d[:, 0], d[:, 1])
    close = (seg[1:] == seg[:-1]) & ((t[1:] - t[:-1]) * length[seg[1:]] <= eps)
    if np.any(close):
        keep = np.ones(len(t), dtype=bool)
        for i in set(seg[1:][close].tolist()):
            rows = np.flatnonzero(seg == i).tolist()
            last_t = t[rows[0]]
            for k in rows[1:]:
                if (t[k] - last_t) * length[i] <= eps:
                    keep[k] = False
                else:
                    last_t = t[k]
        seg, t = seg[keep], t[keep]

    a, b = segs[seg, 0], segs[seg, 1]
    points = np.where(
        (t == 0.0)[:, None], a, np.where((t == 1.0)[:, None], b, a + t[:, None] * d[seg])
    )
    ids, verts = _snap(points, eps)

    step = (seg[1:] == seg[:-1]) & (ids[1:] != ids[:-1])
    return verts, ids[:-1][step], ids[1:][step], scale


def _faces(
    verts: np.ndarray, tail: np.ndarray, head: np.ndarray, scale: float
) -> tuple[Face, ...]:
    """Face stage of build_arrangement: the faces of the chain's sub-edges
    tail -> head over verts, with their winding numbers."""
    if len(tail) == 0:
        return ()
    nv = len(verts)
    und, edge = np.unique(np.minimum(tail, head) * nv + np.maximum(tail, head),
                          return_inverse=True)
    # times the chain runs along each edge lo->hi, less the times hi->lo
    up = tail < head
    net = np.bincount(edge[up], minlength=len(und)) - np.bincount(edge[~up], minlength=len(und))

    # half-edges: 2*i is lo->hi of und[i], 2*i+1 its twin
    lo, hi = und // nv, und % nv
    origin = np.stack([lo, hi], axis=1).ravel()
    dest = np.stack([hi, lo], axis=1).ravel()
    weight = np.stack([net, -net], axis=1).ravel().tolist()
    n_he = len(origin)

    # rings: the half-edges leaving each vertex, by angle; lexsort is
    # stable, so half-edges at one angle (overlapping edges) keep index order
    out = verts[dest] - verts[origin]
    angle = np.arctan2(out[:, 1], out[:, 0])
    ring = np.lexsort((angle, origin))
    degree = np.bincount(origin, minlength=nv)
    start = np.cumsum(degree) - degree
    pos = np.empty(n_he, dtype=np.intp)
    pos[ring] = np.arange(n_he)
    # the next half-edge of h leaves dest[h] just clockwise of h's twin
    first = start[dest]
    nxt = ring[first + (pos[np.arange(n_he) ^ 1] - first - 1) % degree[dest]].tolist()

    face_of = [-1] * n_he
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
            h = nxt[h]
        if h != h0:
            raise ArrangementError("face walk did not close on its start")
        cycles.append(walk)

    # twice a face's signed area: the shoelace terms of its half-edges
    x, y = verts[:, 0], verts[:, 1]
    terms = shoelace_terms(x[origin], y[origin], x[dest], y[dest]).tolist()
    areas = [0.5 * math.fsum([terms[h] for h in walk]) for walk in cycles]
    if abs(math.fsum(areas)) > 1e-9 * scale * scale:
        raise ArrangementError(f"face areas sum to {math.fsum(areas)!r}, expected 0")

    tol_zero = 1e-12 * scale * scale
    negatives = [f for f, a in enumerate(areas) if a < -tol_zero]
    if len(negatives) > 1:
        raise ArrangementError("multiple unbounded faces; chain is not connected")
    outer = negatives[0] if negatives else int(np.argmin(areas))

    winding: list[int | None] = [None] * len(cycles)
    winding[outer] = 0
    queue = [outer]
    while queue:
        f = queue.pop()
        for h in cycles[f]:
            g = face_of[h ^ 1]
            w = winding[f] - weight[h]
            if winding[g] is None:
                winding[g] = w
                queue.append(g)
            elif winding[g] != w:
                raise ArrangementError(
                    f"inconsistent winding at faces {f}/{g}: {winding[g]} vs {w}"
                )
    if None in winding:
        raise ArrangementError("some faces were unreachable from the outer face")

    origin_ids = origin.tolist()
    return tuple(
        Face(tuple(origin_ids[h] for h in walk), float(areas[f]), winding[f], f == outer)
        for f, walk in enumerate(cycles)
    )


def build_arrangement(poly: ClosedPolyline) -> Arrangement:
    """Planar subdivision induced by poly, with the winding number of
    every face.

    The chain stage (_chain) splits the segments at the cuts
    _cut_parameters finds with tolerance eps = 1e-12 * scale; only pairs
    from _candidate_pairs, whose inflated bounding boxes overlap, are
    tested.  Its margin, 4 eps + 1e-2 times the segment length per box,
    covers everything _cut_parameters accepts, rounding included, so the
    cuts are those of the all-pairs test.  Along each segment the cut
    parameters are taken in increasing order, and one is dropped when it
    lies within eps (times the segment length) of the last one kept.  The
    cut points are merged within eps by _snap, first-seen coordinates
    winning, so exactly representable input vertices stay exact.

    The face stage (_faces) orders the half-edges around each vertex by
    angle, and those at one angle (overlapping edges) by half-edge index,
    on every numpy build; faces are their next-edge cycles, starting from
    the lowest half-edge of each, with areas from math.fsum over their
    half-edges' shoelace terms.  Winding numbers spread from the unbounded
    face across edges weighted by how often the chain runs along them in
    each direction.
    """
    verts, tail, head, scale = _chain(poly)
    return Arrangement(verts, _faces(verts, tail, head, scale))


def winding_area(poly: ClosedPolyline) -> float:
    """integral |winding(poly, y)| dy, exact up to face-area rounding; bit
    for bit build_arrangement(poly).winding_area.

    When the chain stage gives one cycle through every vertex exactly
    once, a simple polygon, the face stage is skipped and the value is
    0.5 * |math.fsum| of the cycle's shoelace terms.  That is the face
    stage's own value.  With three or more vertices the cycle's edges are
    distinct, so every vertex has degree 2 and the face walk yields
    exactly two faces: the cycle in its two orientations.  Their
    half-edges' terms are exact negations of each other, so their areas
    are A and -A.  Those sum to 0, at most one is below -tol_zero, and the
    outer face is one of the two.  Every edge has |net| 1, so the other
    face gets winding +1 or -1 with no conflict: no ArrangementError can
    be raised, and the winding area is |A|.
    """
    return _winding_area_simple(poly)[0]


def _winding_area_simple(poly: ClosedPolyline) -> tuple[float, bool]:
    """winding_area(poly), and whether the chain stage found one simple
    cycle, the case winding_area takes in closed form.  plateau_value
    reads the flag: on a simple trace its bracket closes at the area."""
    verts, tail, head, scale = _chain(poly)
    nv = len(verts)
    if (
        nv >= 3
        and len(tail) == nv
        and np.array_equal(head, np.roll(tail, -1))
        and np.all(np.bincount(tail, minlength=nv) == 1)
    ):
        x, y = verts[:, 0], verts[:, 1]
        area = 0.5 * abs(math.fsum(shoelace_terms(x[tail], y[tail], x[head], y[head]).tolist()))
        return area, True
    return Arrangement(verts, _faces(verts, tail, head, scale)).winding_area, False


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
    slightly padded bounding box, drawn once.  The curve has zero area, so
    a sample landing on it cannot bias the estimate and none is re-drawn.
    The standard error treats cells as independent, which is conservative
    for stratified sampling.  It does not cover the pad: the box grows by
    1e-6 * scale on every side, and when few or no samples land in that
    thin strip the padded box's area is counted as covered, so the
    estimate's error can exceed `stderr` by the pad's area.  The unit
    square at resolution 32 gives 1.000004 with `stderr` 0.0.
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
    pts = np.empty((resolution * resolution, 2))
    pts[:, 0] = lo[0] + (ii.ravel() + rng.random(ii.size)) * cell[0]
    pts[:, 1] = lo[1] + (jj.ravel() + rng.random(jj.size)) * cell[1]
    w = np.abs(winding_number_many(poly, pts))
    mean = float(np.mean(w))
    std = float(np.std(w, ddof=1))
    n = len(pts)
    return GridEstimate(box_area * mean, box_area * std / math.sqrt(n), resolution, n)
