"""Piecewise BV curves on the circle.

A curve is a circularly ordered list of arcs and jumps whose angle
intervals tile [0, 2*pi).  Each arc carries a unit-speed geometric trace
(polyline, circle arc, or a single point) together with two nondecreasing
cumulative allocations of its arclength: an absolutely continuous part and
a Cantor part.  Jumps sit at single angles with explicit one-sided values.

Trace continuity is required at every internal piece boundary.  The single
boundary where the list closes on itself (the start of the first piece) is
allowed to carry a mismatch; the gap is recorded on the curve, excluded
from the variation decomposition, and closed by a straight chord when the
curve is completed to a polyline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .geometry import TWO_PI, normalize_angle

# tolerance for geometric identities (computed lengths, trace continuity);
# cumulative monotonicity is checked strictly, with no epsilon
REL_TOL = 1e-9
ANGLE_TOL = 1e-9


class CurveValidationError(ValueError):
    """Structural validation failure; `kind` is a stable machine tag."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


# ---------------------------------------------------------------------------
# cumulative allocations


@dataclass(frozen=True, eq=False)
class CumulativeVariation:
    """Nondecreasing mass profile over an arc's angle interval.

    `kind` is "linear" (profile total * x) or "sampled" (piecewise linear
    through `samples` on a uniform grid over the interval; samples start at
    0 and end at `total`).  The argument x is the relative position in
    [0, 1] within the arc's angle interval.
    """

    kind: Literal["linear", "sampled"]
    total: float
    samples: np.ndarray | None = None

    def value_at(self, x):
        x = np.clip(x, 0.0, 1.0)
        if self.kind == "linear":
            return self.total * x
        grid = np.linspace(0.0, 1.0, len(self.samples))
        return np.interp(x, grid, self.samples)

    def density_cells(self):
        """(relative cell edges, per-cell density * width-normalised).

        Returns (edges in [0,1], masses per cell).  The profile is exactly
        piecewise linear, so the density is exactly piecewise constant.
        """
        if self.kind == "linear":
            return np.array([0.0, 1.0]), np.array([self.total])
        edges = np.linspace(0.0, 1.0, len(self.samples))
        return edges, np.diff(np.asarray(self.samples, dtype=float))

    def check(self, where: str) -> None:
        if self.kind == "linear":
            if self.samples is not None:
                raise CurveValidationError(
                    "cumulative-samples", f"{where}: linear cumulative carries samples"
                )
            if not (self.total >= 0.0):
                raise CurveValidationError(
                    "negative-mass", f"{where}: total {self.total!r} is negative"
                )
            return
        if self.kind != "sampled":
            raise CurveValidationError("cumulative-kind", f"{where}: {self.kind!r}")
        s = self.samples
        if s is None or len(s) < 2:
            raise CurveValidationError(
                "cumulative-samples", f"{where}: sampled cumulative needs >= 2 samples"
            )
        if s[0] != 0.0:
            raise CurveValidationError(
                "cumulative-samples", f"{where}: samples must start at 0, got {s[0]!r}"
            )
        if s[-1] != self.total:
            raise CurveValidationError(
                "cumulative-samples",
                f"{where}: last sample {s[-1]!r} != total {self.total!r}",
            )
        if np.any(np.diff(s) < 0.0):
            i = int(np.argmax(np.diff(s) < 0.0))
            raise CurveValidationError(
                "nonmonotone-cumulative",
                f"{where}: samples decrease at index {i} ({s[i]!r} -> {s[i + 1]!r})",
            )


def linear_mass(total: float) -> CumulativeVariation:
    return CumulativeVariation("linear", float(total))


def sampled_mass(samples) -> CumulativeVariation:
    s = np.asarray(samples, dtype=float)
    return CumulativeVariation("sampled", float(s[-1]), s)


ZERO_MASS = linear_mass(0.0)


def _restrict_cumulative(
    c: CumulativeVariation, x0: float, x1: float
) -> CumulativeVariation:
    lo = float(c.value_at(x0))
    hi = float(c.value_at(x1))
    if c.kind == "linear":
        return linear_mass(hi - lo)
    if hi - lo == 0.0:
        return ZERO_MASS
    n_cells = max(8, int(math.ceil((len(c.samples) - 1) * (x1 - x0))))
    xs = np.linspace(x0, x1, n_cells + 1)
    vals = np.asarray(c.value_at(xs), dtype=float) - lo
    vals[0] = 0.0
    vals[-1] = hi - lo
    return sampled_mass(np.maximum.accumulate(vals))


# ---------------------------------------------------------------------------
# geometric traces


@dataclass(frozen=True, eq=False)
class PolylinePath:
    points: np.ndarray  # (n, 2)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_cum", cum)

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def point_at_arclength(self, s):
        s = np.clip(s, 0.0, self.length)
        x = np.interp(s, self._cum, self.points[:, 0])
        y = np.interp(s, self._cum, self.points[:, 1])
        return np.stack([x, y], axis=-1)

    def sample_arclengths(self, n: int) -> np.ndarray:
        # corners always kept: inscribed length is exact once n covers them
        uniform = np.linspace(0.0, self.length, max(2, n))
        return np.union1d(uniform, self._cum)

    def restrict(self, s0: float, s1: float) -> "PathType":
        if s1 <= s0:
            return PointPath(self.point_at_arclength(s0))
        inner = self._cum[(self._cum > s0) & (self._cum < s1)]
        svals = np.concatenate([[s0], inner, [s1]])
        return PolylinePath(self.point_at_arclength(svals))


@dataclass(frozen=True, eq=False)
class CircleArcPath:
    center: np.ndarray
    radius: float
    phi0: float
    phi1: float  # phi1 < phi0 traverses clockwise

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def length(self) -> float:
        return self.radius * abs(self.phi1 - self.phi0)

    def _phi(self, s):
        sign = 1.0 if self.phi1 >= self.phi0 else -1.0
        return self.phi0 + sign * np.asarray(s) / self.radius

    @property
    def start(self) -> np.ndarray:
        return self.point_at_arclength(0.0)

    @property
    def end(self) -> np.ndarray:
        return self.point_at_arclength(self.length)

    def point_at_arclength(self, s):
        phi = self._phi(np.clip(s, 0.0, self.length))
        return self.center + self.radius * np.stack(
            [np.cos(phi), np.sin(phi)], axis=-1
        )

    def sample_arclengths(self, n: int) -> np.ndarray:
        return np.linspace(0.0, self.length, max(2, n))

    def restrict(self, s0: float, s1: float) -> "PathType":
        if s1 <= s0:
            return PointPath(self.point_at_arclength(s0))
        return CircleArcPath(
            self.center, self.radius, float(self._phi(s0)), float(self._phi(s1))
        )


@dataclass(frozen=True, eq=False)
class PointPath:
    at: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "at", np.asarray(self.at, dtype=float))

    @property
    def length(self) -> float:
        return 0.0

    @property
    def start(self) -> np.ndarray:
        return self.at

    @property
    def end(self) -> np.ndarray:
        return self.at

    def point_at_arclength(self, s):
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(self.at, s.shape + (2,)).copy()

    def sample_arclengths(self, n: int) -> np.ndarray:
        return np.array([0.0])

    def restrict(self, s0: float, s1: float) -> "PointPath":
        return self


PathType = Union[PolylinePath, CircleArcPath, PointPath]


# ---------------------------------------------------------------------------
# pieces


@dataclass(frozen=True, eq=False)
class Arc:
    """Arc over [theta0, theta1] (theta1 may exceed 2*pi on the wrap piece)."""

    theta0: float
    theta1: float
    path: PathType
    ac: CumulativeVariation
    cantor: CumulativeVariation = ZERO_MASS

    @property
    def width(self) -> float:
        return self.theta1 - self.theta0

    @property
    def mass(self) -> float:
        return self.ac.total + self.cantor.total

    def arclength_at_rel(self, x):
        x = np.clip(x, 0.0, 1.0)
        return self.ac.value_at(x) + self.cantor.value_at(x)

    def value_at_rel(self, x):
        return self.path.point_at_arclength(self.arclength_at_rel(x))

    @property
    def start_value(self) -> np.ndarray:
        return self.path.start

    @property
    def end_value(self) -> np.ndarray:
        return self.path.point_at_arclength(self.mass)

    def restrict_rel(self, x0: float, x1: float, theta0: float, theta1: float) -> "Arc":
        """Sub-arc over relative positions [x0, x1], re-labelled [theta0, theta1]."""
        ac0 = float(self.ac.value_at(x0)) + float(self.cantor.value_at(x0))
        ac1 = float(self.ac.value_at(x1)) + float(self.cantor.value_at(x1))
        path = self.path.restrict(ac0, ac1)
        return Arc(
            theta0,
            theta1,
            path,
            _restrict_cumulative(self.ac, x0, x1),
            _restrict_cumulative(self.cantor, x0, x1),
        )


@dataclass(frozen=True, eq=False)
class Jump:
    theta: float
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "left", np.asarray(self.left, dtype=float))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=float))

    @property
    def size(self) -> float:
        return float(np.hypot(*(self.right - self.left)))


Piece = Union[Arc, Jump]


@dataclass(frozen=True, eq=False)
class Curve:
    """Piecewise curve.  Run validate() before trusting one."""

    pieces: tuple[Piece, ...]
    closure_gap: float = 0.0

    @property
    def arcs(self) -> list[Arc]:
        return [p for p in self.pieces if isinstance(p, Arc)]

    @property
    def jumps(self) -> list[Jump]:
        return [p for p in self.pieces if isinstance(p, Jump)]

    def scale(self) -> float:
        """Rough trace extent, for relative tolerances."""
        pts = []
        for p in self.pieces:
            if isinstance(p, Arc):
                pts.append(np.asarray(p.start_value))
                pts.append(np.asarray(p.end_value))
            else:
                pts.append(p.left)
                pts.append(p.right)
        pts = np.asarray(pts)
        ext = pts.max(axis=0) - pts.min(axis=0)
        return max(1.0, float(ext.max()))


@dataclass(frozen=True)
class VariationDecomposition:
    ac: float
    jump: float
    cantor: float
    total: float


# ---------------------------------------------------------------------------
# layout: unwrapped coordinates for piece lookup

# Pieces are laid out consecutively on [base, base + 2*pi], base being the
# first piece's start folded into [0, 2*pi).  Declared arc angles may sit a
# full turn off from these coordinates on curves that wrap, so all lookup
# goes through the layout's own start positions.


@dataclass(frozen=True, eq=False)
class _Layout:
    base: float
    arc_list: list[Arc]
    arc_starts: np.ndarray
    arc_ends: np.ndarray
    jump_positions: list[tuple[float, Jump]]


def _layout(curve: Curve) -> _Layout:
    first = curve.pieces[0]
    base = normalize_angle(first.theta0 if isinstance(first, Arc) else first.theta)
    pos = base
    arcs, starts, ends, jumps = [], [], [], []
    for p in curve.pieces:
        if isinstance(p, Arc):
            arcs.append(p)
            starts.append(pos)
            pos += p.width
            ends.append(pos)
        else:
            jumps.append((pos, p))
    return _Layout(base, arcs, np.asarray(starts), np.asarray(ends), jumps)


def _unwrap(lay: _Layout, theta, side: str):
    x = np.mod(np.asarray(theta, dtype=float) - lay.base, TWO_PI)
    if side == "left":
        x = np.where(x == 0.0, TWO_PI, x)
    return lay.base + x


# ---------------------------------------------------------------------------
# operations


def validate(curve: Curve) -> Curve:
    """Check structure and return the curve with its closure gap recorded.

    Raises CurveValidationError on: empty piece list, nonpositive arc
    widths, tiling failure, zero-length jumps, adjacent jumps, nonmonotone
    or inconsistent cumulatives, arc mass differing from the geometric path
    length, and trace discontinuities at internal boundaries.
    """
    pieces = tuple(curve.pieces)
    if not pieces:
        raise CurveValidationError("empty", "curve has no pieces")

    scale = Curve(pieces).scale()
    point_tol = REL_TOL * scale

    width_sum = 0.0
    for i, p in enumerate(pieces):
        if isinstance(p, Arc):
            if not (p.width > 0.0):
                raise CurveValidationError(
                    "empty-interval", f"piece {i}: arc width {p.width!r} <= 0"
                )
            width_sum += p.width
            p.ac.check(f"piece {i} ac")
            p.cantor.check(f"piece {i} cantor")
            plen = p.path.length
            if plen == 0.0 and p.mass > 0.0:
                raise CurveValidationError(
                    "mass-mismatch", f"piece {i}: point path with mass {p.mass!r}"
                )
            if abs(p.mass - plen) > REL_TOL * max(1.0, plen):
                raise CurveValidationError(
                    "mass-mismatch",
                    f"piece {i}: ac.total + cantor.total = {p.mass!r} but path "
                    f"length = {plen!r}",
                )
        else:
            if not (p.size > 0.0):
                raise CurveValidationError(
                    "zero-jump", f"piece {i}: jump at {p.theta!r} has size 0"
                )
            if len(pieces) > 1 and isinstance(pieces[i - 1], Jump):
                raise CurveValidationError(
                    "adjacent-jumps",
                    f"pieces {i - 1},{i}: consecutive jumps; merge them",
                )
    if abs(width_sum - TWO_PI) > ANGLE_TOL:
        raise CurveValidationError(
            "tiling", f"arc widths sum to {width_sum!r}, expected 2*pi"
        )

    # angle continuity around the circle, including last -> first
    for i, p in enumerate(pieces):
        q = pieces[(i + 1) % len(pieces)]
        end = p.theta1 if isinstance(p, Arc) else p.theta
        start = q.theta0 if isinstance(q, Arc) else q.theta
        d = abs(normalize_angle(start) - normalize_angle(end))
        if min(d, TWO_PI - d) > ANGLE_TOL:
            raise CurveValidationError(
                "tiling",
                f"piece {i} ends at angle {end!r} but piece "
                f"{(i + 1) % len(pieces)} starts at {start!r}",
            )

    def end_value(i: int) -> np.ndarray:
        p = pieces[i]
        return np.asarray(p.end_value if isinstance(p, Arc) else p.right)

    def next_start(i: int) -> np.ndarray:
        q = pieces[(i + 1) % len(pieces)]
        return np.asarray(q.start_value if isinstance(q, Arc) else q.left)

    # trace continuity at internal boundaries; the closing boundary may
    # carry a gap (recorded, not an error)
    for i in range(len(pieces) - 1):
        gap = float(np.hypot(*(next_start(i) - end_value(i))))
        if gap > point_tol:
            raise CurveValidationError(
                "trace-discontinuity",
                f"pieces {i} -> {i + 1}: endpoint gap {gap!r} with no declared jump",
            )
    closure = float(np.hypot(*(next_start(len(pieces) - 1) - end_value(len(pieces) - 1))))
    if closure <= point_tol:
        closure = 0.0
    return Curve(pieces, closure_gap=closure)


def total_variation(curve: Curve) -> VariationDecomposition:
    """Split the total variation into ac, jump and Cantor masses.

    The closure gap of an open trace is not variation and is excluded.
    """
    ac = math.fsum(a.ac.total for a in curve.arcs)
    jump = math.fsum(j.size for j in curve.jumps)
    cantor = math.fsum(a.cantor.total for a in curve.arcs)
    return VariationDecomposition(ac, jump, cantor, ac + jump + cantor)


def evaluate_many(curve: Curve, thetas, side: str = "right") -> np.ndarray:
    """Vectorised one-sided evaluation; returns an (n, 2) array."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    lay = _layout(curve)
    u = np.atleast_1d(_unwrap(lay, thetas, side))
    idx = np.searchsorted(lay.arc_starts, u, side=side) - 1
    idx = np.clip(idx, 0, len(lay.arc_list) - 1)
    out = np.empty((len(u), 2))
    for i, arc in enumerate(lay.arc_list):
        m = idx == i
        if np.any(m):
            x = (u[m] - lay.arc_starts[i]) / arc.width
            out[m] = arc.value_at_rel(x)
    return out


# ---------------------------------------------------------------------------
# closed polylines


@dataclass(frozen=True, eq=False)
class ClosedPolyline:
    """Closed vertex chain with constant-speed parametrisation over [0, 2*pi)."""

    vertices: np.ndarray  # (n, 2), first row equals last row

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        if len(v) < 2 or not np.array_equal(v[0], v[-1]):
            v = np.vstack([v, v[:1]])
        object.__setattr__(self, "vertices", v)
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_cum", cum)

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    @property
    def is_degenerate(self) -> bool:
        return self.length == 0.0

    def point_at(self, theta):
        """Constant-speed parametrisation; theta taken modulo 2*pi."""
        t = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        s = self.length * t / TWO_PI
        x = np.interp(s, self._cum, self.vertices[:, 0])
        y = np.interp(s, self._cum, self.vertices[:, 1])
        return np.stack([x, y], axis=-1)

    def vertex_angles(self) -> np.ndarray:
        """Parameter angles of the vertices (closing duplicate dropped)."""
        if self.is_degenerate:
            return np.array([0.0])
        return TWO_PI * self._cum[:-1] / self.length


def completed_curve(curve: Curve, n_vertices: int = 256) -> ClosedPolyline:
    """Trace of the curve with jumps (and any closure gap) filled by chords.

    Vertex budgets are proportional to variation mass with a floor of two
    per piece; polyline corners are always kept, so the result's length is
    nondecreasing in n_vertices and converges to the total variation (plus
    the closure gap for open traces).
    """
    if n_vertices < 2:
        raise ValueError("n_vertices must be >= 2")
    render: list[tuple[str, object, float]] = []
    for p in curve.pieces:
        if isinstance(p, Arc):
            render.append(("arc", p, p.mass))
        else:
            render.append(("seg", (p.left, p.right), p.size))
    if curve.closure_gap > 0.0:
        last = curve.pieces[-1]
        last_end = np.asarray(last.end_value if isinstance(last, Arc) else last.right)
        first = curve.pieces[0]
        first_start = np.asarray(
            first.start_value if isinstance(first, Arc) else first.left
        )
        render.append(("seg", (last_end, first_start), curve.closure_gap))

    total = math.fsum(m for _, _, m in render)
    if total == 0.0:
        p0 = render[0][1].start_value if render[0][0] == "arc" else render[0][1][0]
        return ClosedPolyline(np.array([p0, p0]))

    chunks: list[np.ndarray] = []
    for kind, obj, mass in render:
        if mass == 0.0:
            if kind == "arc":
                chunks.append(np.asarray(obj.start_value).reshape(1, 2))
            continue
        budget = max(2, int(math.ceil(n_vertices * mass / total)))
        if kind == "arc":
            svals = obj.path.sample_arclengths(budget)
            chunks.append(obj.path.point_at_arclength(svals))
        else:
            a, b = obj
            t = np.linspace(0.0, 1.0, budget)[:, None]
            chunks.append((1.0 - t) * np.asarray(a) + t * np.asarray(b))

    verts = [chunks[0][0]]
    for ch in chunks:
        for q in ch:
            if np.hypot(*(q - verts[-1])) > 0.0:
                verts.append(q)
    if np.any(verts[-1] != verts[0]):
        verts.append(verts[0])
    return ClosedPolyline(np.asarray(verts))


# ---------------------------------------------------------------------------
# mollification


def _pl_interpolant(c: CumulativeVariation, cells: int) -> CumulativeVariation:
    # a profile is already piecewise linear on its own grid (one cell when
    # linear), so finer grids than that would only cost memory
    cells = 1 if c.kind == "linear" else min(cells, len(c.samples) - 1)
    xs = np.linspace(0.0, 1.0, cells + 1)
    vals = np.asarray(c.value_at(xs), dtype=float)
    vals[0] = 0.0
    vals[-1] = c.total
    return sampled_mass(np.maximum.accumulate(vals))


def _combine_ac(ac: CumulativeVariation, cantor: CumulativeVariation, cells: int):
    """ac plus the piecewise-linear interpolant of the Cantor profile."""
    if cantor.total == 0.0:
        return ac
    cantor_pl = _pl_interpolant(cantor, cells)
    n = len(cantor_pl.samples) - 1
    if ac.kind == "sampled":
        n = max(n, len(ac.samples) - 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    vals = np.asarray(ac.value_at(xs), dtype=float) + np.asarray(
        cantor_pl.value_at(xs), dtype=float
    )
    vals[0] = 0.0
    vals[-1] = ac.total + cantor_pl.total
    return sampled_mass(np.maximum.accumulate(vals))


def _recut_inside_arc(curve: Curve) -> Curve:
    """Rotate the piece list so it opens inside the widest arc.

    Only meaningful for closed traces: afterwards every jump is strictly
    interior to the unwrapped span, so transition windows never touch the
    list boundary.
    """
    lay = _layout(curve)
    widths = lay.arc_ends - lay.arc_starts
    k = int(np.argmax(widths))
    arc = lay.arc_list[k]
    i = curve.pieces.index(arc)
    mid_u = 0.5 * (lay.arc_starts[k] + lay.arc_ends[k])
    head = arc.restrict_rel(0.0, 0.5, arc.theta0, float(mid_u))
    tail = arc.restrict_rel(0.5, 1.0, float(mid_u), arc.theta1)
    pieces = (tail,) + curve.pieces[i + 1 :] + curve.pieces[:i] + (head,)
    return validate(Curve(pieces))


def mollify_sequence(curve: Curve, k: int) -> Curve:
    """Lipschitz approximant: jumps become linear transitions on shrinking
    angle windows of width min(2*pi/(8*#jumps), 1/k); Cantor allocations
    become their piecewise-linear interpolants on min(2**k, n) subintervals,
    n the number of cells the profile is sampled on (1 for a linear one).

    Absolutely continuous curves come back unchanged.  Windows are clamped
    away from neighbouring jump angles (and from the closing boundary of an
    open trace) so they never overlap, which keeps the total variation of
    the result bounded by that of the input.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dec = total_variation(curve)
    if dec.jump == 0.0 and dec.cantor == 0.0:
        return curve

    cells = 2**k
    if not curve.jumps:
        new_pieces: list[Piece] = []
        for p in curve.pieces:
            ac = _combine_ac(p.ac, p.cantor, cells)
            new_pieces.append(Arc(p.theta0, p.theta1, p.path, ac))
        return validate(Curve(tuple(new_pieces)))

    if curve.closure_gap == 0.0:
        curve = _recut_inside_arc(curve)
    lay = _layout(curve)
    jp = np.asarray([pos for pos, _ in lay.jump_positions])

    w = min(TWO_PI / (8 * len(jp)), 1.0 / k)
    gaps_next = np.diff(np.concatenate([jp, [jp[0] + TWO_PI]]))
    gaps_prev = np.roll(gaps_next, 1)
    halves = 0.5 * np.minimum(w, 0.999 * np.minimum(gaps_prev, gaps_next))
    halves = np.minimum(halves, 0.999 * (jp - lay.base))
    halves = np.minimum(halves, 0.999 * (lay.base + TWO_PI - jp))
    windows = [(float(t - h), float(t + h)) for t, h in zip(jp, halves)]

    new_pieces = []
    win_iter = iter(windows)
    cur_win = next(win_iter, None)
    transition_open: tuple[float, np.ndarray] | None = None

    def push_arc(arc: Arc, a0: float, a1: float, u0: float, u1: float):
        if u1 - u0 <= 0.0:
            return
        width = a1 - a0
        sub = arc.restrict_rel((u0 - a0) / width, (u1 - a0) / width, u0, u1)
        ac = _combine_ac(sub.ac, sub.cantor, cells)
        new_pieces.append(Arc(sub.theta0, sub.theta1, sub.path, ac))

    for a0, a1, arc in zip(lay.arc_starts, lay.arc_ends, lay.arc_list):
        u = float(a0)
        while cur_win is not None and cur_win[0] < a1:
            lo, hi = cur_win
            if transition_open is None:
                if lo > u:
                    push_arc(arc, a0, a1, u, lo)
                x = (max(lo, a0) - a0) / (a1 - a0)
                transition_open = (lo, np.asarray(arc.value_at_rel(x)))
            if hi <= a1:
                t0, v0 = transition_open
                v1 = np.asarray(arc.value_at_rel((hi - a0) / (a1 - a0)))
                seg = float(np.hypot(*(v1 - v0)))
                if hi > t0:
                    if seg > 0.0:
                        path = PolylinePath(np.array([v0, v1]))
                        new_pieces.append(Arc(t0, hi, path, linear_mass(seg)))
                    else:
                        new_pieces.append(Arc(t0, hi, PointPath(v0), ZERO_MASS))
                transition_open = None
                u = float(hi)
                cur_win = next(win_iter, None)
            else:
                break
        if transition_open is None and u < a1:
            push_arc(arc, a0, a1, u, a1)

    return validate(Curve(tuple(new_pieces)))


def l1_distance(a: Curve, b: Curve, nodes: int = 4096) -> float:
    """Midpoint-quadrature L1 distance on the circle between two curves."""
    mids = (np.arange(nodes) + 0.5) * TWO_PI / nodes
    va = evaluate_many(a, mids)
    vb = evaluate_many(b, mids)
    d = np.linalg.norm(va - vb, axis=1)
    return float(np.sum(d) * TWO_PI / nodes)
