"""Output checks: every report against the generator's closed-form values.

check_report(cmd, expect, report, csv_text) returns a list of failure
messages; an empty list means the report is correct.  Tolerances are
relative to the curve's scale, so they hold for every generated size.
"""

from __future__ import annotations

import math

RADIUS = 1.0  # the CLI default, which no workload overrides
K_VALUES = [2, 4, 8, 16, 32]
N_RADII = 256
EXACT = 1e-9  # relative slack for quantities the program computes exactly
SAMPLED = 1e-3  # relative slack for polygons inscribed in curved traces


def radial_integral(radius: float, m: float) -> float:
    """integral_0^R sqrt(r^2 + m^2) dr, the graph-area integrand of a
    homogeneous extension whose profile has constant speed m."""
    if m == 0.0:
        return 0.5 * radius * radius
    root = math.hypot(radius, m)
    return 0.5 * (radius * root + m * m * math.log((radius + root) / m))


class _Checker:
    def __init__(self, scale: float):
        self.scale = max(scale, 1e-300)
        self.failures: list[str] = []

    def near(self, what: str, got, want: float, rel: float = EXACT, floor: float = 0.0):
        """|got - want| <= rel * max(|want|, floor)."""
        tol = rel * max(abs(want), floor)
        if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
            self.failures.append(f"{what} = {got!r}, expected {want!r} (tol {tol:.3g})")

    def true(self, what: str, ok: bool):
        if not ok:
            self.failures.append(what)


def _tv(e: dict) -> float:
    return e["ac"] + e["jump"] + e["cantor"]


def _trace_length(e: dict) -> float:
    return _tv(e) + e["closure_gap"]


def _bracket(c: _Checker, cert: dict):
    s2 = c.scale * c.scale
    lower, upper = cert.get("lower"), cert.get("upper")
    if not isinstance(lower, float) or not isinstance(upper, float):
        c.failures.append(f"bracket is not numeric: {cert!r}")
        return
    c.true(f"upper {upper!r} < lower {lower!r} - 1e-12*scale^2", upper >= lower - 1e-12 * s2)
    # every generated trace is a convex or star-shaped loop whose radial
    # start already attains the winding area, so the bracket closes
    c.true(f"bracket open: upper - lower = {upper - lower!r}", upper - lower <= EXACT * s2)
    c.true("gap_flag set on a closed bracket", cert.get("gap_flag") is False)


def check_report(cmd: str, expect: dict, report: dict, csv_text: str | None) -> list[str]:
    c = _Checker(expect["scale"])
    e = expect
    tv = _tv(e)
    floor = c.scale
    if cmd == "tv":
        var = report["variation"]
        for key in ("ac", "jump", "cantor"):
            c.near(f"variation.{key}", var[key], e[key], floor=floor)
        c.near("variation.total", var["total"], tv, floor=floor)
        c.near("closure_gap", report["closure_gap"], e["closure_gap"], floor=floor)
        row = csv_text.splitlines()[1].split(",") if csv_text else []
        c.true("report.csv row differs from report.json",
               [float(x) for x in row] == [var[k] for k in ("ac", "jump", "cantor", "total")])
    elif cmd == "complete":
        length = report["length"]
        want = _trace_length(e)
        if e["family"] in ("sector", "loop"):
            c.near("length", length, want, floor=floor)
        else:
            c.true(f"length {length!r} exceeds trace length {want!r}",
                   length <= want * (1.0 + EXACT))
            c.near("length", length, want, rel=SAMPLED)
        c.near("closure_gap", report["closure_gap"], e["closure_gap"], floor=floor)
        rows = csv_text.splitlines() if csv_text else []
        c.true(f"report.csv has {len(rows)} vertices, report.json says {report['n_vertices']}",
               len(rows) == report["n_vertices"] >= 3)
    elif cmd == "tangential":
        c.near("tangential_variation", report["tangential_variation"], RADIUS * tv, floor=floor)
        c.near("full_variation", report["full_variation"], RADIUS * tv, floor=floor)
    elif cmd == "slice-check":
        circle_tv = report["circle_tv"]
        c.near("exact", report["exact"], RADIUS * tv, floor=floor)
        c.near("estimate", report["estimate"], RADIUS * circle_tv, floor=floor)
        rel = abs(report["estimate"] - report["exact"]) / max(abs(report["exact"]), 1e-300)
        c.near("rel_error", report["rel_error"], rel, floor=1e-12)
        want = _trace_length(e)
        c.true(f"circle_tv {circle_tv!r} exceeds trace length {want!r}",
               circle_tv <= want * (1.0 + EXACT))
        if e["family"] == "sector":
            c.near("circle_tv", circle_tv, want, floor=floor)
        elif e["family"] == "circle":
            c.near("circle_tv", circle_tv, want, rel=SAMPLED)
        rows = csv_text.splitlines() if csv_text else []
        c.true(f"report.csv has {len(rows) - 1} radii, expected {N_RADII}",
               len(rows) == N_RADII + 1)
    elif cmd == "area":
        graph, sing, cert = report["graph_area"], report["singular"], report["plateau"]
        c.near("graph_area", graph, math.pi * RADIUS * RADIUS)
        c.near("singular", sing, RADIUS * (e["jump"] + e["cantor"]), floor=floor)
        c.near("plateau.lower", cert["lower"], e["winding_area"], rel=1e-12,
               floor=c.scale * c.scale)
        _bracket(c, cert)
        c.near("relaxed_lower", report["relaxed_lower"], graph + sing + cert["lower"])
        c.near("relaxed_upper", report["relaxed_upper"], graph + sing + cert["upper"])
    elif cmd == "plateau":
        cert, grid = report["plateau"], report["winding_grid"]
        c.near("plateau.lower", cert["lower"], e["winding_area"], rel=1e-4)
        c.true(f"lower {cert['lower']!r} is more than 4 standard errors from the grid "
               f"estimate {grid['value']!r} +- {grid['stderr']!r}",
               abs(cert["lower"] - grid["value"]) <= 4.0 * grid["stderr"])
        _bracket(c, cert)
    elif cmd == "verify-recovery":
        flags = report["flags"]
        for name, value in sorted(flags.items()):
            c.true(f"flag {name} is {value!r}", value is True)
        c.true(f"k_values {report['k_values']!r}", report["k_values"] == K_VALUES)
        c.near("tv_target", report["tv_target"], RADIUS * tv, floor=floor)
        # constant-speed circle: graph term 2*pi*F_R(r) plus the winding area
        speed = e["ac"] / (2.0 * math.pi)
        c.near("area_target", report["area_target"],
               2.0 * math.pi * radial_integral(RADIUS, speed) + e["winding_area"], rel=1e-4)
        rows = csv_text.splitlines() if csv_text else []
        c.true(f"report.csv has {len(rows) - 1} rows, expected {len(K_VALUES)}",
               len(rows) == len(K_VALUES) + 1)
    else:
        c.failures.append(f"no check for command {cmd!r}")
    return c.failures
