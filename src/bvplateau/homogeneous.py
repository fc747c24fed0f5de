"""Energy bookkeeping for the angle-homogeneous extension u(x) = curve(x/|x|).

On the disk of radius R the graph-area integrand of the extension is
sqrt(1 + |curve'(theta)|^2 / r^2), whose radial integral has the closed
form

    F_R(m) = integral_0^R sqrt(r^2 + m^2) dr
           = (R sqrt(R^2 + m^2) + m^2 log((R + sqrt(R^2 + m^2)) / m)) / 2

with F_R(0) = R^2 / 2.  Curve speed is piecewise constant in this data
model (cumulative allocations are piecewise linear), so summing
width * F_R(speed) over density cells evaluates the graph term exactly,
with no quadrature error.

Jump and Cantor mass are carried by radial segments of the graph and
contribute R times their mass; the leftover concentration at the origin
is the Plateau bracket of the completed curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, evaluate_many, total_variation
from .meshing import TriMesh
from .plateau import PlateauCertificate, PlateauOptions, origin_value, plateau_value


@dataclass(frozen=True)
class ExtensionParams:
    radius: float = 1.0
    nodes: int = 4096

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.nodes < 64:
            raise ValueError("nodes must be at least 64")


@dataclass(frozen=True)
class EnergyReport:
    """Relaxed graph area of the extension, split by origin of mass.

    relaxed_lower/upper differ only through plateau, the bracket of the
    completed curve; its gap_flag marks upper > GAP_RATIO * lower + 1e-9.
    """

    graph_area: float
    singular: float
    plateau: PlateauCertificate
    relaxed_lower: float
    relaxed_upper: float


def radial_integral(radius: float, m: float) -> float:
    """F_R(m) above; exact closed form."""
    if m < 0.0:
        raise ValueError("speed must be nonnegative")
    if m < 1e-14 * radius:
        return 0.5 * radius * radius
    root = math.sqrt(radius * radius + m * m)
    return 0.5 * (radius * root + m * m * math.log((radius + root) / m))


def graph_area_term(curve: Curve, params: ExtensionParams) -> float:
    """Area of the graph over the punctured disk, absolutely continuous
    part only; exact cell-by-cell evaluation."""
    R = params.radius
    terms = []
    for arc in curve.arcs:
        edges, masses = arc.ac.density_cells()
        widths = np.diff(edges) * arc.width
        for w, mass in zip(widths, masses):
            if w <= 0.0:
                continue
            terms.append(w * radial_integral(R, float(mass) / w))
    return math.fsum(terms)


def singular_term(curve: Curve, params: ExtensionParams) -> float:
    """Jump and Cantor mass swept radially: R * (jump + cantor)."""
    dec = total_variation(curve)
    return params.radius * (dec.jump + dec.cantor)


def total_variation_Du(curve: Curve, params: ExtensionParams) -> float:
    """Mass |Du|(B_R) of the extension's derivative: R * TV(curve)."""
    return params.radius * total_variation(curve).total


def tangential_variation(curve: Curve, params: ExtensionParams, eps: float = 0.0) -> float:
    """Variation of u along circles, integrated over radii in (eps, R)."""
    if not 0.0 <= eps < params.radius:
        raise ValueError("need 0 <= eps < radius")
    return (params.radius - eps) * total_variation(curve).total


def relaxed_area(
    curve: Curve,
    params: ExtensionParams = ExtensionParams(),
    plateau_options: PlateauOptions = PlateauOptions(),
) -> EnergyReport:
    """Relaxed graph area of the extension on B_R under strict convergence:
    graph term + R * (jump + cantor) + Plateau bracket of the completion."""
    graph = graph_area_term(curve, params)
    sing = singular_term(curve, params)
    cert = plateau_value(curve, plateau_options)
    return EnergyReport(graph, sing, cert, graph + sing + cert.lower, graph + sing + cert.upper)


def sample_extension(mesh: TriMesh, curve: Curve) -> np.ndarray:
    """Vertex values of the homogeneous extension on a disk mesh.

    The origin, where the extension has no trace, gets
    plateau.origin_value, the start value of every profile filler.
    """
    v = mesh.vertices
    r = np.linalg.norm(v, axis=1)
    ang = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2 * math.pi)
    vals = evaluate_many(curve, ang)
    at_origin = r == 0.0
    if np.any(at_origin):
        vals[at_origin] = origin_value(curve)
    return vals
