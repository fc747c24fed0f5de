"""SVG emission: well-formed markup, shading semantics, determinism."""

import xml.etree.ElementTree as ET

import numpy as np

from bvplateau.curves import ClosedPolyline
from bvplateau.meshing import make_disk_mesh
from bvplateau.plateau import DiscreteMap
from bvplateau.svgout import curve_svg, mesh_svg

SQUARE = ClosedPolyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
DOUBLE_SQUARE = ClosedPolyline(
    np.array(
        [
            [0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 0.0],
            [0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5],
        ]
    )
)


def _faces(svg: str):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [el for el in root.iter(f"{ns}polygon") if el.get("opacity") is not None]


def test_curve_svg_well_formed_single_face():
    svg = curve_svg(SQUARE)
    faces = _faces(svg)
    assert len(faces) == 1
    assert float(faces[0].get("opacity")) == 0.3


def test_curve_svg_opacity_grows_with_winding():
    svg = curve_svg(DOUBLE_SQUARE)
    ops = sorted(float(f.get("opacity")) for f in _faces(svg))
    assert len(ops) == 2
    assert ops[0] == 0.3 and ops[1] == 0.6


def test_curve_svg_deterministic():
    assert curve_svg(DOUBLE_SQUARE) == curve_svg(DOUBLE_SQUARE)


def test_mesh_svg_constant_map_single_color():
    mesh = make_disk_mesh(1.0, 0.3)
    svg = mesh_svg(DiscreteMap(mesh, np.ones((mesh.n_vertices, 2))))
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    fills = {el.get("fill") for el in root.iter(f"{ns}polygon")}
    assert len(fills) == 1
    assert len(list(root.iter(f"{ns}polygon"))) == len(mesh.triangles)


def test_mesh_svg_magnitude_varies_color():
    mesh = make_disk_mesh(1.0, 0.3)
    svg = mesh_svg(DiscreteMap(mesh, mesh.vertices.copy()))
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    fills = {el.get("fill") for el in root.iter(f"{ns}polygon")}
    assert len(fills) > 3


def test_mesh_svg_zero_map():
    mesh = make_disk_mesh(1.0, 0.4)
    svg = mesh_svg(DiscreteMap(mesh, np.zeros((mesh.n_vertices, 2))))
    ET.fromstring(svg)
