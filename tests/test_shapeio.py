import json

import numpy as np
import pytest

from selfmetric.geometry import Polygon2, PolytopeN, RadiusProfile, cube
from selfmetric.shapeio import (ShapeFormatError, bodies_equal, density_from_dict,
                                density_to_dict, load_density, load_shape,
                                save_shape, shape_from_dict, shape_to_dict)
from selfmetric.svgplot import polar_svg


def test_polygon_round_trip(tmp_path):
    poly = Polygon2([[0, 0], [2, 0], [1, 2]])
    path = tmp_path / "tri.json"
    save_shape(poly, path)
    back = load_shape(path)
    assert isinstance(back, Polygon2)
    assert bodies_equal(poly, back)


def test_polytope_round_trip(tmp_path):
    body = cube(3)
    path = tmp_path / "cube.json"
    save_shape(body, path)
    back = load_shape(path)
    assert isinstance(back, PolytopeN)
    assert bodies_equal(body, back)


def test_profile_round_trip(tmp_path):
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (3, 0.02, -0.01)])
    path = tmp_path / "prof.json"
    save_shape(prof, path)
    back = load_shape(path)
    assert isinstance(back, RadiusProfile)
    assert bodies_equal(prof, back)


def test_bodies_equal_ignores_vertex_rotation():
    a = Polygon2([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = Polygon2([[1, 0], [1, 1], [0, 1], [0, 0]])
    assert bodies_equal(a, b)
    c = Polygon2([[0, 0], [1, 0], [1, 1], [0, 1.5]])
    assert not bodies_equal(a, c)
    assert not bodies_equal(a, cube(2))


def test_missing_type_field():
    with pytest.raises(ShapeFormatError) as err:
        shape_from_dict({"vertices": [[0, 0], [1, 0], [0, 1]]})
    assert err.value.field == "type"


def test_bad_vertex_reports_path():
    with pytest.raises(ShapeFormatError) as err:
        shape_from_dict({"type": "polygon2", "vertices": [[0, 0], [1, "x"], [0, 1]]})
    assert "vertices[1]" in err.value.field


def test_polytope_dim_mismatch():
    with pytest.raises(ShapeFormatError):
        shape_from_dict({"type": "polytope", "dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]})


def test_unknown_type_rejected():
    with pytest.raises(ShapeFormatError):
        shape_from_dict({"type": "blob", "vertices": []})


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ShapeFormatError):
        load_shape(path)


def test_profile_coeff_triple_validation():
    with pytest.raises(ShapeFormatError) as err:
        shape_from_dict({"type": "radius_profile", "coeffs": [[0, 1.0]]})
    assert "coeffs[0]" in err.value.field


def test_density_round_trip_and_epsilon_override(tmp_path):
    doc = {"coeffs": [[4, 1.0, 0.0], [8, 0.25, -0.1]], "epsilon": 0.01}
    phi = density_from_dict(doc)
    assert phi.epsilon == 0.01
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(density_to_dict(phi)))
    again = load_density(path)
    assert again.epsilon == 0.01
    overridden = load_density(path, epsilon=0.5)
    assert overridden.epsilon == 0.5
    assert np.allclose(overridden.coeffs, phi.coeffs)


def test_density_requires_epsilon():
    with pytest.raises(ShapeFormatError):
        density_from_dict({"coeffs": [[4, 1.0, 0.0]]})


def test_polar_svg_structure():
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (4, 0.02, 0.0)])
    svg = polar_svg(prof, title="a < b")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'width="480"' in svg
    assert "a &lt; b" in svg
    assert "stroke-dasharray" in svg   # unit circle
    assert "<text" not in polar_svg(prof)
