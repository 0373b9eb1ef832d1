import hashlib
import json

import numpy as np
import pytest

from selfmetric.alexandrov import FourierDensity
from selfmetric.geometry import Polygon2, PolytopeN, RadiusProfile, cube
from selfmetric.shapeio import (ShapeFormatError, _coeff_triples, bodies_equal,
                                density_from_dict, density_to_dict, load_density, load_shape,
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


# each bad JSON number, with its message wherever a number is read
BAD_NUMBERS = {
    "true": "expected a number, got bool",
    '"1"': "expected a number, got str",
    "null": "expected a number, got NoneType",
    "NaN": "number is not finite",
    "Infinity": "number is not finite",
    "1" + "0" * 400: "number is out of the float range",
}
# documents with X in place of one number, keyed by that number's field path
NUMBER_FIELDS = {
    "vertices[1][1]": '{"type": "polygon2", "vertices": [[0.0, 0.0], [1.0, X], [0.0, 1.0]]}',
    "vertices[3][2]": '{"type": "polytope", "dim": 3, '
                      '"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, X]]}',
    "coeffs[1][1]": '{"type": "radius_profile", "coeffs": [[0, 1.0, 0.0], [3, X, 0.0]]}',
    "coeffs[1][2]": '{"type": "radius_profile", "coeffs": [[0, 1.0, 0.0], [3, 0.01, X]]}',
    "epsilon": '{"coeffs": [[4, 0.5, 0.0]], "epsilon": X}',
}


@pytest.mark.parametrize("field", NUMBER_FIELDS)
@pytest.mark.parametrize("text", BAD_NUMBERS)
def test_bad_number_names_its_field(field, text):
    doc = json.loads(NUMBER_FIELDS[field].replace("X", text))
    load = density_from_dict if field == "epsilon" else shape_from_dict
    with pytest.raises(ShapeFormatError) as err:
        load(doc)
    message = ("missing epsilon" if (field, text) == ("epsilon", "null")
               else BAD_NUMBERS[text])
    assert (str(err.value), err.value.field) == (message, field)
    if text.startswith("1"):   # the float overflow is kept as the cause
        assert isinstance(err.value.__cause__, OverflowError)


def test_integer_numbers_load_as_floats():
    poly = shape_from_dict({"type": "polygon2", "vertices": [[0, 0], [2, 0], [1, 2]]})
    assert poly.vertices.dtype == float and poly.vertices.tolist() == [[0.0, 0.0], [2.0, 0.0],
                                                                       [1.0, 2.0]]
    triples = _coeff_triples([[0, 1, 0], [3, 0.01, -1]], "coeffs")
    assert triples == [(0, 1.0, 0.0), (3, 0.01, -1.0)]
    assert [type(x) for row in triples for x in row[1:]] == [float] * 4
    eps = density_from_dict({"coeffs": [[4, 1, 0]], "epsilon": 1}).epsilon
    assert type(eps) is float and eps == 1.0


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


def test_polar_svg_bytes_are_pinned():
    # sha256 of the document as numpy scalars formatted it; Python floats must match
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (2, 0.02, 0.01), (3, 0.005, -0.0025)])
    svg = polar_svg(prof, title="r & <profile>")
    assert len(svg) == 11710
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "11fcb6074e76b410b2b66b2077de6f67f1c03e63be3d75a0f35ec51efa2e95da")


def test_shape_to_dict_refuses_an_unknown_body():
    with pytest.raises(TypeError, match="^cannot serialize FourierDensity$"):
        shape_to_dict(FourierDensity([-4, 4], [0.5, 0.5], 0.01))
