"""JSON shape files: load, validate with field paths, dump, round-trip.

Three body kinds share one envelope keyed by "type":

    {"type": "polygon2",       "vertices": [[x, y], ...]}
    {"type": "polytope",       "dim": n, "vertices": [[x1..xn], ...]}
    {"type": "radius_profile", "coeffs": [[k, re, im], ...]}

and densities for the inverse problem are

    {"coeffs": [[k, re, im], ...], "epsilon": e}

Validation failures raise ShapeFormatError carrying the offending field path,
e.g. "vertices[2][0]".
"""

import json

import numpy as np

from .alexandrov import FourierDensity
from .geometry import Polygon2, PolytopeN, RadiusProfile

SHAPE_TYPES = ("polygon2", "polytope", "radius_profile")
_K_MAX = np.iinfo(np.int64).max   # k and -k both fit the int64 harmonic arrays


class ShapeFormatError(ValueError):
    """Schema violation in a shape or density file; .field holds the path."""

    def __init__(self, message, field=""):
        super().__init__(message)
        self.field = field


def _require(cond, message, field):
    if not cond:
        raise ShapeFormatError(message, field)


def _number(x, field):
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             f"expected a number, got {type(x).__name__}", field)
    v = float(x)
    _require(np.isfinite(v), "number is not finite", field)
    return v


def _point_list(raw, length, field):
    _require(isinstance(raw, list) and len(raw) > 0, "expected a nonempty list", field)
    out = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list), "expected a coordinate list", f"{field}[{i}]")
        if length is not None:
            _require(len(row) == length, f"expected {length} coordinates, got {len(row)}",
                     f"{field}[{i}]")
        out.append([_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def shape_from_dict(doc):
    """Build a body from a parsed shape document."""
    _require(isinstance(doc, dict), "shape document must be a JSON object", "")
    kind = doc.get("type")
    _require(kind in SHAPE_TYPES, f"type must be one of {SHAPE_TYPES}, got {kind!r}", "type")
    if kind == "polygon2":
        verts = _point_list(doc.get("vertices"), 2, "vertices")
        _require(len(verts) >= 3, "a polygon needs at least 3 vertices", "vertices")
        return Polygon2(np.array(verts))
    if kind == "polytope":
        dim = doc.get("dim")
        _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
                 "dim must be a positive integer", "dim")
        verts = _point_list(doc.get("vertices"), dim, "vertices")
        _require(len(verts) >= dim + 1, f"a {dim}d polytope needs at least {dim + 1} vertices",
                 "vertices")
        return PolytopeN(np.array(verts))
    coeffs = _coeff_triples(doc.get("coeffs"), "coeffs")
    return RadiusProfile.from_coeff_pairs(coeffs)


def _coeff_triples(raw, field):
    _require(isinstance(raw, list) and len(raw) > 0, "expected a nonempty list", field)
    out = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == 3,
                 "expected [k, re, im]", f"{field}[{i}]")
        k = row[0]
        _require(isinstance(k, int) and not isinstance(k, bool),
                 "harmonic index must be an integer", f"{field}[{i}][0]")
        _require(abs(k) <= _K_MAX, f"harmonic index must satisfy |k| <= {_K_MAX}",
                 f"{field}[{i}][0]")
        out.append((k, _number(row[1], f"{field}[{i}][1]"), _number(row[2], f"{field}[{i}][2]")))
    return out


def coeff_rows(series):
    """The [[k, re, im], ...] rows of a RadiusProfile's or FourierDensity's coefficients."""
    return [[int(k), float(c.real), float(c.imag)] for k, c in zip(series.ks, series.coeffs)]


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # JSONDecodeError, or bytes that are not UTF-8
            raise ShapeFormatError(f"not valid JSON: {exc}", "") from exc


def load_shape(path):
    return shape_from_dict(_read_json(path))


def shape_to_dict(body):
    """Serializable document for any of the three body kinds."""
    if isinstance(body, Polygon2):
        return {"type": "polygon2", "vertices": body.vertices.tolist()}
    if isinstance(body, PolytopeN):
        return {"type": "polytope", "dim": body.dim, "vertices": body.vertices.tolist()}
    if isinstance(body, RadiusProfile):
        return {"type": "radius_profile", "coeffs": coeff_rows(body)}
    raise TypeError(f"cannot serialize {type(body).__name__}")


def save_shape(body, path):
    with open(path, "w") as fh:
        json.dump(shape_to_dict(body), fh, indent=1)
        fh.write("\n")


def density_from_dict(doc):
    _require(isinstance(doc, dict), "density document must be a JSON object", "")
    coeffs = _coeff_triples(doc.get("coeffs"), "coeffs")
    eps = doc.get("epsilon")
    _require(eps is not None, "missing epsilon", "epsilon")
    return FourierDensity.from_pairs(coeffs, _number(eps, "epsilon"))


def load_density(path, epsilon=None):
    """Read a density file; a non-None epsilon overrides the stored scale of an object."""
    doc = _read_json(path)
    if epsilon is not None and isinstance(doc, dict):
        doc = {**doc, "epsilon": epsilon}
    return density_from_dict(doc)


def density_to_dict(phi):
    return {"coeffs": coeff_rows(phi), "epsilon": phi.epsilon}


def bodies_equal(a, b, tol=1e-12):
    """Vertex-order-insensitive equality of two bodies of the same kind."""
    if type(a) is not type(b):
        return False
    if isinstance(a, RadiusProfile):
        if not np.array_equal(a.ks, b.ks):
            return False
        return bool(np.max(np.abs(a.coeffs - b.coeffs)) <= tol)
    va = np.array(sorted(a.vertices.tolist()))
    vb = np.array(sorted(b.vertices.tolist()))
    return va.shape == vb.shape and bool(np.max(np.abs(va - vb)) <= tol)
