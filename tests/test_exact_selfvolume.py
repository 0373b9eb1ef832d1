"""The float self-volume against an exact rational oracle (exact_selfvolume.py),
which reads no value the library computes."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exact_selfvolume import self_volume, volume
from selfmetric.cli import RunConfig, run
from selfmetric.geometry import PolytopeN, cube
from selfmetric.selfvolume import self_volume_recursive

# small-integer centrally symmetric bodies in 3-D: the hull of 3-5 points and
# their negatives, full-dimensional
ccs3 = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=3, max_size=5).map(
    lambda pts: [*pts, *[tuple(-x for x in p) for p in pts]])

# integer maps of determinant +-1: the product of shears e_i += c e_j and a sign
unimodular3 = st.tuples(
    st.lists(st.tuples(st.permutations(range(3)), st.integers(-2, 2)), min_size=1, max_size=4),
    st.sampled_from([1, -1]))


def _matrix(drawn):
    shears, sign = drawn
    m = np.diag([sign, 1, 1])
    for (i, j, _), c in shears:
        m[i] += c * m[j]
    return m


def _full_dimensional(points):
    return np.linalg.matrix_rank(np.array(points, dtype=float)) == len(points[0])


def _float_self_volume(points):
    return self_volume_recursive(PolytopeN(np.array(points, dtype=float))).value


def _simplex3_at(weights):
    """The 3-simplex 0, e1, e2, e3 about the point of barycentric weights."""
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    c = [sum(w * v[i] for w, v in zip(weights, verts)) for i in range(3)]
    return [[x - y for x, y in zip(v, c)] for v in verts]


SIMPLEX3 = _simplex3_at([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_self_volumes_are_exact(n):
    corners = cube(n).vertices.astype(int).tolist()
    assert volume(corners) == 2 ** n
    assert self_volume(corners) == 2 ** n


def test_simplex_self_volume_is_exact():
    assert volume(SIMPLEX3) == Fraction(1, 6)
    assert self_volume(SIMPLEX3) == Fraction(54625, 4536)


def test_product_rule_is_exact():
    # the triangle about its centroid, whose self-volume is half its Busemann
    # perimeter 9, times the square
    tri = [(2, -1), (-1, 2), (-1, -1)]
    prod = [(*p, *q) for p in tri for q in cube(2).vertices.astype(int).tolist()]
    assert self_volume(tri) == Fraction(9, 2)
    assert self_volume(prod) == 18


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(ccs3)
def test_float_self_volume_meets_the_exact_one(points):
    assume(_full_dimensional(points))
    exact = self_volume(points)
    assert abs(_float_self_volume(points) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("seed", [1, 5])
def test_float_self_volume_of_a_4d_ccs_body_meets_the_exact_one(seed):
    # two levels of sections down to the chords, which a 3-D body does not reach
    p = np.random.default_rng(seed).integers(-3, 4, size=(5, 4))
    points = np.vstack([p, -p]).tolist()
    exact = self_volume(points)
    assert abs(_float_self_volume(points) - exact) <= 1e-13 * exact


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(st.one_of(st.just(SIMPLEX3), ccs3), unimodular3)
def test_exact_self_volume_is_affine_invariant(points, drawn):
    assume(_full_dimensional(points))
    m = _matrix(drawn)
    mapped = [[sum(int(m[i, j]) * p[j] for j in range(3)) for i in range(3)] for p in points]
    assert self_volume(mapped) == self_volume(points)


MAPPED_CUBE4 = (cube(4).vertices.astype(int)
                @ np.array([[1, 0, 0, -2], [0, 1, 0, 1], [0, 0, 1, -1], [0, 0, 0, 1]]).T).tolist()


def test_mapped_cube4_is_exactly_16():
    assert self_volume(MAPPED_CUBE4) == 16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjectured_minimum_is_the_zonotope_of_n_plus_1_vectors(n, tmp_path):
    # the zonotope of e_1, ..., e_n and -(1, ..., 1): every signed sum of them
    gens = np.vstack([np.eye(n, dtype=int), -np.ones((1, n), dtype=int)])
    points = [list(signs @ gens) for signs in itertools.product((-1, 1), repeat=n + 1)]
    assert self_volume([[int(x) for x in p] for p in points]) == n + 1
    out = tmp_path / "search.json"
    assert run(RunConfig(command="conjecture-search", dim=n, trials=1, steps=0,
                         out=str(out))) == 0
    assert json.loads(out.read_text())["conjectured_min"] == n + 1


@pytest.mark.xfail(strict=True, reason="flat-simplex noise in the facet measures, "
                                       "ROADMAP item 3a: reads 16.0000000105")
def test_float_self_volume_of_a_mapped_cube4_meets_the_exact_one():
    assert abs(_float_self_volume(MAPPED_CUBE4) - 16) <= 1e-13 * 16


# half of a thin centrally symmetric polygon (seed 1, aspect 1e6): two of its
# vertices lay 7.3e-10 from a section line, inside a band of REL_TOL times the
# scale, and its self-volume read 1.35e-5 relative off the exact one
THIN_HALF = [[-0.09076155998123935, 0.07325927621019787], [0.7398911831678715, -0.5972014878056394],
             [0.4038050088675383, -0.3259331834020948], [-0.10826975698632396, 0.08739140327240942],
             [0.6298693750153447, -0.5083968487233003], [-0.14748063247804571, 0.11903777094736977],
             [0.7555651391570699, -0.6098534913446173], [0.16680510353204614, -0.13463737214590193]]


@pytest.mark.parametrize("aspect", [1e2, 1e4, 1e6])
def test_thin_polygon_self_volume_meets_the_exact_one(aspect):
    # 3-8 normal points squeezed by the aspect, turned, and their negatives; the
    # float rows carry about eps times scale / least offset, and measured within
    # half of that on 300 draws per aspect
    rng = np.random.default_rng([1, round(np.log10(aspect))])
    halves = []
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(3, 9)), 2)) / [1.0, aspect]
        turn = rng.uniform(0.0, np.pi)
        halves.append(pts @ np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]]))
    if aspect == 1e6:
        halves.append(np.array(THIN_HALF))
    for half in halves:
        body = PolytopeN(np.vstack([half, -half]))
        want = float(self_volume([tuple(map(Fraction, p)) for p in body.vertices.tolist()]))
        bound = 2.0 * np.finfo(float).eps * body.scale / float(np.min(body.facet_offsets))
        assert abs(self_volume_recursive(body).value - want) <= bound * want
