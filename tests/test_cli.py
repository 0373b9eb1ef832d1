import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from selfmetric import centers, cli
from selfmetric.cli import RunConfig, build_parser, run
from common import translated_perimeter_bound
from selfmetric.geometry import (GeometryError, Polygon2, cube, polygon_as_polytope,
                                 regular_polygon)
from selfmetric.selfvolume import cartesian_product, self_volume_recursive
from selfmetric.shapeio import save_shape

MODULE_CMD = [sys.executable, "-m", "selfmetric"]


def invoke(args, cwd=None):
    return subprocess.run(MODULE_CMD + args, capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    root = tmp_path_factory.mktemp("shapes")
    (root / "tri.json").write_text(json.dumps(
        {"type": "polygon2", "vertices": [[0, 0], [1, 0], [0, 1]]}))
    cube_verts = [[s, t, u] for s in (-1, 1) for t in (-1, 1) for u in (-1, 1)]
    (root / "cube3.json").write_text(json.dumps(
        {"type": "polytope", "dim": 3, "vertices": cube_verts}))
    (root / "disk.json").write_text(json.dumps(
        {"type": "radius_profile", "coeffs": [[0, 1.0, 0.0]]}))
    (root / "phi4.json").write_text(json.dumps(
        {"coeffs": [[4, 0.5, 0.0]], "epsilon": 0.001}))
    return root


def test_perimeter_polygon_both_variants(shapes):
    out = invoke(["perimeter", "--shape", str(shapes / "tri.json"), "--variant", "both"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "body_id,variant,method,value,nodes"
    assert len(lines) == 3
    directed = lines[1].split(",")
    busemann = lines[2].split(",")
    assert directed[1] == "directed" and busemann[1] == "busemann"
    assert float(directed[3]) == pytest.approx(9.0, abs=1e-12)
    assert float(busemann[3]) == pytest.approx(9.0, abs=1e-12)


def test_perimeter_off_center(shapes):
    out = invoke(["perimeter", "--shape", str(shapes / "tri.json"),
                  "--center", "0.25,0.25"])
    assert out.returncode == 0
    value = float(out.stdout.strip().splitlines()[1].split(",")[3])
    assert value > 9.0


def test_perimeter_smooth_profile(shapes):
    out = invoke(["perimeter", "--shape", str(shapes / "disk.json"), "--nodes", "128"])
    assert out.returncode == 0
    row = out.stdout.strip().splitlines()[1].split(",")
    assert row[2] == "quadrature" and row[4] == "128"
    assert float(row[3]) == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_perimeter_polytope_surface_measure(shapes):
    out = invoke(["perimeter", "--shape", str(shapes / "cube3.json")])
    assert out.returncode == 0
    row = out.stdout.strip().splitlines()[1].split(",")
    assert row[1:3] == ["busemann", "surface-measure"]
    assert float(row[3]) == pytest.approx(24.0, rel=1e-12)


def test_volume_json_and_facet_csv(shapes, tmp_path):
    out_json = tmp_path / "vol.json"
    out_csv = tmp_path / "facets.csv"
    out = invoke(["volume", "--shape", str(shapes / "cube3.json"),
                  "--out", str(out_json), "--csv", str(out_csv)])
    assert out.returncode == 0
    doc = json.loads(out_json.read_text())
    assert doc["value"] == pytest.approx(8.0, abs=1e-9)
    assert doc["dim"] == 3 and len(doc["facets"]) == 6
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0].startswith("facet_index,")
    assert len(rows) == 7


def test_volume_rejects_polygon(shapes):
    out = invoke(["volume", "--shape", str(shapes / "tri.json")])
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"]["type"] == "config"


def test_volume_of_a_huge_polytope_is_a_geometry_error(tmp_path):
    # qhull killed the process (SIGSEGV) on the 4-D cube scaled by 1e155
    verts = (cube(4).vertices * 1e155).tolist()
    shape = tmp_path / "cube4.json"
    shape.write_text(json.dumps({"type": "polytope", "dim": 4, "vertices": verts}))
    out = invoke(["volume", "--shape", str(shape)])
    assert out.returncode == 1
    err = json.loads(out.stderr)["error"]
    assert err["type"] == "geometry"
    assert err["message"].startswith("coordinates of magnitude 1e+155 lie outside ")


SIX_D = {"cube6": lambda: cube(6),
         "triangle-x-cube4": lambda: cartesian_product(
             polygon_as_polytope(regular_polygon(3)), cube(4))}


# above MAX_DIM = 5 qhull's simplices of a section's facet can overlap (triangle x
# 4-cube would read a surface mass of 432.4 for 432), so both commands refuse 6-D
@pytest.mark.parametrize("name", SIX_D)
def test_six_dimensional_volume_and_perimeter_are_one_geometry_error(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    save_shape(SIX_D[name](), path)
    for command in ("volume", "perimeter"):
        assert run(RunConfig(command=command, shape=str(path))) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert json.loads(out.err)["error"] == {
            "type": "geometry", "message": "dimension 6 exceeds the section recursion's limit of 5"}


def test_center_rows_converge(shapes):
    out = invoke(["center", "--shape", str(shapes / "tri.json"),
                  "--restarts", "3", "--seed", "5"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "seed,optimum_x,optimum_y,value,iterations"
    assert len(lines) == 4
    for line in lines[1:]:
        seed, x, y, value, iters = line.split(",")
        assert np.hypot(float(x) - 1 / 3, float(y) - 1 / 3) < 1e-6
        assert float(value) == pytest.approx(9.0, abs=1e-9)
    assert [r.split(",")[0] for r in lines[1:]] == ["5", "6", "7"]


# `center --restarts 5` on affine-regular polygons, byte for byte as the
# localization-cell solves with Newton and ring rows printed them from starts
# drawn in the fan triangles
CENTER_PINS = {
    "hept": ([[1.610146, -0.454651], [1.096441, 0.172014], [-0.054651, 0.292638],
              [-0.976335, -0.18361], [-0.974563, -0.898106], [-0.05067, -1.312821],
              [1.099633, -1.115465]], "directed", 11,
             "seed,optimum_x,optimum_y,value,iterations\n"
             "11,0.25000045662537829,-0.50000030506853466,6.5730075274337612,11\n"
             "12,0.25000045666954696,-0.5000003050752293,6.5730075274337612,11\n"
             "13,0.2500004567376154,-0.50000030513950788,6.5730075274337603,11\n"
             "14,0.25000045664937876,-0.50000030508231408,6.5730075274337603,12\n"
             "15,0.25000045576524882,-0.50000030385995431,6.5730075274337603,13\n",
             "best center (0.250000456738, -0.50000030514) value 6.57300752743\n"),
    "pent": ([[-1.037367, 3.383769], [-1.990075, 2.777285], [-1.574533, 1.09662],
              [-0.365006, 0.664395], [-0.03302, 2.077931]], "busemann", 29,
             "seed,optimum_x,optimum_y,value,iterations\n"
             "29,-1.0000008195715282,2.0000001663990408,6.9098300562497945,6\n"
             "30,-1.0000008283392838,2.0000001539556118,6.9098300562497945,11\n"
             "31,-1.0000008284574713,2.0000001683967166,6.9098300562497936,13\n"
             "32,-1.0000008284385897,2.000000168438822,6.9098300562497945,12\n"
             "33,-1.0000008320759524,2.0000001722788054,6.9098300562497954,13\n",
             "best center (-1.00000082846, 2.0000001684) value 6.90983005625\n"),
}


@pytest.mark.parametrize("name", sorted(CENTER_PINS))
def test_center_restarts_are_pinned_byte_for_byte(tmp_path, capsys, name):
    vertices, variant, seed, csv_text, best = CENTER_PINS[name]
    shape, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    shape.write_text(json.dumps({"type": "polygon2", "vertices": vertices}))
    assert run(RunConfig(command="center", shape=str(shape), variant=variant, seed=seed,
                         restarts=5, out=str(out))) == 0
    assert out.read_bytes() == csv_text.encode()
    assert capsys.readouterr() == (f"wrote {out}\n{best}", "")


def test_default_centre_commands_hold_for_a_polygon_far_from_the_origin(tmp_path, capsys):
    # moved by (1e6, 1e6), the quadrilateral's origin-shoelace centroid lay 14.8 units
    # outside it: `perimeter` and `center` both exited 1
    quad = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.2, 1.3]])
    values = []
    for d in (0.0, 1e6):
        shape = tmp_path / f"quad{d:g}.json"
        shape.write_text(json.dumps({"type": "polygon2", "vertices": (quad + d).tolist()}))
        assert run(RunConfig(command="perimeter", shape=str(shape), variant="both")) == 0
        perimeters = capsys.readouterr().out.splitlines()[1:]
        assert run(RunConfig(command="center", shape=str(shape), restarts=3)) == 0
        minima = capsys.readouterr().out.splitlines()[1:]
        values.append([[float(row.split(",")[3]) for row in rows]
                       for rows in (perimeters, minima)])
    (perimeters, minima), (moved_perimeters, moved_minima) = values
    bound = translated_perimeter_bound(Polygon2(quad), [1e6, 1e6])
    assert len(moved_perimeters) == 2 and len(moved_minima) == 3
    for got, want in zip(moved_perimeters, perimeters):
        assert abs(got - want) <= bound * want
    # every restart is certified within GAP_TOL of the minimum it computes
    for got in moved_minima:
        assert abs(got - min(minima)) <= (bound + 2.0 * centers.GAP_TOL) * min(minima)


def test_kgon_table_values():
    out = invoke(["kgon-table", "--k-max", "6"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "k,closed_form,polygon_exact,abs_diff"
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert table[4] == pytest.approx(8.0, abs=1e-12)
    assert table[6] == pytest.approx(6.0, abs=1e-12)
    assert all(float(r.split(",")[3]) < 1e-10 for r in lines[1:])


def test_alexandrov_result_document(shapes, tmp_path):
    out_json = tmp_path / "rec.json"
    out = invoke(["alexandrov", "--phi", str(shapes / "phi4.json"),
                  "--nodes", "1024", "--out", str(out_json)])
    assert out.returncode == 0
    doc = json.loads(out_json.read_text())
    assert doc["epsilon"] == 0.001
    assert abs(doc["phi0"]) < 1e-10
    assert doc["residual"] <= 5e-3
    assert doc["residual_classical"] <= doc["residual"]
    assert doc["svg"].startswith("<svg")
    ks = [k for k, _, _ in doc["radius_coeffs"]]
    assert 0 in ks and 4 in ks


def test_alexandrov_epsilon_override(shapes):
    out = invoke(["alexandrov", "--phi", str(shapes / "phi4.json"),
                  "--nodes", "512", "--epsilon", "0.0"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["epsilon"] == 0.0 and doc["residual"] == 0.0


def test_alexandrov_needs_aligned_harmonic(tmp_path):
    bad = tmp_path / "phi2.json"
    bad.write_text(json.dumps({"coeffs": [[2, 0.5, 0.0]], "epsilon": 0.01}))
    out = invoke(["alexandrov", "--phi", str(bad)])
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"]["type"] == "density"


def test_alexandrov_grid_too_coarse_for_the_cusps_is_density_error(tmp_path):
    phi = tmp_path / "phi20.json"
    phi.write_text(json.dumps({"coeffs": [[20, 0.5, 0.0]], "epsilon": 0.01}))
    out = invoke(["alexandrov", "--phi", str(phi), "--nodes", "128"])
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"] == {
        "type": "density",
        "message": "128 nodes are too few: every node lies within CUSP_GUARD = 2 nodes of a cusp"}


def test_alexandrov_epsilon_that_overflows_the_radius_is_density_error(shapes):
    # exp(sqrt(eps) zeta1 + eps zeta2) overflows at eps = 1e7: one density line and
    # no numpy warning line
    out = invoke(["alexandrov", "--phi", str(shapes / "phi4.json"),
                  "--nodes", "512", "--epsilon", "1e7"])
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert json.loads(out.stderr)["error"] == {
        "type": "density", "message": "epsilon 1e+07 overflows the reconstructed radius"}


@pytest.mark.parametrize("epsilon, text", [("1e3", "1000"), ("1e4", "10000")])
def test_alexandrov_epsilon_that_makes_the_radius_nonpositive_is_density_error(shapes, epsilon,
                                                                               text):
    # the unprojected fit of exp(sqrt(eps) zeta1 + eps zeta2) on 512 nodes dips below 0
    out = invoke(["alexandrov", "--phi", str(shapes / "phi4.json"),
                  "--nodes", "512", "--epsilon", epsilon])
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert json.loads(out.stderr)["error"] == {
        "type": "density", "message": f"epsilon {text} lies outside the perturbative range: "
                                      "boundary density needs a strictly positive radius"}


def test_invariance_check_passes(shapes):
    out = invoke(["invariance-check", "--shape", str(shapes / "cube3.json"),
                  "--trials", "6", "--tolerance", "1e-6"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 7
    assert all(float(r.split(",")[2]) < 1e-6 for r in lines[1:])


def test_conjecture_search_dim2_output_is_pinned(tmp_path):
    # the hill climb accepts a step on any increase, last-bit ones included,
    # so this output pins every bit of the 2-D self-volumes along its path
    out = tmp_path / "search.json"
    assert run(RunConfig(command="conjecture-search", dim=2, trials=2, steps=12, seed=0,
                         out=str(out))) == 0
    assert json.loads(out.read_text()) == {
        "dim": 2, "trials": 2, "steps": 12, "seed": 0, "max_found": 4.000000000000001,
        "min_found": 3.0437084936571823, "conjectured_max": 4.0, "conjectured_min": 3.0,
        "within_conjecture": True, "degenerate_rejections": 0}


def test_conjecture_search_dim3_minimum_is_above_the_zonotope(tmp_path):
    # the octahedron reads 16/3, this search's minimum 5.364; the conjectured
    # minimum is the zonotope's n + 1 = 4, not 6
    out = tmp_path / "search.json"
    assert run(RunConfig(command="conjecture-search", dim=3, trials=1, steps=2, seed=0,
                         out=str(out))) == 0
    doc = json.loads(out.read_text())
    assert doc["conjectured_min"] == 4.0 and doc["min_found"] == pytest.approx(5.364, abs=1e-3)
    assert doc["within_conjecture"] is True


def test_conjecture_search_dim2_bounds():
    out = invoke(["conjecture-search", "--dim", "2", "--trials", "4",
                  "--steps", "12", "--tolerance", "1e-2"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["within_conjecture"]
    assert doc["max_found"] <= 4.0 + 1e-2
    assert doc["min_found"] >= 3.0 - 1e-2
    assert doc["conjectured_max"] == 4.0 and doc["conjectured_min"] == 3.0


def test_conjecture_search_reraises_after_50_degenerate_starts(monkeypatch, capsys):
    # every start hull fails, so the trial gives up and the last failure reaches run
    starts = []

    def degenerate(points):
        starts.append(len(points))
        raise GeometryError("degenerate polytope (no full-dimensional hull): flat")

    monkeypatch.setattr(cli, "_ccs_hull", degenerate)
    assert run(RunConfig(command="conjecture-search", dim=2, trials=1, steps=1, seed=0)) == 1
    assert len(starts) == 50
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == {
        "type": "geometry", "message": "degenerate polytope (no full-dimensional hull): flat"}


def test_shape_format_error_carries_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "polygon2", "vertices": [[0, 0], [1, 0]]}))
    out = invoke(["perimeter", "--shape", str(bad)])
    assert out.returncode == 1
    err = json.loads(out.stderr)["error"]
    assert err["type"] == "shape-format" and err["field"] == "vertices"


@pytest.mark.parametrize("command, doc", [
    ("perimeter", {"type": "radius_profile", "coeffs": [[0, 1.0, 0.0], [10 ** 20, 0.01, 0.0]]}),
    ("perimeter", {"type": "radius_profile", "coeffs": [[0, 1.0, 0.0], [-2 ** 63, 0.01, 0.0]]}),
    ("alexandrov", {"coeffs": [[4, 0.5, 0.0], [10 ** 20, 0.01, 0.0]], "epsilon": 0.001}),
])
def test_out_of_range_harmonic_is_shape_format_error(tmp_path, capsys, command, doc):
    path = tmp_path / "big_k.json"
    path.write_text(json.dumps(doc))
    field = "shape" if command == "perimeter" else "phi"
    assert run(RunConfig(command=command, **{field: str(path)})) == 1
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)["error"]
    assert err["type"] == "shape-format" and err["field"] == "coeffs[1][0]"


HUGE = 10 ** 400   # a JSON integer that no float can hold


@pytest.mark.parametrize("command, doc, field", [
    ("perimeter", {"type": "polygon2", "vertices": [[0, 0], [HUGE, 0], [0, 1]]}, "vertices[1][0]"),
    ("volume", {"type": "polytope", "dim": 3, "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, HUGE],
                                                           [-1, -1, -1]]}, "vertices[2][2]"),
    ("perimeter", {"type": "radius_profile", "coeffs": [[0, HUGE, 0.0]]}, "coeffs[0][1]"),
    ("alexandrov", {"coeffs": [[4, 0.5, 0.0]], "epsilon": HUGE}, "epsilon"),
], ids=["polygon-vertex", "polytope-vertex", "profile-coefficient", "density-epsilon"])
def test_number_beyond_the_float_range_is_shape_format_error(tmp_path, capsys, command, doc,
                                                             field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    key = "phi" if command == "alexandrov" else "shape"
    assert run(RunConfig(command=command, **{key: str(path)})) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == {
        "type": "shape-format", "message": "number is out of the float range", "field": field}


def test_sliver_gets_a_start_point_for_every_restart(tmp_path, capsys):
    # a 2 x 2e-7 rectangle turned by 45 degrees fills about 1e-7 of its bounding
    # box, but the start points are drawn inside the polygon, so restart 1 gets
    # one too and lands on the optimum 8 of a parallelogram
    c = np.sqrt(0.5)
    corners = [(-1.0, -1e-7), (1.0, -1e-7), (1.0, 1e-7), (-1.0, 1e-7)]
    path, out = tmp_path / "sliver.json", tmp_path / "sliver.csv"
    path.write_text(json.dumps({"type": "polygon2",
                                "vertices": [[c * (x - y), c * (x + y)] for x, y in corners]}))
    assert run(RunConfig(command="center", shape=str(path), restarts=2, out=str(out))) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    values = [float(row.split(",")[3]) for row in rows]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    assert values == pytest.approx([8.0, 8.0], rel=1e-9)
    assert values[1] == pytest.approx(values[0], rel=1e-12)


@pytest.mark.parametrize("center", ["nan,0.2", "inf,0.2"])
def test_non_finite_polygon_center_is_geometry_error(shapes, center):
    out = invoke(["perimeter", "--shape", str(shapes / "tri.json"), "--center", center,
                  "--variant", "both"])
    assert out.returncode == 1
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"]["type"] == "geometry"


def test_polygon_center_of_three_coordinates_is_config_error(shapes, capsys):
    assert run(RunConfig(command="perimeter", shape=str(shapes / "tri.json"),
                         center="0.1,0.2,0.3")) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "config", "message": "--center needs two coordinates for a polygon"}


@pytest.mark.parametrize("shape, fields, message", [
    ("cube3.json", {"variant": "directed"}, "polytopes support only the busemann variant"),
    ("disk.json", {"variant": "busemann"}, "smooth profiles support only the directed variant"),
    ("cube3.json", {"center": "0.5,0.5"}, "--center applies only to polygons, not to polytopes"),
    ("cube3.json", {"center": "0,0,0", "variant": "both"},
     "--center applies only to polygons, not to polytopes"),
    ("disk.json", {"center": "0.5,0.5"},
     "--center applies only to polygons, not to smooth profiles"),
], ids=["polytope-directed", "profile-busemann", "polytope-center", "polytope-center-3d",
        "profile-center"])
def test_perimeter_flags_a_body_cannot_honour_are_config_errors(shapes, capsys, shape, fields,
                                                                message):
    assert run(RunConfig(command="perimeter", shape=str(shapes / shape), **fields)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == {"type": "config", "message": message}


@pytest.mark.parametrize("shape, own", [("cube3.json", "busemann"), ("disk.json", "directed")],
                         ids=["cube3.json", "disk.json"])
def test_perimeter_own_variant_and_both_give_one_row_off_polygons(shapes, capsys, shape, own):
    # a polytope's surface mass is the central-section perimeter, Busemann's in the
    # plane; a radius profile's is the directed one
    outputs = []
    for variant in (None, own, "both"):
        assert run(RunConfig(command="perimeter", shape=str(shapes / shape), variant=variant)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].splitlines()[1].split(",")[1] == own


def test_planar_polytope_perimeter_is_the_busemann_one(tmp_path):
    # the triangle (0,0), (1,0), (0,1) about (0.3, 0.2), as a polytope and as a polygon
    verts = [[-0.3, -0.2], [0.7, -0.2], [-0.3, 0.8]]
    (tmp_path / "tri.json").write_text(json.dumps({"type": "polytope", "dim": 2,
                                                   "vertices": verts}))
    (tmp_path / "tri2.json").write_text(json.dumps({"type": "polygon2", "vertices": verts}))
    polytope = invoke(["perimeter", "--shape", str(tmp_path / "tri.json")])
    polygon = invoke(["perimeter", "--shape", str(tmp_path / "tri2.json"), "--center", "0,0",
                      "--variant", "both"])
    assert polytope.returncode == polygon.returncode == 0
    assert polytope.stdout.splitlines()[1] == "tri,busemann,surface-measure,9.3571428571428577,"
    rows = [line.split(",") for line in polygon.stdout.splitlines()[1:]]
    assert [r[1] for r in rows] == ["directed", "busemann"]
    assert rows[0][3] == "10.333333333333334" and rows[1][3] == "9.3571428571428577"


def test_missing_file_is_io_error(tmp_path):
    out = invoke(["perimeter", "--shape", str(tmp_path / "nope.json")])
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"]["type"] == "io"


def test_node_floor_is_config_error(shapes):
    out = invoke(["perimeter", "--shape", str(shapes / "disk.json"), "--nodes", "8"])
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"]["type"] == "config"


def test_run_config_validation_direct():
    cfg = RunConfig(command="kgon-table", k_max=2)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = RunConfig(command="invariance-check", tolerance=0.5)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = RunConfig(command="conjecture-search", dim=7)
    with pytest.raises(ValueError):
        cfg.validate()


@pytest.mark.parametrize("fields, message", [
    ({"command": "alexandrov", "sign": "Plus"}, "sign must be plus or minus"),
    ({"command": "perimeter", "variant": "bussemann"}, "variant must be directed, busemann or both"),
    ({"command": "center", "variant": "both"}, "variant must be directed or busemann"),
], ids=["alexandrov-sign", "perimeter-variant", "center-variant"])
def test_run_config_rejects_unknown_choices(fields, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**fields).validate()


@pytest.mark.parametrize("command, unread", [
    ("volume", dict(nodes=4, tolerance=0.5, restarts=0, trials=0, steps=-1, sign="up",
                    variant="none")),
    ("perimeter", dict(tolerance=0.5, restarts=0, trials=0, steps=-1, sign="up")),
    ("alexandrov", dict(tolerance=0.5, restarts=0, trials=0, variant="none")),
    ("center", dict(nodes=4, tolerance=0.5, trials=0, sign="up")),
    ("invariance-check", dict(nodes=4, restarts=0, steps=-1, variant="none")),
], ids=["volume", "perimeter", "alexandrov", "center", "invariance-check"])
def test_run_config_ignores_values_its_command_does_not_read(command, unread):
    RunConfig(command=command, **unread).validate()


# the required options of each subcommand
REQUIRED = {"perimeter": {"shape": "x.json"}, "volume": {"shape": "x.json"},
            "center": {"shape": "x.json"}, "kgon-table": {}, "alexandrov": {"phi": "x.json"},
            "invariance-check": {"shape": "x.json"}, "conjecture-search": {}}


def _argv(name):
    return [name] + [a for key, value in REQUIRED[name].items() for a in (f"--{key}", value)]


def test_parser_covers_all_subcommands():
    parser = build_parser()
    for name in REQUIRED:
        assert parser.parse_args(_argv(name)).command == name


def test_parser_defaults_match_run_config():
    parser = build_parser()
    for name, required in REQUIRED.items():
        parsed = RunConfig(**vars(parser.parse_args(_argv(name))))
        assert parsed == RunConfig(command=name, **required), name
    assert RunConfig(command="alexandrov").nodes == 4096
    assert RunConfig(command="perimeter").nodes == 512
    assert RunConfig(command="conjecture-search").trials == 10
    assert RunConfig(command="invariance-check").trials == 20


# every subcommand that reads neither --seed nor --tolerance rejects them, and no
# subcommand takes --max-dim: the section recursion's one limit is selfvolume.MAX_DIM
@pytest.mark.parametrize("name,flag", [
    *((name, flag) for name in ("perimeter", "volume", "kgon-table", "alexandrov")
      for flag in ("--seed", "--tolerance")),
    ("center", "--tolerance"), *((name, "--max-dim") for name in REQUIRED)])
def test_parser_rejects_unread_flags(name, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(_argv(name) + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_run_returns_exit_code_not_raises(tmp_path):
    cfg = RunConfig(command="perimeter", shape=str(tmp_path / "missing.json"))
    assert run(cfg) == 1


def test_flat_polytope_error_is_deterministic(tmp_path):
    # qhull's full text carries a per-call run-id; only its first line is kept
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"type": "polytope", "dim": 3,
                                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    first, second = (invoke(["volume", "--shape", str(path)]) for _ in range(2))
    assert first.returncode == second.returncode == 1
    assert first.stderr == second.stderr
    lines = first.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "geometry" and "QH6154" in err["message"]
    assert "\n" not in err["message"]


def test_warning_is_one_json_object_on_stderr(tmp_path):
    path = tmp_path / "bumpy.json"
    path.write_text(json.dumps({"type": "radius_profile",
                                "coeffs": [[0, 1.0, 0.0], [3, 0.05, 0.02]]}))
    out = invoke(["perimeter", "--shape", str(path)])
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "body_id,variant,method,value,nodes"
    assert out.stdout.splitlines()[1].startswith("bumpy,directed,quadrature,")
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert list(doc) == ["warning"] and list(doc["warning"]) == ["message"]
    assert doc["warning"]["message"].startswith("radius profile fails the convexity check")
    assert ".py" not in out.stderr


@pytest.mark.parametrize("command, field", [("volume", "shape"), ("kgon-table", "out")])
def test_directory_path_is_io_error(tmp_path, capsys, command, field):
    assert run(RunConfig(command=command, **{field: str(tmp_path)})) == 1
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "io" and "Is a directory" in err["message"]


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "[]"], ids=["list", "string", "empty-list"])
@pytest.mark.parametrize("epsilon", [None, 0.01], ids=["stored", "override"])
def test_density_document_must_be_object(tmp_path, capsys, text, epsilon):
    path = tmp_path / "phi.json"
    path.write_text(text)
    assert run(RunConfig(command="alexandrov", phi=str(path), epsilon=epsilon)) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "shape-format", "message": "density document must be a JSON object",
                   "field": ""}


@pytest.mark.parametrize("data", [b"{not json", b'{"coeffs": "\xff"}'], ids=["syntax", "not-utf8"])
@pytest.mark.parametrize("field", ["shape", "phi"])
def test_invalid_json_is_shape_format_error(tmp_path, capsys, field, data):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    command = "perimeter" if field == "shape" else "alexandrov"
    assert run(RunConfig(command=command, **{field: str(path)})) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "shape-format" and err["field"] == ""
    assert err["message"].startswith("not valid JSON: ")


def test_volume_json_facets_match_csv_rows(tmp_path):
    shape = tmp_path / "simplex.json"
    shape.write_text(json.dumps({"type": "polytope", "dim": 3, "vertices": [
        [1.0, 0.2, -0.3], [-0.4, 1.1, 0.1], [-0.5, -0.6, 0.9], [0.1, -0.3, -1.2]]}))
    out_json, out_csv = tmp_path / "v.json", tmp_path / "f.csv"
    assert run(RunConfig(command="volume", shape=str(shape), out=str(out_json),
                         facet_csv=str(out_csv))) == 0
    facets = json.loads(out_json.read_text())["facets"]
    header, *rows = out_csv.read_text().splitlines()
    assert header == "facet_index,facet_measure,section_measure,section_self_volume,contribution"
    assert len(rows) == len(facets) == 4
    for facet, row in zip(facets, rows):
        assert list(facet) == ["index", "facet_measure", "section_measure",
                               "section_self_volume", "contribution"]
        index, *values = row.split(",")
        assert int(index) == facet["index"]
        assert [float(v) for v in values] == list(facet.values())[1:]


@pytest.mark.parametrize("fields, summary", [
    ({"command": "kgon-table", "k_max": 5}, None),
    ({"command": "center", "shape": "tri.json", "restarts": 2}, "best center "),
    ({"command": "alexandrov", "phi": "phi4.json", "nodes": 512}, "phi0 "),
    ({"command": "volume", "shape": "cube3.json"}, None),
], ids=["kgon-table-csv", "center-csv", "alexandrov-json", "volume-json"])
def test_stdout_holds_the_bytes_out_writes(shapes, tmp_path, capsys, fields, summary):
    fields = {key: str(shapes / value) if key in ("shape", "phi") else value
              for key, value in fields.items()}
    assert run(RunConfig(**fields)) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "result.out"
    assert run(RunConfig(out=str(path), **fields)) == 0
    assert path.read_text() == printed
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {path}"
    if summary is None:
        assert len(lines) == 1
    else:
        assert len(lines) == 2 and lines[1].startswith(summary)


def test_wrapped_harmonic_profile_warns(tmp_path, capsys):
    # k**2 = 1 mod 2**64: int64 arithmetic read r'' as -2c cos(k theta), missing the k**2
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps({"type": "radius_profile",
                                "coeffs": [[0, 1.0, 0.0], [2 ** 63 - 1, 0.001, 0.0]]}))
    with warnings.catch_warnings():   # pytest makes a UserWarning an error
        warnings.simplefilter("always")
        assert run(RunConfig(command="perimeter", shape=str(path))) == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[1].startswith("wrapped,directed,quadrature,")
    lines = out.err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["warning"]["message"]
    assert message.startswith("radius profile fails the convexity check")


# runs each argv through cli.main in one fresh interpreter, then reports the
# exit codes and the scipy and numpy.ma modules loaded
_FRESH_MAIN = """
import json, sys
import selfmetric
from selfmetric import cli
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        cli.main(argv)
    except SystemExit as exc:
        codes.append(exc.code)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
masked = sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
print(json.dumps({"codes": codes, "scipy": loaded, "numpy_ma": masked}))
"""


def _fresh_main(*argvs):
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_import_loads_no_scipy():
    report, _ = _fresh_main()
    assert report == {"codes": [], "scipy": [], "numpy_ma": []}


def test_planar_commands_load_no_scipy(shapes, tmp_path):
    # a 2-D polytope is built by the hull scan, as every planar body is, and its
    # edge codes are deduplicated without np.unique, which imports numpy.ma
    heptagon = tmp_path / "heptagon.json"
    angles = 2.0 * math.pi * np.arange(7) / 7 + 0.3
    heptagon.write_text(json.dumps({"type": "polytope", "dim": 2, "vertices": np.column_stack(
        [np.cos(angles), 0.5 * np.sin(angles)]).tolist()}))
    out = [str(tmp_path / f"out{i}") for i in range(8)]
    report, _ = _fresh_main(
        ["kgon-table", "--k-max", "5", "--out", out[0]],
        ["perimeter", "--shape", str(shapes / "tri.json"), "--out", out[1]],
        ["perimeter", "--shape", str(shapes / "disk.json"), "--out", out[2]],
        ["center", "--shape", str(shapes / "tri.json"), "--out", out[3]],
        ["alexandrov", "--phi", str(shapes / "phi4.json"), "--out", out[4]],
        ["volume", "--shape", str(heptagon), "--out", out[5]],
        ["invariance-check", "--shape", str(heptagon), "--trials", "3", "--out", out[6]],
        ["conjecture-search", "--dim", "2", "--trials", "2", "--steps", "5", "--out", out[7]])
    assert report == {"codes": [0] * 8, "scipy": [], "numpy_ma": []}
    assert json.loads((tmp_path / "out5").read_text())["dim"] == 2


def test_volume_loads_qhull_and_no_optimizer(shapes, tmp_path):
    report, _ = _fresh_main(["volume", "--shape", str(shapes / "cube3.json"),
                             "--out", str(tmp_path / "out.json")])
    assert report["codes"] == [0]
    assert "scipy.spatial" in report["scipy"]
    assert not any(m.startswith("scipy.optimize") for m in report["scipy"])


def test_degenerate_first_hull_is_geometry_error(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"type": "polytope", "dim": 3,
                                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    report, err = _fresh_main(["volume", "--shape", str(path)])
    assert report["codes"] == [1]
    assert json.loads(err) == {"error": {"type": "geometry", "message":
        "degenerate polytope (no full-dimensional hull): QH6154 Qhull precision error: "
        "Initial simplex is flat (facet 1 is coplanar with the interior point)"}}


def test_collinear_planar_polytope_is_the_scans_geometry_error(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"type": "polytope", "dim": 2,
                                "vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]}))
    report, err = _fresh_main(["volume", "--shape", str(path)])
    assert report == {"codes": [1], "scipy": [], "numpy_ma": []}
    assert json.loads(err) == {"error": {"type": "geometry", "message":
        "degenerate polytope (no full-dimensional hull): "
        "degenerate polygon: the points are collinear"}}


def test_invariance_check_failure_is_one_geometry_error(tmp_path, capsys):
    # below every rounding error the check must fail: exit 1, one JSON error
    path = tmp_path / "simplex3.json"
    path.write_text(json.dumps({"type": "polytope", "dim": 3, "vertices": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}))
    assert run(RunConfig(command="invariance-check", shape=str(path), trials=2,
                         tolerance=1e-300)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "geometry"
    assert error["message"].startswith("affine invariance violated: worst relative deviation ")


@pytest.mark.parametrize("fields, message", [
    ({"command": "center", "restarts": 0}, "restarts must be positive"),
    ({"command": "invariance-check", "trials": 0}, "trials must be positive"),
    ({"command": "conjecture-search", "trials": 0}, "trials must be positive"),
    ({"command": "conjecture-search", "steps": -1}, "steps must be nonnegative"),
], ids=["restarts", "invariance-trials", "search-trials", "steps"])
def test_run_config_rejects_out_of_range_counts(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig(**fields).validate()


@pytest.mark.parametrize("command, shape, fields, message", [
    ("perimeter", "tri.json", {"center": "0.2;0.3"},
     "malformed point '0.2;0.3'; expected comma-separated numbers"),
    ("center", "cube3.json", {}, 'center optimization needs a shape of type "polygon2"'),
    ("invariance-check", "tri.json", {}, 'invariance check needs a shape of type "polytope"'),
], ids=["malformed-center", "center-of-polytope", "invariance-of-polygon"])
def test_a_shape_or_point_the_command_cannot_take_is_a_config_error(shapes, capsys, command,
                                                                    shape, fields, message):
    assert run(RunConfig(command=command, shape=str(shapes / shape), **fields)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": {"type": "config", "message": message}}


def test_a_center_solve_without_a_certificate_is_one_convergence_error(tmp_path, capsys,
                                                                       monkeypatch):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps({"type": "polygon2",
                                "vertices": [[0, 0], [3, 0], [4, 2], [1, 3], [-1, 1]]}))
    monkeypatch.setattr(centers, "MAX_ITER", 2)
    assert run(RunConfig(command="center", shape=str(path), restarts=1)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": {"type": "convergence", "message":
                                             "no certificate in 2 iterations (gap 6.201e-01)"}}


def test_a_rejected_climb_step_is_counted(tmp_path, monkeypatch):
    # the second self-volume of a search is its first climb step's
    calls = []

    def volume(body):
        calls.append(body)
        if len(calls) == 2:
            raise cli.GeometryError("degenerate polytope")
        return self_volume_recursive(body)

    monkeypatch.setattr(cli, "self_volume_recursive", volume)
    out = tmp_path / "search.json"
    assert run(RunConfig(command="conjecture-search", dim=2, trials=1, steps=1,
                         out=str(out))) == 0
    assert len(calls) == 3
    assert json.loads(out.read_text())["degenerate_rejections"] == 1
