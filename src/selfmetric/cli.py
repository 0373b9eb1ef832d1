"""Command-line front end.

Subcommands: perimeter, volume, center, kgon-table, alexandrov,
invariance-check, conjecture-search. Outputs are CSV or JSON files (stdout
when no --out is given); failures print one machine-readable JSON object to
stderr and exit nonzero; warnings print there too, one JSON object each.
All randomness flows from the --seed flag, so
identical invocations produce byte-identical outputs.
"""

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .alexandrov import GRID_NODES, ClosureError, FourierDensityError, reconstruct
# optimal_center_2d has no caller here; perfbench/tracing.py rebinds this name
from .centers import ConvergenceError, _interior_point, optimal_center_2d, optimal_centers_2d
from .geometry import (GeometryError, Polygon2, PolytopeN, RadiusProfile,
                       regular_polygon)
from .perimeter2 import (MIN_NODES, VARIANTS as POLYGON_VARIANTS, busemann_perimeter_polygon,
                         kgon_self_perimeter, self_perimeter_polygon, self_perimeter_smooth)
from .selfvolume import FacetContribution, SurfaceMeasure, affine_image, self_volume_recursive
from .shapeio import ShapeFormatError, coeff_rows, load_density, load_shape

MAX_TOLERANCE = 1e-2
SIGNS = ("plus", "minus")
VARIANTS = {"perimeter": (*POLYGON_VARIANTS, "both"), "center": POLYGON_VARIANTS}


@dataclass
class RunConfig:
    """One invocation, with the command line's defaults; validate() checks invariants."""
    command: str
    shape: str = None
    phi: str = None
    out: str = None
    facet_csv: str = None
    center: str = None
    variant: str = None      # the body's own: busemann for polytopes, else directed
    nodes: int = None        # GRID_NODES for alexandrov, else 512
    tolerance: float = 1e-6
    seed: int = 0
    restarts: int = 5
    k_max: int = 16
    epsilon: float = None
    sign: str = "plus"
    trials: int = None       # 10 for conjecture-search, else 20
    steps: int = 40
    dim: int = 2

    def __post_init__(self):
        if self.nodes is None:
            self.nodes = GRID_NODES if self.command == "alexandrov" else 512
        if self.trials is None:
            self.trials = 10 if self.command == "conjecture-search" else 20

    def validate(self):
        """Check the values that self.command reads; the other fields are not used."""
        cmd = self.command
        if cmd in ("perimeter", "alexandrov") and self.nodes < MIN_NODES:
            raise ValueError(f"nodes must be at least {MIN_NODES}, got {self.nodes}")
        if cmd in ("invariance-check", "conjecture-search") \
                and not 0.0 < self.tolerance <= MAX_TOLERANCE:
            raise ValueError(f"tolerance must lie in (0, {MAX_TOLERANCE}], got {self.tolerance}")
        if cmd in VARIANTS and self.variant not in (None, *VARIANTS[cmd]):
            *head, last = VARIANTS[cmd]
            raise ValueError(f"variant must be {', '.join(head)} or {last}")
        if cmd == "alexandrov" and self.sign not in SIGNS:
            raise ValueError(f"sign must be plus or minus, got {self.sign!r}")
        if cmd == "center" and self.restarts < 1:
            raise ValueError("restarts must be positive")
        if cmd == "kgon-table" and self.k_max < 3:
            raise ValueError("k-max must be at least 3")
        if cmd == "conjecture-search" and not 2 <= self.dim <= 4:
            raise ValueError("conjecture search supports dimensions 2 to 4")
        if cmd in ("invariance-check", "conjecture-search") and self.trials < 1:
            raise ValueError("trials must be positive")
        if cmd == "conjecture-search" and self.steps < 0:
            raise ValueError("steps must be nonnegative")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _emit(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        print(f"wrote {path}")


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(x) for x in row] for row in rows)
    _emit(path, buf.getvalue())


def _write_json(path, doc):
    _emit(path, json.dumps(doc, indent=1) + "\n")


def _parse_point(text):
    try:
        coords = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed point {text!r}; expected comma-separated numbers")
    return np.array(coords)


def _cmd_perimeter(cfg):
    body = load_shape(cfg.shape)
    body_id = Path(cfg.shape).stem
    rows = []
    if isinstance(body, Polygon2):
        center = _parse_point(cfg.center) if cfg.center else body.centroid
        if cfg.center and len(center) != 2:
            raise ValueError("--center needs two coordinates for a polygon")
        variants = ("directed", "busemann") if cfg.variant == "both" else (cfg.variant or "directed",)
        for variant in variants:
            fn = self_perimeter_polygon if variant == "directed" else busemann_perimeter_polygon
            res = fn(body, center)
            rows.append([body_id, variant, res.method, res.value, None])
    else:
        # a profile or a polytope has one perimeter, about the origin: a profile's is
        # the directed one; a polytope's is its surface mass, the central-section
        # perimeter, which in the plane is Busemann's
        if isinstance(body, RadiusProfile):
            kind, variant = "smooth profiles", "directed"
        else:
            kind, variant = "polytopes", "busemann"
        if cfg.variant not in (None, variant, "both"):
            raise ValueError(f"{kind} support only the {variant} variant")
        if cfg.center is not None:
            raise ValueError(f"--center applies only to polygons, not to {kind}")
        if isinstance(body, RadiusProfile):
            res = self_perimeter_smooth(body, nodes=cfg.nodes)
            rows.append([body_id, variant, res.method, res.value, res.node_count])
        else:
            measure = SurfaceMeasure(body)
            rows.append([body_id, variant, "surface-measure", measure.total_mass, None])
    _write_csv(cfg.out, ["body_id", "variant", "method", "value", "nodes"], rows)
    return 0


def _cmd_volume(cfg):
    body = load_shape(cfg.shape)
    if not isinstance(body, PolytopeN):
        raise ValueError('volume needs a shape of type "polytope" with the origin interior')
    res = self_volume_recursive(body)
    # the CSV header is FacetContribution's fields; the JSON keys name the first "index"
    header = [f.name for f in fields(FacetContribution)]
    rows = list(map(attrgetter(*header), res.facet_contributions))
    keys = ["index", *header[1:]]
    _write_json(cfg.out, {"value": res.value, "dim": res.dim,
                          "facets": [dict(zip(keys, row)) for row in rows]})
    if cfg.facet_csv:
        _write_csv(cfg.facet_csv, header, rows)
    return 0


def _cmd_center(cfg):
    body = load_shape(cfg.shape)
    if not isinstance(body, Polygon2):
        raise ValueError('center optimization needs a shape of type "polygon2"')

    # restart i starts from the centroid (i = 0) or a point drawn with seed + i;
    # all restarts are solved together, in lock step
    starts = [body.centroid] + [_interior_point(body, np.random.default_rng(cfg.seed + i))
                                for i in range(1, cfg.restarts)]
    results = optimal_centers_2d(body, cfg.variant or "directed", starts)
    rows = [[cfg.seed + i, float(res.optimum[0]), float(res.optimum[1]), res.value, res.iterations]
            for i, res in enumerate(results)]
    _write_csv(cfg.out, ["seed", "optimum_x", "optimum_y", "value", "iterations"], rows)
    if cfg.out is not None:
        best = min(rows, key=lambda r: r[3])
        print(f"best center ({best[1]:.12g}, {best[2]:.12g}) value {best[3]:.12g}")
    return 0


def _cmd_kgon_table(cfg):
    def row(k):
        closed = kgon_self_perimeter(k)
        exact = self_perimeter_polygon(regular_polygon(k), np.zeros(2)).value
        return [k, closed, exact, abs(closed - exact)]

    rows = [row(k) for k in range(3, cfg.k_max + 1)]
    _write_csv(cfg.out, ["k", "closed_form", "polygon_exact", "abs_diff"], rows)
    return 0


def _cmd_alexandrov(cfg):
    from .svgplot import polar_svg
    phi = load_density(cfg.phi, epsilon=cfg.epsilon)
    sign = 1 if cfg.sign == "plus" else -1
    res = reconstruct(phi, sign=sign, nodes=cfg.nodes)
    doc = {
        "epsilon": phi.epsilon,
        "sign": cfg.sign,
        "phi0": res.phi0,
        "residual": res.residual,
        "residual_classical": res.residual_classical,
        "radius_coeffs": coeff_rows(res.radius),
        "notes": list(res.notes),
        "svg": polar_svg(res.radius, title="reconstructed radius"),
    }
    _write_json(cfg.out, doc)
    if cfg.out is not None:
        print(f"phi0 {res.phi0:.12g} residual {res.residual:.12g}")
    return 0


def _cmd_invariance_check(cfg):
    body = load_shape(cfg.shape)
    if not isinstance(body, PolytopeN):
        raise ValueError('invariance check needs a shape of type "polytope"')
    base = self_volume_recursive(body).value
    n = body.dim

    def trial(t):
        rng = np.random.default_rng((cfg.seed, t))
        while True:
            mat = rng.normal(size=(n, n))
            if abs(np.linalg.det(mat)) > 1e-3:
                break
        value = self_volume_recursive(affine_image(body, mat)).value
        return [t, value, abs(value - base) / abs(base)]

    rows = [trial(t) for t in range(cfg.trials)]
    _write_csv(cfg.out, ["trial", "value", "rel_deviation"], rows)
    worst = max(r[2] for r in rows)
    if worst > cfg.tolerance:
        raise GeometryError(f"affine invariance violated: worst relative deviation {worst:.3e}")
    if cfg.out is not None:
        print(f"invariant within {worst:.3e} over {cfg.trials} maps")
    return 0


def _ccs_hull(points):
    return PolytopeN(np.vstack([points, -points]))


def _climb(points, value, rng, steps, sign):
    # local hill climb on the self-volume over CCS vertex perturbations from
    # points, whose self-volume is value; sign +1 maximizes, -1 minimizes
    best_pts, best = points, value
    rejected = 0
    for _ in range(steps):
        j = rng.integers(0, len(best_pts))
        cand = best_pts.copy()
        cand[j] = cand[j] + 0.1 * rng.normal(size=cand.shape[1])
        try:
            value = self_volume_recursive(_ccs_hull(cand)).value
        except (GeometryError, ValueError):
            rejected += 1
            continue
        if sign * (value - best) > 0.0:
            best_pts, best = cand, value
    return best, rejected


def _cmd_conjecture_search(cfg):
    n = cfg.dim

    def trial(t):
        rng = np.random.default_rng((cfg.seed, t))
        for _ in range(50):
            pts = rng.normal(size=(n + 1 + int(rng.integers(0, 3)), n))
            try:
                start = self_volume_recursive(_ccs_hull(pts)).value
                break
            except (GeometryError, ValueError) as exc:
                failure = exc
        else:
            raise failure
        hi, rej_hi = _climb(pts, start, rng, cfg.steps, +1)
        lo, rej_lo = _climb(pts, start, rng, cfg.steps, -1)
        return hi, lo, rej_hi + rej_lo

    results = [trial(t) for t in range(cfg.trials)]
    max_found = max(r[0] for r in results)
    min_found = min(r[1] for r in results)
    # the zonotope of e_1, ..., e_n and -(1, ..., 1), the hexagon in 2-D and an affine
    # rhombic dodecahedron in 3-D, has self-volume n + 1
    conjectured_min = float(n + 1)
    doc = {
        "dim": n,
        "trials": cfg.trials,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "max_found": max_found,
        "min_found": min_found,
        "conjectured_max": 2.0 ** n,
        "conjectured_min": conjectured_min,
        "within_conjecture": bool(max_found <= 2.0 ** n + cfg.tolerance
                                  and min_found >= conjectured_min - cfg.tolerance),
        "degenerate_rejections": int(sum(r[2] for r in results)),
    }
    _write_json(cfg.out, doc)
    return 0


_COMMANDS = {
    "perimeter": _cmd_perimeter,
    "volume": _cmd_volume,
    "center": _cmd_center,
    "kgon-table": _cmd_kgon_table,
    "alexandrov": _cmd_alexandrov,
    "invariance-check": _cmd_invariance_check,
    "conjecture-search": _cmd_conjecture_search,
}


def run(cfg):
    """Execute one config; returns the process exit code. Warnings print to
    stderr as they arise, one JSON object each, with no source location."""
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            json.dumps({"warning": {"message": str(message)}}), file=sys.stderr)
        try:
            cfg.validate()
            return _COMMANDS[cfg.command](cfg)
        except ShapeFormatError as exc:
            return _fail("shape-format", str(exc), field=exc.field)
        except (FourierDensityError, ClosureError) as exc:
            return _fail("density", str(exc))
        except GeometryError as exc:
            return _fail("geometry", str(exc))
        except ConvergenceError as exc:
            return _fail("convergence", str(exc))
        except OSError as exc:
            return _fail("io", str(exc))
        except (ValueError, RuntimeError) as exc:
            return _fail("config", str(exc))


def _fail(kind, message, field=None):
    doc = {"error": {"type": kind, "message": message}}
    if field is not None:
        doc["error"]["field"] = field
    print(json.dumps(doc), file=sys.stderr)
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="selfmetric",
        description="Self-perimeters, self-volumes, optimal centers, and the "
                    "inverse surface-measure problem for convex bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        # options left out stay out of the namespace, so RunConfig supplies the defaults
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", help="output file (stdout when omitted)")
        return p

    p = add("perimeter", "self-perimeter of a body, optionally off-center")
    p.add_argument("--shape", required=True)
    p.add_argument("--center", help="x,y base point (polygons; default centroid)")
    p.add_argument("--variant", choices=VARIANTS["perimeter"])
    p.add_argument("--nodes", type=int)

    p = add("volume", "recursive self-volume of a polytope")
    p.add_argument("--shape", required=True)
    p.add_argument("--csv", dest="facet_csv", help="also write the facet breakdown CSV")

    p = add("center", "perimeter-minimizing interior point of a polygon")
    p.add_argument("--seed", type=int)
    p.add_argument("--shape", required=True)
    p.add_argument("--variant", choices=VARIANTS["center"])
    p.add_argument("--restarts", type=int)

    p = add("kgon-table", "closed forms vs exact sums for regular k-gons")
    p.add_argument("--k-max", dest="k_max", type=int)

    p = add("alexandrov", "perturbative inverse problem for a target density")
    p.add_argument("--phi", required=True, help="density JSON file")
    p.add_argument("--epsilon", type=float, help="overrides the epsilon stored in the file")
    p.add_argument("--sign", choices=SIGNS)
    p.add_argument("--nodes", type=int)

    p = add("invariance-check", "self-volume under random linear maps")
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--shape", required=True)
    p.add_argument("--trials", type=int)

    p = add("conjecture-search", "random search for extremal CCS self-volumes")
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--steps", type=int)

    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    cfg = RunConfig(command=command, **args)
    sys.exit(run(cfg))


if __name__ == "__main__":
    main()
