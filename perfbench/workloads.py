"""Seeded job lists for the three benchmark workloads.

A run is a sequence of rounds. Every round of a workload has the same mix of
job classes with fixed counts, so the per-job percentiles land inside one
class for every seed; the seed only draws the bodies inside each class
(random linear maps, random vertices, random harmonics). Round r of seed s is
drawn from its own generator, so the same (seed, round) always writes the
same files and the same job list.

Bodies are built here with plain numpy and written as JSON, so the program
under test sees only the generated files.

Why these workloads (the mix of each round is in the _round_* functions):

- polytope_recursion: `volume`, `perimeter` (the surface-measure path) and
  `invariance-check` on cubes, icospheres, simplices, products of polygons
  and random centrally symmetric bodies in 3-D and 4-D. Deep central-section
  recursion with heavy subspace reuse and large facet counts.
- smooth_inverse: `alexandrov` at 1024/2048/4096 nodes, both signs, on
  densities with aligned harmonics, plus `perimeter` on radius profiles at
  512-8192 nodes. Dense Fourier evaluation, no qhull.
- planar_batch: many small planar jobs (`center` with five restarts on
  affine-regular 3-64-gons, `perimeter --variant both` and 2-D `volume` on
  random polygons including thin ones, `kgon-table`, `conjecture-search
  --dim 2`). Per-call overhead, optimiser iterations and many tiny qhull
  builds with no section reuse. After the timed jobs, `center` on random
  3-64-gons, thin ones included (make_probe).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("polytope_recursion", "smooth_inverse", "planar_batch")
ROUND_JOBS = {"polytope_recursion": 40, "smooth_inverse": 40, "planar_batch": 20}
MIN_JOBS = 100   # p90 needs at least ten samples above it
WARMUP_ROUND = 1_000_000   # round index of the untimed warm-up jobs
PROBE_ROUND = 2_000_000    # generator index of the convergence probe
PROBE_JOBS = 12            # center jobs on random polygons per planar_batch run
# Job time of one round at the parent commit, in reported seconds (see
# run.CAL_REF_S), from runs on a 2-vCPU x86_64 host. A run of S seconds is a
# fixed job list of S / NOMINAL_ROUND_S rounds, so its jobs take about S
# seconds at that commit and the list depends only on the arguments.
NOMINAL_ROUND_S = {"polytope_recursion": 4.0, "smooth_inverse": 8.5, "planar_batch": 0.6}


def run_rounds(workload, seconds):
    """Rounds in the fixed job list of a run of `seconds`; at least MIN_JOBS jobs."""
    return max(-(-MIN_JOBS // ROUND_JOBS[workload]),
               round(seconds / NOMINAL_ROUND_S[workload]))

PROBE_KIND = "center/random"

# omega of a centred polygon = half its Busemann perimeter at the centre:
# triangle at the centroid 9/2, parallelogram 8/2, affine-regular hexagon 6/2
POLYGON_OMEGA = {3: 4.5, 4: 4.0, 6: 3.0}


@dataclass
class Job:
    id: str                 # "r<round>-<index>", also the output file stem
    kind: str               # job class, e.g. "volume/cube5"
    config: dict            # RunConfig fields; file fields are names in the input dir
    expect: dict = field(default_factory=dict)   # closed-form oracle data

    @property
    def out_name(self):
        return self.id + (".json" if self.config["command"] in ("volume", "alexandrov",
                                                                 "conjecture-search")
                          else ".csv")


def round_rng(workload, seed, r):
    return np.random.default_rng([WORKLOADS.index(workload), int(seed), int(r)])


# ---------------------------------------------------------------------------
# bodies (vertex arrays)


def random_map(rng, n, spread=2.0):
    """Well-conditioned linear map with positive determinant."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q1 @ np.diag(np.exp(rng.uniform(-np.log(spread), np.log(spread), n))) @ q2
    if np.linalg.det(m) < 0.0:
        m[:, 0] = -m[:, 0]
    return m


def cube_vertices(n):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def simplex_vertices(rng, n):
    v = rng.normal(size=(n + 1, n))
    return v - v.mean(axis=0)   # centroid at the origin


def icosphere_vertices(subdivisions):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [np.array(p, dtype=float) / math.sqrt(1.0 + phi * phi) for p in
             [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
              (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
              (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        mid = {}

        def m(i, j):
            key = (min(i, j), max(i, j))
            if key not in mid:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                mid[key] = len(verts) - 1
            return mid[key]

        faces = [t for a, b, c in faces
                 for t in ((a, m(a, b), m(a, c)), (b, m(b, c), m(a, b)),
                           (c, m(a, c), m(b, c)), (m(a, b), m(b, c), m(a, c)))]
    return np.array(verts)


def regular_polygon_vertices(k, phase=0.0):
    ang = phase + 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(ang), np.sin(ang)])


def centred(v):
    """Shift a CCW polygon so its area centroid is the origin."""
    w = np.roll(v, -1, axis=0)
    c = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    return v - (v + w).T @ c / (3.0 * np.sum(c))


def random_polygon_vertices(rng, k, thin=False):
    """Convex k-gon inscribed in an ellipse, CCW; thin ones have aspect 8-20."""
    ang = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k
    v = np.column_stack([np.cos(ang), np.sin(ang)])
    aspect = rng.uniform(8.0, 20.0) if thin else rng.uniform(1.0, 2.0)
    t = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return (v * [1.0, 1.0 / aspect]) @ rot.T + rng.normal(scale=0.3, size=2)


def product_vertices(a, b):
    return np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])


def ccs_vertices(rng, n, pairs):
    """Centrally symmetric body on 2 * pairs random points of the unit sphere.

    All points are vertices. Gaussian points left some inside, and the facet
    count of a 14-vertex 4-polytope, and with it the job's cost, then varied
    three times as much (sd 18 % against 6 %).
    """
    pts = rng.normal(size=(pairs, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([pts, -pts])


# ---------------------------------------------------------------------------
# writing


class _Writer:
    def __init__(self, indir, prefix):
        self.indir = indir
        self.prefix = prefix
        self.jobs = []

    def shape(self, name, doc):
        fname = f"{self.prefix}-{name}.json"
        with open(os.path.join(self.indir, fname), "w") as fh:
            json.dump(doc, fh)
        return fname

    def polytope(self, name, v):
        return self.shape(name, {"type": "polytope", "dim": int(v.shape[1]),
                                 "vertices": v.tolist()})

    def polygon(self, name, v):
        return self.shape(name, {"type": "polygon2", "vertices": v.tolist()})

    def job(self, kind, expect=None, **config):
        self.jobs.append((kind, config, expect or {}))


def make_round(workload, seed, r, indir):
    """Write round r's input files into indir and return its job list."""
    rng = round_rng(workload, seed, r)
    w = _Writer(indir, f"r{r}")
    {"polytope_recursion": _round_polytope,
     "smooth_inverse": _round_smooth,
     "planar_batch": _round_planar}[workload](w, rng)
    order = rng.permutation(len(w.jobs))
    return [Job(f"r{r}-{i:02d}", *w.jobs[j]) for i, j in enumerate(order)]


def make_probe(workload, seed, indir):
    """Write the convergence probe's inputs and return its jobs (planar_batch only).

    `center` with five restarts, both variants, on PROBE_JOBS random
    3-64-gons, a third of them thin. The optimiser raises ConvergenceError on
    some of them after 10,000 iterations (10 of 120 such jobs in one sample,
    each 1.9-9.6 s against a median of 0.23 s). How many fail is a draw of the
    seed, and their cost would swing a timed run by tens of percent, so the
    probe runs after the timed jobs: its outcomes count in success_rate and
    its spans in the traced run, and its latencies stay out of the job times.
    """
    if workload != "planar_batch":
        return []
    rng = round_rng(workload, seed, PROBE_ROUND)
    w = _Writer(indir, "probe")
    for i in range(PROBE_JOBS):
        v = random_polygon_vertices(rng, int(rng.integers(3, 65)), thin=i % 3 == 2)
        f = w.polygon(f"center{i}", v)
        w.job(PROBE_KIND, command="center", shape=f, restarts=5,
              seed=int(rng.integers(1 << 30)), variant=("directed", "busemann")[i % 2])
    return [Job(f"probe-{i:02d}", *job) for i, job in enumerate(w.jobs)]


def _round_polytope(w, rng):
    def mapped(v):
        return v @ random_map(rng, v.shape[1]).T

    def product(tag):
        ka, kb = (3, 4, 6)[rng.integers(3)], (3, 4, 6)[rng.integers(3)]
        factors = [mapped(regular_polygon_vertices(k, rng.uniform(0.0, 2.0 * np.pi)))
                   for k in (ka, kb)]
        return (w.polytope(tag, product_vertices(*factors)),
                {"volume": POLYGON_OMEGA[ka] * POLYGON_OMEGA[kb]})

    def simplex_volume(n):
        return (n + 1) ** n / math.factorial(n)

    for h in range(2):
        # small (2 x 12 of 40): 3-D and 4-D bodies with few facets
        for n in (3, 4):
            f = w.polytope(f"{h}cube{n}", mapped(cube_vertices(n)))
            w.job(f"volume/cube{n}", {"volume": 2.0 ** n}, command="volume", shape=f)
            f = w.polytope(f"{h}simplex{n}", simplex_vertices(rng, n))
            w.job(f"volume/simplex{n}", {"volume": simplex_volume(n)}, command="volume", shape=f)
        f = w.polytope(f"{h}cube3p", mapped(cube_vertices(3)))
        w.job("perimeter/cube3", {"perimeter": 3 * 8.0}, command="perimeter", shape=f)
        f = w.polytope(f"{h}simplex3p", simplex_vertices(rng, 3))
        w.job("perimeter/simplex3", {"perimeter": 3 * simplex_volume(3)},
              command="perimeter", shape=f)
        for i in range(2):
            f = w.polytope(f"{h}ccs3v{i}", ccs_vertices(rng, 3, int(rng.integers(4, 9))))
            w.job("volume/ccs3", command="volume", shape=f)
        f = w.polytope(f"{h}ccs3p", ccs_vertices(rng, 3, int(rng.integers(4, 9))))
        w.job("perimeter/ccs3", command="perimeter", shape=f)
        f = w.polytope(f"{h}cube3i", mapped(cube_vertices(3)))
        w.job("invariance/cube3", {"volume": 8.0}, command="invariance-check", shape=f,
              trials=3, seed=int(rng.integers(1 << 30)))
        f = w.polytope(f"{h}simplex3i", simplex_vertices(rng, 3))
        w.job("invariance/simplex3", {"volume": simplex_volume(3)}, command="invariance-check",
              shape=f, trials=3, seed=int(rng.integers(1 << 30)))
        f, want = product(f"{h}prodv")
        w.job("volume/product", want, command="volume", shape=f)
        # medium (2 x 4): 4-cube surface measure, product rule under maps, an
        # 8-vertex CCS 4-polytope, then the 5-cube and icosphere(1)
        f = w.polytope(f"{h}cube4p", mapped(cube_vertices(4)))
        w.job("perimeter/cube4", {"perimeter": 4 * 16.0}, command="perimeter", shape=f)
        f, want = product(f"{h}prodi")
        w.job("invariance/product", want, command="invariance-check", shape=f, trials=2,
              seed=int(rng.integers(1 << 30)))
        f = w.polytope(f"{h}ccs4v", ccs_vertices(rng, 4, 4))
        w.job("volume/ccs4-8", command="volume", shape=f)
        f = w.polytope(f"{h}cube5v", mapped(cube_vertices(5)))
        w.job("volume/cube5", {"volume": 32.0}, command="volume", shape=f)
        f = w.polytope(f"{h}ico1v", mapped(icosphere_vertices(1)))
        w.job("volume/icosphere1", command="volume", shape=f)
        # large (2 x 2), where p90 falls: surface measures of the 5-cube and
        # icosphere(1); their cost does not depend on the seed
        f = w.polytope(f"{h}cube5p", mapped(cube_vertices(5)))
        w.job("perimeter/cube5", {"perimeter": 5 * 32.0}, command="perimeter", shape=f)
        f = w.polytope(f"{h}ico1p", mapped(icosphere_vertices(1)))
        w.job("perimeter/icosphere1", command="perimeter", shape=f)
    # top (2 of 40): icosphere(2) with 320 facets, a 14-vertex CCS 4-polytope
    f = w.polytope("ico2v", mapped(icosphere_vertices(2)))
    w.job("volume/icosphere2", command="volume", shape=f)
    f = w.polytope("ccs4v14", ccs_vertices(rng, 4, 7))
    w.job("volume/ccs4-14", command="volume", shape=f)


def _aligned_density(rng):
    """Zero-mean density with a k=4 harmonic, a random second aligned one
    and 1-3 non-aligned ones."""
    coeffs = [[4, float(rng.uniform(0.3, 0.6)), float(rng.uniform(-0.2, 0.2))]]
    if rng.random() < 0.5:
        coeffs.append([8, float(rng.uniform(-0.15, 0.15)), 0.0])
    for k in rng.choice([1, 2, 3, 5, 6, 7], size=int(rng.integers(1, 4)), replace=False):
        coeffs.append([int(k), float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2))])
    return {"coeffs": coeffs, "epsilon": float(rng.choice([0.005, 0.01, 0.02]))}


def _round_smooth(w, rng):
    # perimeter on radius profiles (28 of 40), where p50 falls. Fewer nodes
    # come with more harmonics, so that every job evaluates about 0.6 million
    # Fourier terms (2048-point validity check plus quadrature) and costs the same.
    for i, (nodes, kmax) in enumerate(((512, 39), (1024, 33), (2048, 24), (4096, 16),
                                       (8192, 10), (512, 39), (2048, 24)) * 4):
        ks = np.arange(1, kmax + 1)
        amp = 0.02 * rng.uniform(-1.0, 1.0, (2, kmax)) / ks ** 3   # smooth and convex
        coeffs = [[0, 1.0, 0.0]] + [[int(k), float(a), float(b)]
                                    for k, a, b in zip(ks, amp[0], amp[1])]
        f = w.shape(f"profile{i}", {"type": "radius_profile", "coeffs": coeffs})
        w.job(f"perimeter/profile{nodes}", command="perimeter", shape=f, nodes=nodes)
    # alexandrov (12 of 40): ten at 1024 nodes, one each at 2048 and 4096
    for i, nodes in enumerate((1024,) * 10 + (2048, 4096)):
        f = w.shape(f"phi{i}", _aligned_density(rng))
        w.job(f"alexandrov/{nodes}", command="alexandrov", phi=f, nodes=nodes,
              sign=("plus", "minus")[i % 2])


def _round_planar(w, rng):
    def affine(v):
        return v @ random_map(rng, 2, 1.5).T + rng.normal(scale=0.5, size=2)

    # tiny (7 of 20): both perimeters at the centroid, k-gon table, 2-D self-volume
    for k in (3, 4, 6):
        f = w.polygon(f"perim{k}", affine(regular_polygon_vertices(k)))
        w.job(f"perimeter/special{k}", {"perimeter": 2.0 * POLYGON_OMEGA[k]},
              command="perimeter", shape=f, variant="both")
    f = w.polygon("perimr", random_polygon_vertices(rng, int(rng.integers(5, 65)), thin=True))
    w.job("perimeter/random", command="perimeter", shape=f, variant="both")
    w.job("kgon-table", command="kgon-table", k_max=int(rng.integers(12, 33)))
    for i in range(2):
        k = int(rng.integers(3, 17))
        f = w.polytope(f"vol2-{i}", centred(random_polygon_vertices(rng, k, thin=i == 1)))
        w.job("volume/polygon", command="volume", shape=f)
    # centre optimisation (12 of 20) on affine-regular k-gons; the optimum is
    # the image of the centre, with a closed-form value. Aspect stays at most
    # 2.25, where the optimiser converges; random and thin polygons are
    # centred by the convergence probe (make_probe). The directed solves
    # below other than the hexagon cost about the same, so p50 falls inside
    # them; Busemann solves on odd k cost about twice as much and hold p90
    # with the conjecture search; k = 6 (and 10) costs about five times as much.
    for i, (k, variant) in enumerate(
            [(k, "directed") for k in (3, 4, 5, 6, 7, 8, 12, 16, 32)]
            + [(k, "busemann") for k in (3, 5, 7)]):
        f = w.polygon(f"center{i}", affine(regular_polygon_vertices(k, rng.uniform(0, 2 * np.pi))))
        w.job("center/affine-regular", {"kgon": k}, command="center", shape=f, restarts=5,
              seed=int(rng.integers(1 << 30)), variant=variant)
    # conjecture search (1 of 20)
    w.job("conjecture-search/2d", command="conjecture-search", dim=2, trials=2, steps=12,
          seed=int(rng.integers(1 << 30)))
