"""Output checks for benchmark jobs.

Closed forms are checked wherever one exists (cube 2^n, simplex
(n+1)^n/n!, the product rule, the k-gon table, the triangle / parallelogram /
affine-regular k-gon centres (9, 8 and 6 for k = 3, 4, 6), the 9 bound and descent from the
start point, 2 omega = Busemann in the plane). For the golden seeds every
output value is also compared with golden.json at a relative bound of 1e-12
of the output's own magnitude (long outputs through a digest; see
digest_mismatch).

Centre optimum coordinates and iteration counts are left out of the golden
digests: they trace the optimiser's path, not the result. The optimum value
is compared, and all restarts must agree on it.

A job of the convergence probe (workloads.make_probe) whose optimiser does
not reach the minimum, because it stops on ConvergenceError or because its
restarts disagree on the optimum, is not a failure but is reported as
unconverged (a known defect, counted against success_rate). Its other checks
still hold. For the golden seeds golden.json records which probe jobs raised
ConvergenceError; one that gave a result there must give it again.
"""

from __future__ import annotations

import csv
import json
import math
import os

GOLDEN_REL = 1e-12      # ROADMAP bound for values that are not bit-identical
# bodies are random linear images; the recursion keeps affine invariance to
# about 1e-8 here, and the CLI's own invariance tolerance is 1e-6
CLOSED_FORM_REL = 1e-6
CENTER_REL = 1e-8       # optimiser stopping tolerance, well above its accuracy
SOLVER_PATH_FIELDS = ("optimum_x", "optimum_y", "iterations")
HEAD = 4                # leading values kept verbatim in a long digest
UNCONVERGED = {"error": "convergence"}   # golden entry: the job raised ConvergenceError


def read_output(path):
    """CSV as a list of row dicts (numbers parsed), JSON as the parsed document."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _numbers(doc, out):
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k not in SOLVER_PATH_FIELDS:
                _numbers(v, out)
    elif isinstance(doc, list):
        for v in doc:
            _numbers(v, out)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out.append(float(doc))
    return out


def digest(doc):
    """Every result value of a short output; count, head and sums of a long one."""
    xs = _numbers(doc, [])
    if len(xs) <= 3 * HEAD:
        return xs
    return {"n": len(xs), "head": xs[:HEAD], "sum": math.fsum(xs),
            "abs": math.fsum(abs(x) for x in xs),
            "wsum": math.fsum(x * (1 + i % 13) for i, x in enumerate(xs))}


def digest_mismatch(got, want):
    """None when two digests agree within GOLDEN_REL, else a reason.

    Short digests hold every value, compared at GOLDEN_REL of the output's
    largest magnitude. Long ones compare the leading values the same way and
    the sums at GOLDEN_REL of the sum of magnitudes (13x for the weighted sum),
    so a change confined to one value of n must exceed about n * GOLDEN_REL.
    """
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return "golden: number of values differs"
        pairs = [(a, b, max([abs(x) for x in want] + [1e-300])) for a, b in zip(got, want)]
    else:
        if not isinstance(got, dict) or got["n"] != want["n"]:
            return "golden: number of values differs"
        scale = max([abs(x) for x in want["head"]] + [want["abs"] / want["n"]])
        pairs = [(a, b, scale) for a, b in zip(got["head"], want["head"])]
        pairs += [(got[k], want[k], want["abs"] * (13 if k == "wsum" else 1))
                  for k in ("sum", "abs", "wsum")]
    for a, b, scale in pairs:
        if not abs(a - b) <= GOLDEN_REL * scale:
            return f"golden: {a!r} where {b!r} was recorded"
    return None


def _close(a, b, rel):
    return isinstance(a, float) and abs(a - b) <= rel * max(abs(b), 1.0)


def convergence_error(stderr):
    """True when a job's stderr is the CLI's report of a ConvergenceError."""
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]["type"] == "convergence"
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def check(job, exit_code, stderr, indir, outdir, golden=None):
    """(problems, unconverged) of one job: problems is empty when it is
    correct, unconverged the reason a probe job missed the minimum, or None.

    With golden (the entries of a golden seed) every job must have an entry.
    """
    from workloads import PROBE_KIND
    want = None
    if golden is not None:
        if job.id not in golden:
            return [f"golden: no entry for {job.id}"], False
        want = golden[job.id]
    if exit_code:
        if job.kind == PROBE_KIND and exit_code == 1 and convergence_error(stderr):
            reason = stderr.strip()
            if want is not None and want != UNCONVERGED:
                return ["ConvergenceError where golden.json records a result"], reason
            return [], reason
        return [f"exit code {exit_code}: {stderr.strip()}"], None
    path = os.path.join(outdir, job.out_name)
    if not os.path.exists(path):
        return ["no output file"], None
    try:
        doc = read_output(path)
    except (ValueError, OSError) as exc:
        return [f"unreadable output: {exc}"], None
    problems, inexact = [], []
    try:
        _closed_forms(job, doc, indir, problems, inexact)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    if want is not None and want != UNCONVERGED:   # a fixed optimiser may converge now
        reason = digest_mismatch(digest(doc), want)
        if reason:
            problems.append(reason)
    return problems, "; ".join(inexact) or None


def _closed_forms(job, doc, indir, problems, inexact):
    cmd = job.config["command"]
    want = job.expect
    rows = doc if isinstance(doc, list) else None

    def need(ok, message):
        if not ok:
            problems.append(message)

    if cmd == "volume":
        v = doc["value"]
        need(isinstance(v, float) and math.isfinite(v) and v > 0.0, f"bad value {v!r}")
        parts = math.fsum(f["contribution"] for f in doc["facets"]) / doc["dim"]
        need(abs(parts - v) <= 1e-12 * abs(v), "value is not the facet sum over dim")
        if "volume" in want:
            need(_close(v, want["volume"], CLOSED_FORM_REL),
                 f"self-volume {v!r}, closed form {want['volume']!r}")
        if job.kind == "volume/polygon":
            need(_close(2.0 * v, _busemann_at_origin(indir, job), CLOSED_FORM_REL),
                 "2 omega differs from the Busemann perimeter")
    elif cmd == "perimeter":
        need(len(rows) >= 1, "no rows")
        for r in rows:
            need(math.isfinite(r["value"]) and r["value"] > 0.0, f"bad value {r['value']!r}")
            if "perimeter" in want:
                need(_close(r["value"], want["perimeter"], CLOSED_FORM_REL),
                     f"{r['variant']} perimeter {r['value']!r}, closed form {want['perimeter']!r}")
        if job.config.get("variant") == "both":
            need([r["variant"] for r in rows] == ["directed", "busemann"], "missing variant")
    elif cmd == "invariance-check":
        need(len(rows) == job.config["trials"], "wrong trial count")
        for r in rows:
            need(r["rel_deviation"] <= 1e-6, f"affine invariance off by {r['rel_deviation']!r}")
            if "volume" in want:
                need(_close(r["value"], want["volume"], CLOSED_FORM_REL),
                     f"self-volume {r['value']!r}, product rule {want['volume']!r}")
    elif cmd == "center":
        values = [r["value"] for r in rows]
        need(len(rows) == job.config["restarts"], "wrong restart count")
        best = min(values)
        if max(values) - best > CENTER_REL * best:
            # a known defect on random polygons (the probe), a failure elsewhere
            from workloads import PROBE_KIND
            (inexact if job.kind == PROBE_KIND else problems).append(
                f"restarts disagree on the optimum: {values!r}")
        start = _perimeter_at_centroid(indir, job)
        need(values[0] <= start * (1.0 + 1e-12), "optimum above the value at the start point")
        if job.config.get("variant", "directed") == "directed":
            need(best <= 9.0 * (1.0 + 1e-12), f"optimum {best!r} above the bound 9")
        if "kgon" in want:
            closed = _kgon_optimum(want["kgon"], job.config.get("variant", "directed"))
            need(all(_close(v, closed, CENTER_REL) for v in values),
                 f"optimum {values!r}, closed form {closed!r}")
    elif cmd == "kgon-table":
        need(len(rows) == job.config["k_max"] - 2, "wrong row count")
        need(all(r["abs_diff"] <= 1e-10 for r in rows), "closed form and exact sum differ")
    elif cmd == "alexandrov":
        for key in ("phi0", "residual", "residual_classical"):
            need(math.isfinite(doc[key]), f"{key} is not finite")
        need(doc["residual"] >= 0.0 and doc["sign"] == job.config["sign"], "bad header")
        need(all(math.isfinite(x) for row in doc["radius_coeffs"] for x in row),
             "radius coefficients are not finite")
        need(doc["svg"].startswith("<svg"), "missing drawing")
    elif cmd == "conjecture-search":
        need(doc["within_conjecture"] is True, "search left the conjectured range")


def _kgon_optimum(k, variant):
    # affine images keep the optimum at the image of the centre; both variants
    # agree on centrally symmetric (even) k-gons
    import numpy as np
    from selfmetric.geometry import regular_polygon
    from selfmetric.perimeter2 import busemann_perimeter_polygon, kgon_self_perimeter
    if variant == "directed" or k % 2 == 0:
        return float(kgon_self_perimeter(k))
    return busemann_perimeter_polygon(regular_polygon(k), np.zeros(2)).value


def _load(indir, job):
    from selfmetric.shapeio import load_shape
    return load_shape(os.path.join(indir, job.config["shape"]))


def _busemann_at_origin(indir, job):
    import numpy as np
    from selfmetric.geometry import Polygon2
    from selfmetric.perimeter2 import busemann_perimeter_polygon
    with open(os.path.join(indir, job.config["shape"])) as fh:
        vertices = json.load(fh)["vertices"]   # written in CCW order
    return busemann_perimeter_polygon(Polygon2(vertices), np.zeros(2)).value


def _perimeter_at_centroid(indir, job):
    from selfmetric.perimeter2 import busemann_perimeter_polygon, self_perimeter_polygon
    body = _load(indir, job)
    fn = busemann_perimeter_polygon if job.config.get("variant") == "busemann" \
        else self_perimeter_polygon
    return fn(body, body.centroid).value
