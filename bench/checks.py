"""Correctness checks on one task's artifacts, independent of rieszfrac.

Each check reads what `rieszfrac run` wrote and returns (failures, normalized
energies).  Energies are re-evaluated here with plain numpy and math.fsum, and
the similarity dimension is solved here from the Moran equation, so a wrong
library kernel cannot confirm itself.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

ENERGY_RTOL = 1e-12
# normalization goes through two independent dimension solves
NORMALIZED_RTOL = 1e-9
TAIL_SLACK = 1e-9
UNIT_ROUNDOFF = float(np.finfo(float).eps)

_CATALOG = re.compile(r"^\s*([a-z0-9\-]+)\s*\(([^()]*)\)\s*$")
_CATALOG_MAPS = {"cantor": 2, "cantor-dust-2d": 4}


def _number(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def ratios(fractal) -> list:
    """Contraction ratios of a benchmark fractal (spec dict or catalog name)."""
    if isinstance(fractal, dict):
        return [float(m["ratio"]) for m in fractal["maps"]]
    name, arg = _CATALOG.match(fractal).groups()
    return [_number(arg)] * _CATALOG_MAPS[name]


def moran_dimension(rs) -> float:
    """Root d of sum r_i^d = 1, by bisection to the last bit."""
    lo, hi = 0.0, 1.0
    while sum(r ** hi for r in rs) > 1.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if sum(r ** mid for r in rs) > 1.0:
            lo = mid
        else:
            hi = mid


def pair_energy(points: np.ndarray, s: float) -> float:
    """Ordered-pair Riesz s-energy, row by row with exactly rounded sums."""
    rows = []
    for i in range(points.shape[0]):
        r2 = ((points - points[i]) ** 2).sum(axis=1)
        r2[i] = np.inf
        rows.append(math.fsum(r2 ** (-0.5 * s)))
    return math.fsum(rows)


def _table(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def _json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _normalized(energy, n, s, d):
    return energy / float(n) ** (1.0 + s / d)


def _check_minimize(doc, out, d):
    fails = []
    summary = _json(os.path.join(out, "minimize_summary.json"))
    rows = _table(os.path.join(out, "minimize_points.csv"))
    cols = sorted((k for k in rows[0] if re.fullmatch(r"x\d+", k)), key=lambda k: int(k[1:]))
    pts = np.array([[float(r[c]) for c in cols] for r in rows])
    if pts.shape[0] != doc["n"]:
        fails.append(f"minimize wrote {pts.shape[0]} points for N={doc['n']}")
    energy = pair_energy(pts, doc["s"])
    if not _close(summary["energy"], energy, ENERGY_RTOL):
        fails.append(f"minimize energy {summary['energy']!r} != re-evaluated {energy!r}")
    norm = _normalized(summary["energy"], doc["n"], doc["s"], d)
    if not _close(summary["normalized"], norm, NORMALIZED_RTOL):
        fails.append(f"minimize normalized {summary['normalized']!r} != {norm!r}")
    return fails, [summary["normalized"]]


def _check_geometric_limit(doc, out, d):
    fails = []
    rows = _table(os.path.join(out, "geometric_limit.csv"))
    if len(rows) != doc["k_max"] + 1:
        fails.append(f"geometric-limit wrote {len(rows)} stages for k_max={doc['k_max']}")
    values = []
    for j, row in enumerate(rows):
        n, energy, norm = int(row["N"]), float(row["energy"]), float(row["normalized"])
        if not _close(norm, _normalized(energy, n, doc["s"], d), NORMALIZED_RTOL):
            fails.append(f"geometric-limit stage {j}: normalized {norm!r} inconsistent")
        if j >= 1:
            prev = rows[j - 1]
            delta, tail = float(row["delta"]), float(prev["tail_bound"])
            # The bound holds in exact arithmetic.  Coordinates in the unit
            # cube are off by about one unit roundoff, which moves a pair term
            # |x - y|^-s by a relative s * eps / |x - y|; at N = 8192 that
            # rounding exceeds the tail bound itself, so it is allowed for.
            closest = min(float(row["min_distance"]), float(prev["min_distance"]))
            rounding = doc["s"] * UNIT_ROUNDOFF / closest \
                * (norm + float(prev["normalized"]))
            if not delta <= tail * (1.0 + TAIL_SLACK) + rounding:
                fails.append(f"geometric-limit stage {j}: delta {delta!r} > tail bound "
                             f"{tail!r} + rounding {rounding!r}")
        values.append(norm)
    return fails, values


def _check_g_curve(doc, out, d):
    fails = []
    rows = _table(os.path.join(out, "g_curve_samples.csv"))
    want = doc["n_max"] - doc["n_min"] + 1
    if len(rows) != want:
        fails.append(f"g-curve wrote {len(rows)} samples, expected {want}")
    values = [float(r["normalized"]) for r in rows]
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        fails.append("g-curve normalized values must be finite and positive")
    return fails, values


def _check_monotonicity(doc, out, d):
    fails = []
    summary = _json(os.path.join(out, "monotonicity_summary.json"))
    if summary["violations"] or not summary["monotone"]:
        fails.append(f"monotonicity violations at N={summary['violations']}")
    rows = _table(os.path.join(out, "monotonicity.csv"))
    if [int(r["N"]) for r in rows] != list(range(doc["n_min"], doc["n_max"] + 1)):
        fails.append("monotonicity rows do not cover n_min..n_max")
    return fails, [_normalized(float(r["energy"]), int(r["N"]), doc["s"], d) for r in rows]


def _check_packing(doc, out, d):
    summary = _json(os.path.join(out, "packing_summary.json"))
    fails = [] if summary["certified"] is True else ["packing not certified"]
    return fails, []


CHECKS = {
    "minimize": _check_minimize,
    "geometric-limit": _check_geometric_limit,
    "g-curve": _check_g_curve,
    "monotonicity": _check_monotonicity,
    "packing": _check_packing,
}


def check_task(doc: dict, out: str):
    """(failures, normalized energies) for one experiment's artifact directory."""
    d = moran_dimension(ratios(doc["fractal"]))
    try:
        return CHECKS[doc["experiment"]](doc, out, d)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"], []
