"""Self-similar sets: similitudes, symbolic cells, dimension and geometry bounds.

A fractal here is the attractor of finitely many contracting similitudes
x -> ratio * O x + z with O orthogonal.  Cells are named by words of map
indices (1-based); the anchor of a cell is the image of a canonical base
point, and all geometric quantities (diameter, separation) are tracked as
certified bounds so that downstream energy estimates stay on the safe side.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFractalWarning,
    DomainError,
    ResourceBudgetError,
    SeparationWarning,
)

ORTHOGONALITY_TOL = 1e-10
MORAN_RESIDUAL_TOL = 1e-14
# anchor clouds are enumerated explicitly; M**depth must stay below this
DEFAULT_CLOUD_BUDGET = 1 << 18
# pairwise-distance scans (diameter / separation estimates) use a tighter cap
DEFAULT_SCAN_BUDGET = 1 << 13


@dataclass(frozen=True, eq=False)
class Similitude:
    """Contraction x -> ratio * rotation @ x + translation."""

    ratio: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=float)
        tra = np.array(self.translation, dtype=float).reshape(-1)
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise DomainError("rotation must be a square matrix")
        if tra.shape[0] != rot.shape[0]:
            raise DomainError("translation length must match rotation size")
        ratio = float(self.ratio)
        if not (0.0 < ratio < 1.0):
            raise DomainError(f"contraction ratio must lie in (0, 1), got {ratio}")
        gram_dev = float(np.abs(rot.T @ rot - np.eye(rot.shape[0])).max())
        if gram_dev > ORTHOGONALITY_TOL:
            raise DomainError(
                f"rotation is not orthogonal (max Gram deviation {gram_dev:.3e})"
            )
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def apply(self, points):
        """Map one p-vector or an (N, p) array of points."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        # einsum keeps the kernel single-threaded so results do not depend on
        # BLAS thread counts
        out = self.ratio * np.einsum("ij,nj->ni", self.rotation, pts) + self.translation
        return out[0] if single else out

    def fixed_point(self) -> np.ndarray:
        """The unique solution of psi(x) = x."""
        p = self.dim
        return np.linalg.solve(np.eye(p) - self.ratio * self.rotation, self.translation)


@dataclass(frozen=True)
class CellAddress:
    """Word (m_1, ..., m_l) of 1-based map indices; the empty word is the whole set."""

    word: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(int(m) for m in self.word))

    def __len__(self):
        return len(self.word)

    def __str__(self):
        return ".".join(str(m) for m in self.word)

    @classmethod
    def parse(cls, text: str) -> "CellAddress":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(tok) for tok in text.split(".")))

    def child(self, m: int) -> "CellAddress":
        return CellAddress(self.word + (int(m),))

    def prefix(self, length: int) -> "CellAddress":
        return CellAddress(self.word[:length])


def moran_dimension(ratios) -> float:
    """Solve sum(r_m ** d) = 1 for d (bisection, then a Newton polish).

    The left side is strictly decreasing in d for two or more maps, so the
    root is unique.  A single map is a degenerate (one point) system and
    returns 0 with a warning.
    """
    rs = [float(r) for r in ratios]
    if not rs:
        raise DomainError("need at least one contraction ratio")
    for r in rs:
        if not (0.0 < r < 1.0):
            raise DomainError(f"contraction ratio must lie in (0, 1), got {r}")
    if len(rs) == 1:
        warnings.warn(
            "single-map system: attractor is one point, dimension 0",
            DegenerateFractalWarning,
            stacklevel=2,
        )
        return 0.0
    arr = np.array(rs)

    def f(d):
        return float(np.sum(arr ** d)) - 1.0

    r_max = max(rs)
    lo = 0.0
    hi = max(1.0, math.log(len(rs)) / math.log(1.0 / r_max)) + 1.0
    while f(hi) >= 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    for _ in range(4):
        slope = float(np.sum(arr ** d * np.log(arr)))
        if slope == 0.0:
            break
        d -= f(d) / slope
    if abs(f(d)) >= MORAN_RESIDUAL_TOL:
        raise DomainError(
            f"dimension solve stalled at residual {abs(f(d)):.3e} "
            f"(tolerance {MORAN_RESIDUAL_TOL})"
        )
    return d


@dataclass(frozen=True, eq=False)
class Fractal:
    """Attractor of an iterated function system of similitudes.

    dimension solves the Moran equation for the given ratios; diameter and
    sigma (first-level separation) are either declared exactly or derived as
    certified bounds: diameter as an upper bound, sigma as a lower bound.
    """

    ambient_dim: int
    maps: tuple
    dimension: float
    diameter: float
    sigma: float
    label: str = ""

    @property
    def ratios(self) -> tuple:
        return tuple(m.ratio for m in self.maps)

    @property
    def r_max(self) -> float:
        return max(self.ratios)

    @property
    def equal_ratios(self) -> bool:
        rs = self.ratios
        return max(rs) - min(rs) <= 1e-15

    def base_anchor(self) -> np.ndarray:
        return self.maps[0].fixed_point()

    def fixed_points(self) -> np.ndarray:
        return np.stack([m.fixed_point() for m in self.maps])

    def apply_word(self, word, points):
        """Apply psi_{m_1} o ... o psi_{m_l} to points (innermost map last)."""
        out = np.asarray(points, dtype=float)
        for m in reversed(tuple(word)):
            out = self.maps[m - 1].apply(out)
        return out


def make_fractal(maps, label="", diameter=None, sigma=None, derive_depth=6) -> Fractal:
    """Assemble a Fractal, deriving dimension and any undeclared bounds."""
    maps = tuple(maps)
    if not maps:
        raise DomainError("need at least one similitude")
    p = maps[0].dim
    for m in maps:
        if m.dim != p:
            raise DomainError("all maps must share one ambient dimension")
    dimension = moran_dimension([m.ratio for m in maps])
    if dimension > p + 1e-12:
        warnings.warn(
            f"Moran exponent {dimension:.6g} exceeds ambient dimension {p}; "
            "the images must overlap",
            DegenerateFractalWarning,
            stacklevel=2,
        )
    frame = Fractal(
        ambient_dim=p,
        maps=maps,
        dimension=dimension,
        diameter=math.nan,
        sigma=math.nan,
        label=label,
    )
    if diameter is None:
        if len(maps) == 1:
            diameter = 0.0
        else:
            # store the certified cover, not the raw anchor spread, so cell
            # diameters computed from it stay upper bounds
            _, diameter = estimate_diameter(frame, depth=_cover_depth(frame, derive_depth))
            if not math.isfinite(diameter):
                raise ResourceBudgetError(
                    "could not certify a finite diameter at the derivation depth; "
                    "declare one explicitly"
                )
    else:
        diameter = float(diameter)
        if diameter < 0.0:
            raise DomainError("diameter must be nonnegative")
    object.__setattr__(frame, "diameter", diameter)
    if sigma is None:
        if len(maps) == 1:
            sigma = 0.0
            warnings.warn(
                "single-map system has no sibling cells; separation set to 0",
                DegenerateFractalWarning,
                stacklevel=2,
            )
        else:
            sigma = separation_sigma(frame, depth=derive_depth)
    else:
        sigma = float(sigma)
        if sigma < 0.0:
            raise DomainError("sigma must be nonnegative")
        if sigma == 0.0:
            warnings.warn(
                "declared separation is 0; asymptotic operations will reject "
                "this system",
                SeparationWarning,
                stacklevel=2,
            )
    object.__setattr__(frame, "sigma", sigma)
    return frame


def _cover_depth(fractal, depth):
    """Smallest depth >= `depth` whose cells are small enough to certify a cover."""
    M = len(fractal.maps)
    while fractal.r_max ** depth >= 0.5 and M ** depth <= DEFAULT_SCAN_BUDGET:
        depth += 1
    return depth


def cell_anchor(fractal: Fractal, address: CellAddress, refine_depth: int = 0) -> np.ndarray:
    """Representative point psi_{m_1} o ... o psi_{m_l}(b) of a cell.

    The base anchor b is the fixed point of the first map, so appending
    copies of index 1 (refine_depth) never moves an exact anchor; it only
    contracts numerical error in b.  The returned point lies within
    cell_diameter(address) of every point of the cell.
    """
    if refine_depth < 0:
        raise DomainError("refine_depth must be nonnegative")
    M = len(fractal.maps)
    for m in address.word:
        if not 1 <= m <= M:
            raise DomainError(f"address index {m} outside 1..{M}")
    word = address.word + (1,) * refine_depth
    return fractal.apply_word(word, fractal.base_anchor())


def cell_diameter(fractal: Fractal, address: CellAddress) -> float:
    """Diameter bound of the cell: the in-order ratio product times diameter."""
    prod = 1.0
    M = len(fractal.maps)
    for m in address.word:
        if not 1 <= m <= M:
            raise DomainError(f"address index {m} outside 1..{M}")
        prod *= fractal.maps[m - 1].ratio
    return prod * fractal.diameter


def anchor_cloud(fractal: Fractal, depth: int, budget: int = DEFAULT_CLOUD_BUDGET) -> np.ndarray:
    """All depth-`depth` cell anchors, rows in lexicographic word order."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    M = len(fractal.maps)
    if M ** depth > budget:
        raise ResourceBudgetError(
            f"{M}**{depth} anchors exceed the enumeration budget {budget}"
        )
    pts = fractal.base_anchor()[None, :]
    for _ in range(depth):
        pts = np.concatenate([m.apply(pts) for m in fractal.maps], axis=0)
    return pts


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(K, N) squared distances, accumulated coordinate by coordinate."""
    d2 = (a[:, 0, None] - b[None, :, 0]) ** 2
    for k in range(1, a.shape[1]):
        d2 += (a[:, k, None] - b[None, :, k]) ** 2
    return d2


def _chunked_sq_dists(a: np.ndarray, b: np.ndarray, reduce_min: bool) -> float:
    """Min or max squared distance between two point clouds, in bounded memory."""
    best = math.inf if reduce_min else -math.inf
    step = 1024
    for i in range(0, a.shape[0], step):
        d2 = _sq_dists(a[i : i + step], b)
        val = float(d2.min()) if reduce_min else float(d2.max())
        best = min(best, val) if reduce_min else max(best, val)
    return best


def estimate_diameter(fractal: Fractal, depth: int, budget: int = DEFAULT_SCAN_BUDGET):
    """(estimate, upper_bound) for the attractor diameter from depth-l anchors.

    estimate is the max pairwise anchor distance (a lower bound); the upper
    bound estimate / (1 - 2 r_max**depth) is valid whenever r_max**depth < 1/2
    and is +inf otherwise.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    pts = anchor_cloud(fractal, depth, budget=budget)
    estimate = math.sqrt(max(_chunked_sq_dists(pts, pts, reduce_min=False), 0.0))
    shrink = fractal.r_max ** depth
    if shrink >= 0.5:
        return estimate, math.inf
    return estimate, estimate / (1.0 - 2.0 * shrink)


def separation_sigma(fractal: Fractal, depth: int, budget: int = DEFAULT_SCAN_BUDGET) -> float:
    """Certified lower bound for the distance between first-level images.

    Splits the depth-l anchor cloud by leading letter, takes the least
    distance between distinct blocks and subtracts twice the largest depth-l
    cell diameter.  Clamped at 0 (with a warning) when nothing positive can
    be certified.
    """
    M = len(fractal.maps)
    if M < 2:
        raise DomainError("separation needs at least two maps")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    pts = anchor_cloud(fractal, depth, budget=budget)
    block = M ** (depth - 1)
    cross = math.inf
    for i in range(M):
        for j in range(i + 1, M):
            a = pts[i * block : (i + 1) * block]
            b = pts[j * block : (j + 1) * block]
            cross = min(cross, _chunked_sq_dists(a, b, reduce_min=True))
    cross = math.sqrt(max(cross, 0.0))
    slack = 2.0 * (fractal.r_max ** depth) * fractal.diameter
    bound = cross - slack
    if bound <= 0.0:
        warnings.warn(
            f"no positive separation certified at depth {depth} "
            f"(cloud distance {cross:.3e}, slack {slack:.3e})",
            SeparationWarning,
            stacklevel=2,
        )
        return 0.0
    return bound


def first_level_cloud_distance(fractal: Fractal, depth: int, budget: int = DEFAULT_SCAN_BUDGET) -> float:
    """Least distance between anchor clouds of distinct first-level images."""
    M = len(fractal.maps)
    if M < 2:
        raise DomainError("needs at least two maps")
    pts = anchor_cloud(fractal, depth, budget=budget)
    block = M ** (depth - 1)
    cross = math.inf
    for i in range(M):
        for j in range(i + 1, M):
            a = pts[i * block : (i + 1) * block]
            b = pts[j * block : (j + 1) * block]
            cross = min(cross, _chunked_sq_dists(a, b, reduce_min=True))
    return math.sqrt(max(cross, 0.0))


# ---------------------------------------------------------------------------
# catalog and JSON loading

def _sim_1d(ratio, shift):
    return Similitude(ratio, np.array([[1.0]]), np.array([float(shift)]))


def cantor(r) -> Fractal:
    """Two-map Cantor set on [0, 1] with contraction r in (0, 1/2)."""
    r = parse_number(r)
    if not (0.0 < r < 0.5):
        raise DomainError(f"cantor ratio must lie in (0, 1/2), got {r}")
    maps = (_sim_1d(r, 0.0), _sim_1d(r, 1.0 - r))
    return make_fractal(maps, label=f"cantor({r:g})", diameter=1.0, sigma=1.0 - 2.0 * r)


def cantor_dust_2d(r) -> Fractal:
    """Four corner maps of the unit square, contraction r in (0, 1/2)."""
    r = parse_number(r)
    if not (0.0 < r < 0.5):
        raise DomainError(f"cantor-dust-2d ratio must lie in (0, 1/2), got {r}")
    eye = np.eye(2)
    corners = [(0.0, 0.0), (1.0 - r, 0.0), (0.0, 1.0 - r), (1.0 - r, 1.0 - r)]
    maps = tuple(Similitude(r, eye, np.array(c)) for c in corners)
    return make_fractal(
        maps, label=f"cantor-dust-2d({r:g})", diameter=math.sqrt(2.0), sigma=1.0 - 2.0 * r
    )


def uniform_line(m, r) -> Fractal:
    """m equally spaced collinear maps on [0, 1]; gaps (1 - m r)/(m - 1)."""
    m = int(m)
    r = parse_number(r)
    if m < 2:
        raise DomainError("uniform(M, r) needs M >= 2")
    if not (0.0 < r < 1.0):
        raise DomainError(f"contraction ratio must lie in (0, 1), got {r}")
    gap = (1.0 - m * r) / (m - 1)
    spacing = (1.0 - r) / (m - 1)
    maps = tuple(_sim_1d(r, i * spacing) for i in range(m))
    sigma = gap if gap > 0.0 else 0.0
    if gap <= 0.0:
        warnings.warn(
            f"uniform({m},{r:g}) cells overlap (gap {gap:.3e}); separation set to 0",
            DegenerateFractalWarning,
            stacklevel=2,
        )
    return make_fractal(maps, label=f"uniform({m},{r:g})", diameter=1.0, sigma=sigma)


def parse_number(text) -> float:
    """Parse a decimal or a fraction like 1/3."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


_CATALOG_RE = re.compile(r"^\s*([a-zA-Z][a-zA-Z0-9\-]*)\s*\(([^()]*)\)\s*$")


def from_catalog(text: str) -> Fractal:
    match = _CATALOG_RE.match(text)
    if not match:
        raise DomainError(f"not a catalog fractal: {text!r}")
    name = match.group(1).lower()
    args = [tok for tok in match.group(2).split(",") if tok.strip()]
    if name == "cantor":
        if len(args) != 1:
            raise DomainError("cantor(r) takes one argument")
        return cantor(parse_number(args[0]))
    if name == "cantor-dust-2d":
        if len(args) != 1:
            raise DomainError("cantor-dust-2d(r) takes one argument")
        return cantor_dust_2d(parse_number(args[0]))
    if name == "uniform":
        if len(args) != 2:
            raise DomainError("uniform(M, r) takes two arguments")
        return uniform_line(int(args[0]), parse_number(args[1]))
    raise DomainError(f"unknown catalog fractal {name!r}")


def fractal_from_spec(doc: dict) -> Fractal:
    """Build a fractal from its JSON description."""
    if not isinstance(doc, dict):
        raise DomainError("fractal description must be a JSON object")
    try:
        p = int(doc["ambient_dim"])
        raw_maps = doc["maps"]
    except KeyError as exc:
        raise DomainError(f"fractal description missing key {exc}") from exc
    if p < 1:
        raise DomainError("ambient_dim must be positive")
    maps = []
    for entry in raw_maps:
        ratio = float(entry["ratio"])
        rot = entry.get("rotation")
        if rot is None:
            rot = np.eye(p)
        else:
            rot = np.array(rot, dtype=float).reshape(p, p)  # row-major
        tra = np.array(entry["translation"], dtype=float).reshape(p)
        maps.append(Similitude(ratio, rot, tra))
    return make_fractal(
        maps,
        label=str(doc.get("label", "")),
        diameter=doc.get("diameter"),
        sigma=doc.get("sigma"),
    )


def load_fractal(source) -> Fractal:
    """Accept a Fractal, a catalog name, a JSON file path, or a spec dict."""
    if isinstance(source, Fractal):
        return source
    if isinstance(source, dict):
        return fractal_from_spec(source)
    text = str(source)
    if _CATALOG_RE.match(text):
        return from_catalog(text)
    with open(text, "r", encoding="utf-8") as handle:
        return fractal_from_spec(json.load(handle))
