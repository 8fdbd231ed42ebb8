"""Self-similar sets: similitudes, symbolic cells, dimension and geometry bounds.

A fractal here is the attractor of finitely many contracting similitudes
x -> ratio * O x + z with O orthogonal.  Cells are named by words of map
indices (1-based); the anchor of a cell is the image of a canonical base
point, and all geometric quantities (diameter, separation) are tracked as
certified bounds so that downstream energy estimates stay on the safe side.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFractalWarning,
    DomainError,
    ResourceBudgetError,
    SeparationWarning,
    UsageError,
)

ORTHOGONALITY_TOL = 1e-10
MORAN_RESIDUAL_TOL = 1e-14
# anchor clouds are enumerated explicitly; M**depth must stay below this
DEFAULT_CLOUD_BUDGET = 1 << 18
# pairwise-distance scans (diameter / separation estimates) use a tighter cap
DEFAULT_SCAN_BUDGET = 1 << 13
# rows per block of the distance loops; each block holds O(N * PAIR_BLOCK) floats
PAIR_BLOCK = 64


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
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(tra))):
            raise DomainError("rotation and translation must be finite")
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


def _word_text(word: tuple) -> str:
    """Dotted text form of a cell word: "1.2.1", "" for the empty word.

    Private so that bench/spans.py, which wraps every public function of
    each layer, does not record a span per address written."""
    return ".".join(map(str, word))


def _cell_word(word, M: int = None) -> tuple:
    """A cell word as a tuple of ints.  A string, or a letter that is no
    integer (numpy integers are), is a DomainError; with M given, so is a
    letter outside 1..M.  Private like _word_text: it runs once per address."""
    kinds = set(map(type, word)) - {int}  # a word of ints needs no ABC check
    if isinstance(word, str) or kinds and not all(issubclass(k, numbers.Integral) for k in kinds):
        raise DomainError(f"a cell word is a sequence of integer map indices, not {word!r}")
    word = tuple(map(int, word))
    if M is not None:
        for m in word:
            if not 1 <= m <= M:
                raise DomainError(f"address index {m} outside 1..{M}")
    return word


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

    @property
    def shared_linear_part(self):
        """ratio * rotation when every map has exactly the same ratio and
        rotation (the maps differ only by translation), else None."""
        first = self.maps[0]
        for m in self.maps[1:]:
            if m.ratio != first.ratio or not np.array_equal(m.rotation, first.rotation):
                return None
        return first.ratio * first.rotation

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


def make_fractal(maps, label="", diameter=None, sigma=None) -> Fractal:
    """Assemble a Fractal, deriving dimension and any undeclared bounds.

    Bounds are derived at depth 6, or at the deepest depth whose M**depth
    anchors fit DEFAULT_SCAN_BUDGET when that is shallower (5 for M = 5, 4
    for M = 9).  The diameter goes deeper while r_max**depth >= 1/2 and the
    next depth fits the budget, so that the anchors certify a cover.
    """
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
    depth = next((d for d in range(6, 1, -1) if len(maps) ** d <= DEFAULT_SCAN_BUDGET), 1)
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
            cover = depth
            while frame.r_max ** cover >= 0.5 and len(maps) ** (cover + 1) <= DEFAULT_SCAN_BUDGET:
                cover += 1
            _, diameter = estimate_diameter(frame, depth=cover)
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
            sigma = separation_sigma(frame, depth=depth)
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


def cell_anchor(fractal: Fractal, word: tuple) -> np.ndarray:
    """Representative point psi_{m_1} o ... o psi_{m_l}(b) of a cell.

    The base anchor b is the fixed point of the first map, which lies in
    the attractor, so the returned point lies within cell_diameter(word)
    of every point of the cell.
    """
    return fractal.apply_word(_cell_word(word, len(fractal.maps)), fractal.base_anchor())


def cell_diameter(fractal: Fractal, word: tuple) -> float:
    """Diameter bound of the cell: the in-order ratio product times diameter."""
    prod = 1.0
    for m in _cell_word(word, len(fractal.maps)):
        prod *= fractal.maps[m - 1].ratio
    return prod * fractal.diameter


def anchor_cloud(fractal: Fractal, depth: int, budget: int = DEFAULT_CLOUD_BUDGET) -> np.ndarray:
    """All depth-`depth` cell anchors, rows in lexicographic word order."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    return _image_cloud(fractal, fractal.base_anchor()[None, :], depth, budget)


def _image_cloud(fractal: Fractal, base: np.ndarray, depth: int,
                 budget: int = DEFAULT_CLOUD_BUDGET) -> np.ndarray:
    """psi_w(x) for every word w of length depth and every row x of base.

    Rows are word-major in lexicographic order, base-minor; the word is
    applied innermost letter first, one map over the whole cloud at a time.
    """
    rows = base.shape[0] * len(fractal.maps) ** depth
    if rows > budget:
        raise ResourceBudgetError(
            f"{rows} points at depth {depth} exceed the enumeration budget {budget}"
        )
    for _ in range(depth):
        base = np.concatenate([m.apply(base) for m in fractal.maps], axis=0)
    return base


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., K, N) squared distances between the rows of a (..., K, p) and
    b (..., N, p), accumulated coordinate by coordinate.

    The floats are those of (a_k - b_k)**2 summed in coordinate order, but
    formed in place: the result and, for p > 1, one scratch array of its
    size are all that is allocated.
    """
    d2 = np.subtract(a[..., :, None, 0], b[..., None, :, 0])
    np.multiply(d2, d2, out=d2)
    if a.shape[-1] > 1:
        diff = np.empty_like(d2)
        for k in range(1, a.shape[-1]):
            np.subtract(a[..., :, None, k], b[..., None, :, k], out=diff)
            d2 += np.multiply(diff, diff, out=diff)
    return d2


def _row_blocks(a: np.ndarray, b: np.ndarray = None):
    """Squared distances, PAIR_BLOCK rows of `a` at a time, in row order.

    Against `b` each block holds its rows' distances to all of b.  With b
    omitted it covers the pairs i < j of `a`: rows i0.. against the points
    from i0 on, with the entries on or below the diagonal set to inf.
    """
    for i0 in range(0, a.shape[0], PAIR_BLOCK):
        rows = a[i0 : i0 + PAIR_BLOCK]
        if b is not None:
            yield _sq_dists(rows, b)
        else:
            d2 = _sq_dists(rows, a[i0:])
            k = rows.shape[0]
            d2[:, :k][np.tri(k, dtype=bool)] = np.inf
            yield d2


def _pair_blocks(parts):
    """The _row_blocks of every pair of parts a < b, pairs in order."""
    for a, b in itertools.combinations(parts, 2):
        yield from _row_blocks(a, b)


def estimate_diameter(fractal: Fractal, depth: int):
    """(estimate, upper_bound) for the attractor diameter from depth-l anchors.

    estimate is the max pairwise anchor distance (a lower bound); the upper
    bound estimate / (1 - 2 r_max**depth) is valid whenever r_max**depth < 1/2
    and is +inf otherwise.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    pts = anchor_cloud(fractal, depth, budget=DEFAULT_SCAN_BUDGET)
    # full blocks: the inf that the self form puts below the diagonal would win
    estimate = math.sqrt(max(max(float(d2.max()) for d2 in _row_blocks(pts, pts)), 0.0))
    shrink = fractal.r_max ** depth
    if shrink >= 0.5:
        return estimate, math.inf
    return estimate, estimate / (1.0 - 2.0 * shrink)


def separation_sigma(fractal: Fractal, depth: int) -> float:
    """Certified lower bound for the distance between first-level images.

    Splits the depth-l anchor cloud by leading letter, takes the least
    distance between distinct blocks and subtracts twice the largest depth-l
    cell diameter.  Clamped at 0 (with a warning) when nothing positive can
    be certified.
    """
    if len(fractal.maps) < 2:
        raise DomainError("separation needs at least two maps")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    cross = first_level_cloud_distance(fractal, depth)
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


def first_level_cloud_distance(fractal: Fractal, depth: int) -> float:
    """Least distance between anchor clouds of distinct first-level images."""
    M = len(fractal.maps)
    if M < 2:
        raise DomainError("needs at least two maps")
    pts = anchor_cloud(fractal, depth, budget=DEFAULT_SCAN_BUDGET)
    cross = min(float(d2.min()) for d2 in _pair_blocks(np.split(pts, M)))
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
    """Parse a decimal or a fraction like 1/3; text that is no number or a
    value that is not finite (nan, inf, a zero denominator) raises
    DomainError."""
    num, slash, den = str(text).partition("/")
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            value = float(np.divide(float(num), float(den) if slash else 1.0))
    except ValueError as exc:
        raise DomainError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise DomainError(f"not a finite number: {text!r}")
    return value


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
        try:
            m = int(args[0])
        except ValueError as exc:
            raise DomainError(f"uniform(M, r) needs an integer M, got {args[0].strip()!r}") from exc
        return uniform_line(m, parse_number(args[1]))
    raise DomainError(f"unknown catalog fractal {name!r}")


def _spec_numbers(value, path: str, shape=()) -> np.ndarray:
    """value read as a float array of the given shape: a number for shape
    (), else a flat list of numbers (bools are none).  Any other value, one
    of another size or one that is not finite raises DomainError naming path."""
    items = value if shape else [value]
    if not isinstance(items, (list, tuple)) or not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        kind = "a list of numbers" if shape else "a number"
        raise DomainError(f"fractal description: cannot read {path} = {value!r} (not {kind})")
    try:
        out = np.array(value, dtype=float).reshape(shape)
    except ValueError as exc:
        raise DomainError(f"fractal description: cannot read {path} = {value!r} ({exc})") from exc
    if not np.all(np.isfinite(out)):
        raise DomainError(f"fractal description: {path} = {value!r} is not finite")
    return out


def _spec_keys(doc: dict, where: str, required: tuple, optional: tuple):
    """A DomainError naming the first key of doc that is missing or unknown."""
    for key in required:
        if key not in doc:
            raise DomainError(f"{where} missing key {key!r}")
    for key in doc:
        if key not in required + optional:
            raise DomainError(f"{where} has unknown key {key!r}")


def fractal_from_spec(doc: dict) -> Fractal:
    """Build a fractal from its JSON description: ambient_dim, maps (each
    with ratio, translation and an optional row-major rotation) and the
    optional label, diameter and sigma.  A description that is missing a
    key, holds an unknown one or a value of the wrong kind, size or range
    raises DomainError naming the key."""
    if not isinstance(doc, dict):
        raise DomainError("fractal description must be a JSON object")
    _spec_keys(doc, "fractal description", ("ambient_dim", "maps"), ("label", "diameter", "sigma"))
    p = float(_spec_numbers(doc["ambient_dim"], "ambient_dim"))
    if p < 1 or not p.is_integer():
        raise DomainError(f"ambient_dim must be a positive integer, got {doc['ambient_dim']!r}")
    p = int(p)
    if not isinstance(doc["maps"], (list, tuple)):
        raise DomainError(f"fractal description: maps must be a list, got {doc['maps']!r}")
    label = doc.get("label", "")
    if "label" in doc and not (isinstance(label, str) and label):
        raise DomainError(f"fractal description: label must be a non-empty string, got {label!r}")
    maps = []
    for i, entry in enumerate(doc["maps"]):
        at = f"maps[{i}]"
        if not isinstance(entry, dict):
            raise DomainError(f"fractal description: {at} must be an object, got {entry!r}")
        _spec_keys(entry, f"fractal description: {at}", ("ratio", "translation"), ("rotation",))
        maps.append(Similitude(
            float(_spec_numbers(entry["ratio"], f"{at}.ratio")),
            _spec_numbers(entry["rotation"], f"{at}.rotation", (p, p))
            if "rotation" in entry else np.eye(p),
            _spec_numbers(entry["translation"], f"{at}.translation", (p,))))
    bounds = {key: float(_spec_numbers(doc[key], key)) for key in ("diameter", "sigma")
              if key in doc}
    if bounds.get("diameter", 1.0) <= 0.0:
        raise DomainError(f"fractal description: diameter = {doc['diameter']!r} is not positive")
    return make_fractal(maps, label=label, **bounds)


def _read_json(path: str, what: str):
    """The JSON document in the file at path; a file that is missing, no
    regular file, unreadable or not UTF-8 JSON raises UsageError naming
    path.  what names the file in the message."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"{what} {path!r} is no readable file: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def load_fractal(source) -> Fractal:
    """Accept a Fractal, a catalog name, a JSON file path, or a spec dict;
    a path that is missing, unreadable or not JSON raises UsageError."""
    if isinstance(source, Fractal):
        return source
    if isinstance(source, dict):
        return fractal_from_spec(source)
    text = str(source)
    if _CATALOG_RE.match(text):
        return from_catalog(text)
    return fractal_from_spec(_read_json(text, "fractal"))
