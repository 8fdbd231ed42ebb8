"""Riesz pair energies and geometric statistics of point configurations.

Energy convention: E_s(x_1..x_N) = sum over ordered pairs i != j of
|x_i - x_j|**(-s), so every unordered pair is counted twice.  Every distance
loop runs over fixed row blocks of PAIR_BLOCK points in row order; within one
configuration it covers only the upper triangle i < j, and the energy sum is
doubled at the end.  Memory stays O(N * PAIR_BLOCK), except where a whole
(K, N) candidate kernel is asked for (_point_kernel, point_energy_sums), and
results bit-stable across process thread counts.  The one loop that is not
over points, the cross term of a raw lift stage from translation-difference
clouds, runs over blocks of about CLOUD_BLOCK kernel entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularConfigurationError
from .fractal import (
    PAIR_BLOCK,
    Fractal,
    _cell_word,
    _pair_blocks,
    _row_blocks,
    _sq_dists,
    anchor_cloud,
    cell_anchor,
    cell_diameter,
)

ENERGY_CONVENTION = "ordered-pairs"
# kernel entries per block of the shared-linear-part lift cross pass
CLOUD_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class Configuration:
    """N points in R^p, optionally tagged with the cells they represent.

    An address is the word of the cell a point stands for, a tuple of 1-based
    map indices (() is the whole set); the point itself may be any
    representative inside that cell (anchors, cell corners, ...).
    """

    points: np.ndarray
    addresses: tuple = None
    fractal_label: str = ""

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DomainError("points must form a nonempty (N, p) array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.addresses is not None:
            addrs = tuple(map(_cell_word, self.addresses))
            if len(addrs) != pts.shape[0]:
                raise DomainError("need one address per point")
            object.__setattr__(self, "addresses", addrs)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def validate_cells(self, fractal: Fractal) -> bool:
        """Check each point lies within its cell's diameter (+1e-9 rel. and abs.) of the anchor."""
        if self.addresses is None:
            raise DomainError("configuration carries no addresses")
        for pt, addr in zip(self.points, self.addresses):
            anchor = cell_anchor(fractal, addr)
            bound = cell_diameter(fractal, addr)
            if np.linalg.norm(pt - anchor) > bound * (1.0 + 1e-9) + 1e-9:
                return False
        return True


def _as_points(config) -> np.ndarray:
    if isinstance(config, Configuration):
        return config.points
    pts = np.asarray(config, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _kernel_sum(blocks, s: float, singular: str):
    """(sum of d2**(-s/2), least d2) over the blocks, summed block by block
    in order; a zero distance raises `singular`."""
    total = 0.0
    least = math.inf
    for d2 in blocks:
        least = min(least, float(d2.min(initial=math.inf)))
        if least == 0.0:
            raise SingularConfigurationError(singular)
        with np.errstate(over="ignore"):
            total += float(np.sum(np.power(d2, -0.5 * s, out=d2)))
    return total, least


def _pair_pass(pts: np.ndarray, s: float):
    """(ordered-pair s-energy, least squared pair distance) of an (N, p)
    array from one pass over its pairs; (0.0, inf) for one point."""
    if s <= 0.0:
        raise DomainError(f"exponent s must be positive, got {s}")
    total, least = _kernel_sum(_row_blocks(pts), s, "configuration contains coincident points")
    return 2.0 * total, least


def riesz_energy(config, s: float) -> float:
    """Ordered-pair Riesz s-energy; 0 for a single point.

    Coincident points raise SingularConfigurationError, which is distinct
    from a finite-but-overflowing sum (returned as inf).
    """
    return _pair_pass(_as_points(config), s)[0]


def normalized_energy(energy: float, n: int, s: float, d: float) -> float:
    """energy / N**(1 + s/d), the scale on which minimal energies converge.

    A power N**(1 + s/d) that leaves the float range is a DomainError naming
    s/d.
    """
    if n < 2:
        raise DomainError("normalization needs at least two points")
    if d <= 0.0:
        raise DomainError("dimension must be positive")
    if s <= 0.0:
        raise DomainError("exponent s must be positive")
    try:
        return energy / float(n) ** (1.0 + s / d)
    except OverflowError as exc:
        raise DomainError(f"normalized energy overflows float64 at s/d = {s / d!r}") from exc


@dataclass(frozen=True)
class EnergyRecord:
    """One energy evaluation: count, exponent, raw and normalized values."""

    N: int
    s: float
    energy: float
    normalized: float
    d: float

    @classmethod
    def from_energy(cls, energy: float, n: int, s: float, d: float) -> "EnergyRecord":
        norm = normalized_energy(energy, n, s, d) if n >= 2 else 0.0
        return cls(N=n, s=float(s), energy=energy, normalized=norm, d=float(d))


def cross_energy(part1, part2, s: float) -> float:
    """Ordered-pair interaction between two disjoint parts (both directions)."""
    if s <= 0.0:
        raise DomainError(f"exponent s must be positive, got {s}")
    return _lift_cross([_as_points(part1), _as_points(part2)], s)[0]


def _lift_cross(parts, s: float):
    """(cross energy, least squared distance) between the images of a lift,
    or between the two parts of cross_energy.

    One pass over the blocks of every pair of parts a < b gives the
    ordered-pair interaction of distinct parts (both directions) and the
    least squared distance between them; parts that share a point raise.
    """
    total, least = _kernel_sum(_pair_blocks(parts), s, "images of the lift share a point")
    return 2.0 * total, least


def _shared_lift_crosses(base: np.ndarray, linear: np.ndarray, translations: np.ndarray,
                         s: float):
    """Yield (cross energy, least squared distance) of raw lift stages
    j = 1, 2, ... of base under maps x -> A x + t_a that share one linear part A.

    Two points of stage j in distinct images differ by
    A^j (x0 - y0) + tau_0 + sum_{0<i<j} A^i tau_i, with x0, y0 in base and each
    tau_i = t_a - t_b (tau_0 != 0).  Grouping the pairs (a, b) by the exact value
    of t_a - t_b, the cross energy is the kernel sum between the cloud of
    distinct A^j (x0 - y0) and the cloud of offsets, weighted by the products of
    the group sizes: O(n0**2 * T**(j-1)) terms for T groups instead of O(N**2).
    tau_0 and -tau_0 give the same distances, so only the tau_0 whose leading
    nonzero component is positive are formed and the sum is doubled.  Offsets
    are streamed as a fixed low-digit cloud plus chunks of the high digits, about
    CLOUD_BLOCK kernel entries at a time, so memory does not grow with j.

    The groups, the distinct base differences and the low-digit cloud are
    formed once per chain, on the first draw; each later draw advances A^i tau
    and A^j (x0 - y0) by one product with A and extends the low-digit cloud by
    at most one digit.  Images that share a point raise when their stage is
    drawn.
    """
    p = base.shape[1]
    taus, mult = np.unique((translations[:, None] - translations[None, :]).reshape(-1, p),
                           axis=0, return_counts=True)
    if mult[~taus.any(axis=1)].sum() > translations.shape[0]:
        raise SingularConfigurationError("images of the lift share a point")
    mult = mult.astype(float)
    T = taus.shape[0]
    half = taus[np.arange(T), np.argmax(taus != 0.0, axis=1)] > 0.0
    powers = [taus]  # A^i tau for every group, i < j
    diffs, counts = np.unique((base[:, None] - base[None, :]).reshape(-1, p),
                              axis=0, return_counts=True)
    low, w_low = taus[half], mult[half]
    h = 1
    for j in itertools.count(1):
        if j > 1:
            powers.append(np.einsum("ij,nj->ni", linear, powers[-1]))
        diffs = np.einsum("ij,nj->ni", linear, diffs)
        if h < j and diffs.shape[0] * low.shape[0] * T <= CLOUD_BLOCK:
            low = (low[:, None] + powers[h][None, :]).reshape(-1, p)
            w_low = np.outer(w_low, mult).reshape(-1)
            h += 1
        chunk = max(1, CLOUD_BLOCK // (diffs.shape[0] * low.shape[0]))
        n_high = T ** (j - h)
        total = 0.0
        least = math.inf
        for q0 in range(0, n_high, chunk):
            idx = np.arange(q0, min(n_high, q0 + chunk))
            high = np.zeros((idx.shape[0], p))
            w_high = np.ones(idx.shape[0])
            for i in range(h, j):
                idx, digit = np.divmod(idx, T)
                high += powers[i][digit]
                w_high *= mult[digit]
            # diffs holds d and -d alike: |offset - d| takes the values of |d + offset|
            d2 = _sq_dists(diffs, (high[:, None] + low[None, :]).reshape(-1, p))
            least = min(least, float(d2.min()))
            if least == 0.0:
                raise SingularConfigurationError("images of the lift share a point")
            with np.errstate(over="ignore"):
                np.power(d2, -0.5 * s, out=d2)
            d2 *= np.outer(w_high, w_low).reshape(-1)
            total += float(np.sum(d2.sum(axis=1) * counts))
        yield 2.0 * total, least


def point_energy_sums(candidates, config, s: float, skip_index: int = None) -> np.ndarray:
    """For each candidate y, sum over config points of |y - x_j|**(-s).

    Coincidence with a config point contributes +inf rather than raising;
    callers decide how to treat infinite candidates.  The sums are the row
    sums of the whole (K, N) kernel (_point_kernel), so a call holds K times
    N floats at once.
    """
    k = _point_kernel(_as_points(candidates), _as_points(config), s)
    if skip_index is not None:
        k[:, skip_index] = 0.0
    return k.sum(axis=1)


def _candidate_sums(cands: np.ndarray, pts: np.ndarray, s: float, skip_index: int) -> np.ndarray:
    """point_energy_sums(cands, pts, s, skip_index), the same floats.

    A row's sum does not depend on the rows beside it, so all candidates
    (a sweep's point and its cell blocks, at most 1 + 2 M**2 rows) form one
    block, in one call with no errstate of its own: the caller ignores
    divide and overflow.
    """
    k = _sq_dists(cands, pts)
    np.power(k, -0.5 * s, out=k)
    k[:, skip_index] = 0.0
    return k.sum(axis=1)


def _point_kernel(candidates: np.ndarray, config: np.ndarray, s: float) -> np.ndarray:
    """(K, N) array of |y - x_j|**(-s), a coincidence giving inf.

    Built over contiguous blocks of PAIR_BLOCK rows; point_energy_sums sums
    its rows.
    """
    out = np.empty((candidates.shape[0], config.shape[0]))
    i0 = 0
    for d2 in _row_blocks(candidates, config):
        with np.errstate(divide="ignore", over="ignore"):
            np.power(d2, -0.5 * s, out=out[i0 : i0 + d2.shape[0]])
        i0 += d2.shape[0]
    return out


def _point_rows(pts: np.ndarray, i0: int, i1: int, s: float):
    """(squared distances, kernel rows, row sums) of points i0..i1-1 against pts.

    Entry (r, i0 + r) of the kernel is set to 0.0, so row r and its sum are
    the floats point_energy_sums(pts[i], pts, s, skip_index=i) forms and
    returns for i = i0 + r.
    """
    d2 = _sq_dists(pts[i0:i1], pts)
    with np.errstate(divide="ignore", over="ignore"):
        k = np.power(d2, -0.5 * s)
    r = np.arange(i1 - i0)
    k[r, r + i0] = 0.0
    return d2, k, k.sum(axis=1)


def _finite_row_sums(G: np.ndarray):
    """(sums of the finite entries, counts of the infinite ones) per row of G.

    G holds kernel values (nonnegative or +inf); it is read PAIR_BLOCK rows
    at a time, so no temporary is larger than PAIR_BLOCK rows.
    """
    sums = np.empty(G.shape[0])
    counts = np.empty(G.shape[0], dtype=np.int64)
    for r0 in range(0, G.shape[0], PAIR_BLOCK):
        block = G[r0 : r0 + PAIR_BLOCK]
        inf = np.isinf(block)
        inf.sum(axis=1, out=counts[r0 : r0 + block.shape[0]])
        with np.errstate(over="ignore"):
            np.where(inf, 0.0, block).sum(axis=1, out=sums[r0 : r0 + block.shape[0]])
    return sums, counts


def min_pairwise_distance(config) -> float:
    pts = _as_points(config)
    if pts.shape[0] < 2:
        raise DomainError("need at least two points")
    return math.sqrt(min(float(d2.min()) for d2 in _row_blocks(pts)))


def covering_radius(config, mesh, slack: float = 0.0):
    """(radius, slack): max over mesh points of the distance to the config.

    slack is the caller-supplied resolution of the mesh (e.g. the largest
    cell diameter behind it) and is reported separately, never folded in.
    """
    pts = _as_points(config)
    mesh_pts = _as_points(mesh)
    if mesh_pts.shape[0] < 1:
        raise DomainError("mesh must be nonempty")
    radius = math.sqrt(max(float(d2.min(axis=1).max())
                           for d2 in _row_blocks(mesh_pts, pts)))
    return radius, float(slack)


def fractal_covering_radius(fractal: Fractal, config, depth: int):
    """Covering radius against the depth-l anchor cloud, slack = max cell diameter."""
    mesh = anchor_cloud(fractal, depth)
    slack = (fractal.r_max ** depth) * fractal.diameter
    return covering_radius(config, mesh, slack=slack)
