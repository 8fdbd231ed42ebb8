"""Riesz pair energies and geometric statistics of point configurations.

Energy convention: E_s(x_1..x_N) = sum over ordered pairs i != j of
|x_i - x_j|**(-s), so every unordered pair is counted twice.  Every distance
loop runs over fixed row blocks of PAIR_BLOCK points in row order; within one
configuration it covers only the upper triangle i < j, and the energy sum is
doubled at the end.  Memory stays O(N * PAIR_BLOCK) and results bit-stable
across process thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularConfigurationError
from .fractal import CellAddress, Fractal, _sq_dists, anchor_cloud, cell_anchor, cell_diameter

ENERGY_CONVENTION = "ordered-pairs"
# rows per block of the pair loops; each block holds O(N * PAIR_BLOCK) floats
PAIR_BLOCK = 64


@dataclass(frozen=True, eq=False)
class Configuration:
    """N points in R^p, optionally tagged with the cells they represent.

    An address names the cell a point stands for; the point itself may be any
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
            addrs = tuple(self.addresses)
            if len(addrs) != pts.shape[0]:
                raise DomainError("need one address per point")
            object.__setattr__(self, "addresses", addrs)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def validate_cells(self, fractal: Fractal, slack: float = 1e-9) -> bool:
        """Check each point lies within its named cell's diameter of the anchor."""
        if self.addresses is None:
            raise DomainError("configuration carries no addresses")
        for pt, addr in zip(self.points, self.addresses):
            anchor = cell_anchor(fractal, addr)
            bound = cell_diameter(fractal, addr)
            if np.linalg.norm(pt - anchor) > bound * (1.0 + slack) + slack:
                return False
        return True


def _as_points(config) -> np.ndarray:
    if isinstance(config, Configuration):
        return config.points
    pts = np.asarray(config, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


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


def _kernel_sum(blocks, s: float, singular: str) -> float:
    """Sum of d2**(-s/2) over the blocks; a zero distance raises `singular`."""
    total = 0.0
    for d2 in blocks:
        if not d2.all():
            raise SingularConfigurationError(singular)
        with np.errstate(over="ignore"):
            total += float(np.sum(np.power(d2, -0.5 * s, out=d2)))
    return total


def riesz_energy(config, s: float) -> float:
    """Ordered-pair Riesz s-energy; 0 for a single point.

    Coincident points raise SingularConfigurationError, which is distinct
    from a finite-but-overflowing sum (returned as inf).
    """
    if s <= 0.0:
        raise DomainError(f"exponent s must be positive, got {s}")
    blocks = _row_blocks(_as_points(config))
    return 2.0 * _kernel_sum(blocks, s, "configuration contains coincident points")


def normalized_energy(energy: float, n: int, s: float, d: float) -> float:
    """energy / N**(1 + s/d), the scale on which minimal energies converge."""
    if n < 2:
        raise DomainError("normalization needs at least two points")
    if d <= 0.0:
        raise DomainError("dimension must be positive")
    if s <= 0.0:
        raise DomainError("exponent s must be positive")
    return energy / float(n) ** (1.0 + s / d)


@dataclass(frozen=True)
class EnergyRecord:
    """One energy evaluation: count, exponent, raw and normalized values."""

    N: int
    s: float
    energy: float
    normalized: float
    d: float

    @classmethod
    def from_config(cls, config, s: float, d: float) -> "EnergyRecord":
        pts = _as_points(config)
        return cls.from_energy(riesz_energy(pts, s), pts.shape[0], s, d)

    @classmethod
    def from_energy(cls, energy: float, n: int, s: float, d: float) -> "EnergyRecord":
        norm = normalized_energy(energy, n, s, d) if n >= 2 else 0.0
        return cls(N=n, s=float(s), energy=energy, normalized=norm, d=float(d))


def cross_energy(part1, part2, s: float) -> float:
    """Ordered-pair interaction between two disjoint parts (both directions)."""
    if s <= 0.0:
        raise DomainError(f"exponent s must be positive, got {s}")
    blocks = _row_blocks(_as_points(part1), _as_points(part2))
    return 2.0 * _kernel_sum(blocks, s, "parts share a point")


def _lift_cross(parts, s: float):
    """(cross energy, least squared distance) between the images of a lift.

    One pass over the blocks of every pair of parts a < b gives the
    ordered-pair interaction of distinct parts (both directions) and the
    least squared distance between them; parts that share a point raise.
    """
    total = 0.0
    least = math.inf
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for d2 in _row_blocks(parts[a], parts[b]):
                least = min(least, float(d2.min()))
                if least == 0.0:
                    raise SingularConfigurationError("images of the lift share a point")
                with np.errstate(over="ignore"):
                    total += float(np.sum(np.power(d2, -0.5 * s, out=d2)))
    return 2.0 * total, least


def point_energy_sums(candidates, config, s: float, skip_index: int = None) -> np.ndarray:
    """For each candidate y, sum over config points of |y - x_j|**(-s).

    Coincidence with a config point contributes +inf rather than raising;
    callers decide how to treat infinite candidates.
    """
    cands = _as_points(candidates)
    sums = np.empty(cands.shape[0])
    i0 = 0
    for d2 in _row_blocks(cands, _as_points(config)):
        with np.errstate(divide="ignore", over="ignore"):
            np.power(d2, -0.5 * s, out=d2)
        if skip_index is not None:
            d2[:, skip_index] = 0.0
        d2.sum(axis=1, out=sums[i0 : i0 + d2.shape[0]])
        i0 += d2.shape[0]
    return sums


def _point_kernel(candidates: np.ndarray, config: np.ndarray, s: float) -> np.ndarray:
    """(K, N) array of |y - x_j|**(-s), a coincidence giving inf.

    Built over the same contiguous blocks as point_energy_sums, so every
    entry is the float that point_energy_sums adds up.
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


def min_point_energy(config, candidates, s: float):
    """(best point, value): the candidate with least kernel sum to the config.

    Ties break toward the lowest candidate index; if every candidate collides
    with a configuration point the problem is singular.
    """
    if s <= 0.0:
        raise DomainError(f"exponent s must be positive, got {s}")
    cands = _as_points(candidates)
    if cands.shape[0] < 1:
        raise DomainError("need at least one candidate")
    values = point_energy_sums(cands, config, s)
    idx = int(np.argmin(values))
    if math.isinf(values[idx]):
        raise SingularConfigurationError("every candidate coincides with a config point")
    return np.array(cands[idx]), float(values[idx])


def _min_sq_distance(pts: np.ndarray) -> float:
    """Least squared pair distance of an (N, p) array, inf for one point."""
    return min(float(d2.min()) for d2 in _row_blocks(pts))


def min_pairwise_distance(config) -> float:
    pts = _as_points(config)
    if pts.shape[0] < 2:
        raise DomainError("need at least two points")
    return math.sqrt(_min_sq_distance(pts))


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
