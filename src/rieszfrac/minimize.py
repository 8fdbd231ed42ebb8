"""Search for low-energy and well-separated configurations on a fractal.

Candidate points are symbolic: a point is psi_w(f_b), the image of the fixed
point of map b under the cell word w.  At any depth this mesh contains every
cell corner (e.g. both endpoints of each Cantor cell), so optima such as
{0, 1} are exactly representable.  A point's only label is its cell word
w, a tuple of map indices, which is also its address in the config a
MinimizeResult builds.  exhaustive_minimize enumerates subsets of the plain
base anchors psi_w(b1) (the base-1 rows of the mesh) by default, matching
the certified-oracle contract; pass mesh="endpoint" to certify over the
full symbolic mesh.
local_search_minimize is the one entry that reads SearchOptions.strategy.

The local search scores single-point moves sweep by sweep (_sweep).  For
s > dim A a point's potential is dominated by its nearest neighbours, so
most candidates of a sweep that moves nothing can be ruled out without
their exact sums: level rows by interval estimates of their row sums,
sibling and child cells by a near-field lower bound with the far field
scaled from the point's own potential.  Both bounds are rigorous in float
arithmetic (their docstrings derive the margins), and a candidate is
skipped only when it can be neither the first minimum nor accepted, so the
screens change no bit of any result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy import (
    Configuration,
    EnergyRecord,
    _candidate_sums,
    _finite_row_sums,
    _lift_cross,
    _pair_pass,
    _point_kernel,
    _point_rows,
    _shared_lift_crosses,
)
from .errors import (
    DomainError,
    HypothesisError,
    ResourceBudgetError,
    SingularConfigurationError,
)
from .fractal import Fractal, _image_cloud, _sq_dists
from .parallel import parallel_map, restart_indices

DEFAULT_SUBSET_BUDGET = 5_000_000
# whole-level relocation moves are offered while M**depth stays below this;
# deeper points fall back to same-parent sibling and child moves only
LEVEL_MOVE_CAP = 256
_MAX_SWEEPS = 200
# The screens in _sweep run only where the work they can skip outweighs
# their own cost.  A cell screen, batched, costs a point about as much as
# this many kernel terms (candidate rows times N); a level screen, about 20
# numpy calls per point, as much as this many row-sum additions (K times N).
_CELL_SCREEN_MIN = 1 << 10
_LEVEL_SCREEN_MIN = 1 << 16
_U = 2.0 ** -53  # unit roundoff of float64
# squared distances the cell screen's far-field bound rests on must lie in
# [_TINY, _HUGE], where the relative rounding model of floats holds
_TINY, _HUGE = 2.0 ** -970, 2.0 ** 990
# kernel entries per screening batch (its points' own rows against all
# points); the level screen of a batch gathers half as many entries, since
# it holds three arrays of them at once.  A move ends a batch early, so
# after a move the next batch waits until _MIN_BATCH points passed without
# one and then holds twice as many points as have, up to the cap.  With
# each point's offer kept between its moves a point outside a batch costs
# less than it did: on the search configs (seeds 1-5, one core) 4 took 3-4 %
# less time than 2, and 1 took 5 % more.  8 was faster still, but on
# cantor(1/3) at N = 1024 it scores over a fifth of the points exactly.
_BATCH_TERMS = 1 << 14
_MIN_BATCH = 4
# restarts fan out to forked workers (parallel_map) once N times the mesh
# rows K of the starting depth reaches this.  Forking, the copy-on-write
# faults it brings and the result's trip through a pipe cost 5-15 ms; on
# cantor(1/3) with 3 restarts that lost 10-13 ms at N K <= 8064 and won
# 6-15 ms from N K = 16640 on (2-vCPU VM)
_FAN_OUT_MIN = 1 << 14
_STRATEGIES = ("exhaustive", "local-search", "lift-seeded")


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by the search strategies; seed fixes every random choice.

    budget caps the subsets of an "exhaustive" enumeration and the accepted
    moves of each search of the other strategies; None is the strategy's default.
    """

    depth: int = None
    max_depth: int = None
    restarts: int = 3
    budget: int = None
    seed: int = 0
    strategy: str = "local-search"

    def __post_init__(self):
        if self.depth is not None and self.depth < 1:
            raise DomainError("depth must be at least 1")
        if self.max_depth is not None:
            if self.max_depth < 1:
                raise DomainError("max_depth must be at least 1")
            if self.depth is not None and self.max_depth < self.depth:
                raise DomainError("max_depth must not be below depth")
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")
        if self.budget is not None and self.budget < 1:
            raise DomainError("budget must be positive")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.strategy not in _STRATEGIES:
            raise DomainError(f"strategy must be one of {_STRATEGIES}")


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """A minimizer's points, their cell words, energy and least pair distance.

    The points are `lifts` lifts of a base with cell words `words` (a
    search has 0 lifts).  min_distance (nan for one point) comes from the
    pass that sums the energy, or for a raw lift stage from the recursion
    of lift_chain, whose cross term is `cross` (None for every other
    result).  config, the points addressed by their decoded words
    (_row_label), is built on its first read and kept.
    """

    points: np.ndarray
    words: tuple
    fractal_label: str
    record: EnergyRecord
    strategy: str
    certified: bool
    iterations: int
    min_distance: float
    lifts: int = 0
    cross: float = None

    @cached_property
    def config(self) -> Configuration:
        words, n = self.words, self.points.shape[0]
        if self.lifts:
            M = round((n // len(words)) ** (1.0 / self.lifts))  # n = len(words) * M**lifts
            words = (_row_label(row, M, self.lifts, self.words) for row in range(n))
        return Configuration(self.points, addresses=words, fractal_label=self.fractal_label)


@dataclass(frozen=True, eq=False)
class PackingResult:
    config: Configuration
    delta: float
    certified: bool
    strategy: str


class _State:
    """Mutable search state: the cell word and the coordinates of each point,
    and the index of the point that moved last (None before any move)."""

    __slots__ = ("words", "pts", "last_move")

    def __init__(self, words, pts):
        self.words = list(words)
        self.pts = np.array(pts, dtype=float)
        self.last_move = None


class _Mesh:
    """Lazily built symbolic levels and cached cell blocks, coordinates only.

    Level d is the image cloud of d lifts of the M fixed points, so row
    q*M + (b-1) is psi_w(f_b) for the fixed point f_b of map b and the
    (q+1)-th word w of depth d; _row_label(row, M, d) decodes w.  The block
    of a word w is apply_word(w, level 1), whose row words are w followed by
    one letter (_row_label(row, M, 1, prefix=w)).  It is built as the first
    map of w applied to the (cached) block of the rest of w, the float
    operations of apply_word.  A
    point's sibling candidates are its parent's block and its child
    candidates its own.  Blocks are cached by word.  Restarts that run in
    order share the caches; a restart on a forked worker (parallel_map)
    fills its own copy, with the same floats.  The fixed points are solved
    for once, here, so that no worker enters LAPACK.
    """

    def __init__(self, fractal: Fractal):
        self.fractal = fractal
        self._fixed_points = fractal.fixed_points()
        self._levels = {}
        self._blocks = {}

    def level(self, depth: int) -> np.ndarray:
        if depth not in self._levels:
            self._levels[depth] = _image_cloud(self.fractal, self._fixed_points, depth)
        return self._levels[depth]

    def block(self, word):
        if not word:
            return self.level(1)
        coords = self._blocks.get(word)
        if coords is None:
            coords = self._blocks[word] = \
                self.fractal.maps[word[0] - 1].apply(self.block(word[1:]))
        return coords


def _row_label(row: int, M: int, lifts: int, base_words=None, prefix=()) -> tuple:
    """Cell word of `row` of `lifts` lifts of a base of n rows (_image_cloud).

    Row q*n + b is psi_v(x_b) for the (q+1)-th word v of length lifts, so
    its word is prefix + v + base_words[b].  base_words None is the mesh's
    base, the M fixed points, which add no letter: psi_v(f_b) lies in the cell v.
    """
    if base_words is None:
        q, base = row // M, ()
    else:
        q, b = divmod(row, len(base_words))
        base = base_words[b]
    letters = []
    for _ in range(lifts):
        q, r = divmod(q, M)
        letters.append(r + 1)
    letters.reverse()
    return prefix + tuple(letters) + base


def _level_words(rows, M: int, depth: int) -> list:
    """[_row_label(row, M, depth) for row in rows], from one pass over the
    base-M digits of all rows at once."""
    q = np.asarray(rows, dtype=np.int64) // M
    letters = np.empty((depth, q.shape[0]), dtype=np.int64)
    for k in range(depth - 1, -1, -1):
        q, r = np.divmod(q, M)
        letters[k] = r + 1
    return list(map(tuple, letters.T.tolist()))


def _auto_depth(M: int, N: int) -> int:
    """The least depth l >= 1 with M**l >= N."""
    if M < 2 and N > 1:
        raise HypothesisError("a one-map mesh holds one point at every depth")
    depth = 1
    while M ** depth < N:
        depth += 1
    return depth


def _farthest_point_indices(coords: np.ndarray, N: int):
    """Greedy maximin seed starting from the lexicographically first row."""
    chosen = [0]
    d2 = _sq_dists(coords, coords[0][None, :])[:, 0]
    while len(chosen) < N:
        j = int(np.argmax(d2))
        if d2[j] == 0.0:
            raise DomainError("mesh has too few distinct points for the request")
        chosen.append(j)
        d2 = np.minimum(d2, _sq_dists(coords, coords[j][None, :])[:, 0])
    return chosen


def _level_values(G: np.ndarray, i: int, rows: np.ndarray = None) -> np.ndarray:
    """Row sums of G (of its `rows` if given) without column i.

    Column i is set to 0.0 and summed: in G itself and then restored, or in
    the copied rows.
    """
    if rows is not None:
        block = G[rows]
        block[:, i] = 0.0
        return block.sum(axis=1)
    saved = G[:, i].copy()
    G[:, i] = 0.0
    values = G.sum(axis=1)
    G[:, i] = saved
    return values


def _level_stats(G: np.ndarray) -> list:
    """[R, C, E] of a level kernel: its finite row sums, its inf counts per
    row and a bound E >= |R - the real sum of the finite entries|.

    R is a float sum of N nonnegative terms, within gamma_(N-1) R / (1 -
    gamma_(N-1)) of the real sum; E = (N + 1) u R exceeds that with room for
    its own rounding.
    """
    R, C = _finite_row_sums(G)
    return [R, C, (G.shape[1] + 1) * _U * R]


def _update_level_stats(stats: list, old: np.ndarray, new: np.ndarray):
    """Column i of the kernel changes from old to new; R, C and E follow in O(K).

    With a and b the finite parts of old and new, R becomes fl(fl(R - a) + b),
    whose error grows by at most u(|R| + a) + u(|R| + a + b)(1 + u); the
    update adds 4u(|R| + a + b + E), which also covers its own rounding.
    """
    R, C, E = stats
    old_inf, new_inf = np.isinf(old), np.isinf(new)
    a = np.where(old_inf, 0.0, old)
    b = np.where(new_inf, 0.0, new)
    with np.errstate(over="ignore", invalid="ignore"):
        E += 4.0 * _U * (np.abs(R) + a + b + E)
        R -= a
        R += b
    C += new_inf
    C -= old_inf


def _level_keep(G: np.ndarray, stats: list, cols, thresholds) -> list:
    """The indices of the rows of G that can still win, for each column
    i = cols[b] at threshold thresholds[b], from one gather of G[:, cols].

    Row j's value v_j is the float sum of its entries with column i zeroed.
    If the row holds an inf outside column i, v_j is exactly inf.  Otherwise
    its estimate e_j = R_j - G[j, i] (R_j alone when G[j, i] is inf) obeys
    |v_j - e_j| <= E_j + u|e_j| + gamma_N (|e_j| + E_j), gamma_N = Nu/(1-Nu)
    the error of a float sum of N nonnegative terms in any order, so v_j
    lies in [e_j - m_j, e_j + m_j] with m_j = 2 E_j + (N + 4) u |e_j|; the
    spare E_j and 3u|e_j| cover the rounding of m_j and of e_j -+ m_j.  A
    row whose lower end lies above the least upper end U exceeds some other
    row's value and so is not the first minimum; a row whose lower end is
    at or above threshold cannot be accepted.  A row whose R_j overflowed
    is always kept.  Each column's floats are those of a gather of it alone.
    """
    R, C, E = stats
    est = G[:, cols]
    g_inf = np.isinf(est)
    np.copyto(est, 0.0, where=g_inf)
    np.subtract(R[:, None], est, out=est)
    # three (K, len(cols)) floats at a time: est, margin (then hi) and lo
    margin = np.abs(est)
    margin *= (G.shape[1] + 4) * _U
    margin += 2.0 * E[:, None]
    with np.errstate(invalid="ignore"):
        lo = est - margin
    hi = np.add(est, margin, out=margin)
    exact_inf = C[:, None] > g_inf
    np.copyto(hi, np.inf, where=exact_inf)
    np.copyto(lo, np.inf, where=exact_inf)
    # a row whose R overflowed has lo = nan; the negated tests keep it
    least = hi.min(axis=0)
    return [np.flatnonzero(~(lo[:, b] > least[b]) if least[b] < threshold
                           else ~(lo[:, b] >= threshold))
            for b, threshold in enumerate(thresholds)]


def _screened_level_values(G: np.ndarray, stats: list, i: int, threshold: float,
                           rows: np.ndarray = None):
    """_level_values(G, i) on the rows that can still win, +inf on the others.

    rows are the indices of those rows (_level_keep); they are found here
    when not given.
    """
    if rows is None:
        rows = _level_keep(G, stats, [i], [threshold])[0]
    values = np.full(G.shape[0], np.inf)
    if rows.size:
        values[rows] = _level_values(G, i, rows)
    return values


def _certify_cells(pts: np.ndarray, idx: np.ndarray, d2: np.ndarray, k: np.ndarray,
                   current: np.ndarray, threshold: np.ndarray, cands: np.ndarray,
                   s: float) -> np.ndarray:
    """For each point idx[q]: True when no row of cands[q] can score below
    threshold[q].

    d2, k and current are the points' _point_rows; cands[q] holds the
    candidate rows of point idx[q], padded with copies of the point.  Write
    V(y) for the float point_energy_sums gives candidate y of point
    i = idx[q], rho_y = |y - x_i|, L = 16 max rho_y over its rows and
    J = {j != i : |x_i - x_j| < L}.  For j outside J the triangle
    inequality gives |y - x_j| <= (1 + rho_y / L) |x_i - x_j|, so
    k(y, x_j) >= F_y k(x_i, x_j) with F_y = (1 + rho_y / L)**(-s), and

        V(y) >= sum_J k(y, x_j) + F_y (current - sum_J k(x_i, x_j))

    in real arithmetic.  Rounding: a float sum of n nonnegative terms is
    within gamma_n = nu/(1 - nu) of the real one in any order, a kernel
    float within eta ~ ((p + 2) s / 2 + 1) u of the kernel of the float
    points and F_y within phi ~ s (p + 6) u; eps = (N + (2p + 8)(s + 1)) u
    exceeds gamma_N + 2 eta + phi.  The bound used takes the far part as
    max(0, c - n - 2 eps (c + n)) (1 - 2 eps) (c = current, n = the near
    sum of row i), scales the near sums by 1 - 4 eps and subtracts
    (N + 1) 2**-1070 for kernels that underflow; the doubled eps covers the
    second-order terms and the evaluation of the bound.  The guards keep
    every squared distance the far part rests on in the normal range
    (rho_y**2 is raised to _TINY / 256, which only lowers F_y) and
    current <= 2**990, so an overflowed near sum (inf) still certifies.
    A row bitwise equal to x_i scores current, which is never below
    threshold, so it is left out.
    """
    N, p = pts.shape
    Q = idx.shape[0]
    x = pts[idx][:, None, :]
    rows = np.arange(Q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho2 = ((cands - x) ** 2).sum(axis=2)
        L2 = 256.0 * rho2.max(axis=1)
        near = d2 < L2[:, None]
        near[rows, idx] = False
        near_i = k.sum(axis=1, where=near)
        # the near points of each row, padded with the point itself
        qq, jj = np.divmod(np.flatnonzero(near), N)
        count = np.bincount(qq, minlength=Q)
        J = np.repeat(idx[:, None], count.max(initial=0), axis=1)
        J[qq, np.arange(qq.shape[0]) - np.repeat(np.cumsum(count) - count, count)] = jj
        near_pts = pts[J]
        kern = np.zeros((Q, cands.shape[1], J.shape[1]))
        for c in range(p):
            diff = cands[:, :, None, c] - near_pts[:, None, :, c]
            diff *= diff
            kern += diff
        np.power(kern, -0.5 * s, out=kern)
        np.copyto(kern, 0.0, where=(J == idx[:, None])[:, None, :])
        near_y = kern.sum(axis=2)
        eps = (N + (2 * p + 8) * (s + 1)) * _U
        far = np.maximum(0.0, current - near_i - 2.0 * eps * (current + near_i)) * (1.0 - 2.0 * eps)
        F = (1.0 + np.sqrt(np.maximum(rho2, _TINY / 256.0) / L2[:, None])) ** -s
        ok = near_y * (1.0 - 4.0 * eps) + (F * far[:, None] - (N + 1) * 2.0 ** -1070) \
            >= threshold[:, None]
    ok |= (cands == x).all(axis=2)
    guard = (L2 >= _TINY) & (L2 <= _HUGE) & (d2.max(axis=1) <= _HUGE) & (current <= _HUGE)
    return guard & ok.all(axis=1)


def _screen_batch(pts: np.ndarray, s: float, i0: int, cells_of: list):
    """(current, threshold, certified) for the points i0, i0 + 1, ...

    cells_of holds the cell blocks of each point of the batch.  The points'
    own kernel rows (_point_rows) give current and threshold in the floats
    and order _sweep would form them; each point whose cell rows times N
    reach _CELL_SCREEN_MIN gets the verdict of _certify_cells.  Every value
    describes pts as they are now, so a move ends the batch.
    """
    N = pts.shape[0]
    end = i0 + len(cells_of)
    d2, k, current = _point_rows(pts, i0, end, s)
    threshold = current - 1e-12 * (1.0 + np.abs(current))
    rows = [sum(map(len, cells)) for cells in cells_of]
    q = [r for r in range(end - i0) if rows[r] and rows[r] * N >= _CELL_SCREEN_MIN]
    certified = np.zeros(end - i0, dtype=bool)
    if q:
        width = max(rows[r] for r in q)
        # each point's cell rows, padded to width with copies of the point
        parts = []
        for r in q:
            parts += cells_of[r]
            if rows[r] < width:
                parts.append(np.repeat(pts[i0 + r : i0 + r + 1], width - rows[r], axis=0))
        cands = np.concatenate(parts, axis=0).reshape(len(q), width, pts.shape[1])
        q = np.array(q) if len(q) < end - i0 else slice(None)
        certified[q] = _certify_cells(pts, np.arange(i0, end)[q], d2[q], k[q], current[q],
                                      threshold[q], cands, s)
    return current, threshold, certified


def _blocks(mesh: _Mesh, word: tuple, M: int, max_depth: int):
    """(blocks, level) of a point with this word; see _sweep.

    blocks holds (coords, prefix, lifts) per candidate block, in offer
    order; level says whether the first block is the whole level.
    """
    depth = len(word)
    level = depth >= 1 and M ** depth <= LEVEL_MOVE_CAP
    blocks = []
    if level:
        blocks.append((mesh.level(depth), (), depth))
    elif depth >= 1:
        blocks.append((mesh.block(word[:-1]), word[:-1], 1))
    if depth < max_depth:
        blocks.append((mesh.block(word), word, 1))
    return blocks, level


def _offer(mesh: _Mesh, word: tuple, M: int, max_depth: int) -> tuple:
    """The coordinates of the cell blocks (every block but the whole level)
    of a point with this word."""
    blocks, level = _blocks(mesh, word, M, max_depth)
    return tuple(c for c, _, _ in blocks[level:])


def _sweep(fractal: Fractal, s: float, state: _State, max_depth: int, mesh: _Mesh,
           kernels: dict, budget_left: int, offers: list = None, stop: int = None) -> int:
    """One pass of best-improvement single-point moves; returns accepted count.

    Point i is offered the whole level of its depth d while M**d stays within
    LEVEL_MOVE_CAP, otherwise its sibling cells, plus its child cells while
    d < max_depth.  Level values are row sums of the kernel G_d in `kernels`
    (level d row against every point) with column i set to 0, the summands
    point_energy_sums(..., skip_index=i) would form; an accepted move
    recomputes column i of every G_d kept.  Cell blocks come from the mesh
    cache.  Each restart has its own state and kernels, and the mesh
    caches only coordinates, so a restart on a forked worker runs the same
    float operations as one in this process.

    offers[i] holds point i's offer (_offer), the coordinates of its cell
    blocks in the mesh cache: one tuple of references per point, so memory
    stays O(N) and no coordinates are copied.  It depends only on the
    point's word, so it is kept, across sweeps when the caller passes
    offers, until the point moves; the blocks with their words are looked
    up again only for an accepted move.  The point and its cell rows are
    scored in one call (_candidate_sums).

    The first minimum of the candidate values is accepted when it lies
    below threshold = current - 1e-12 (1 + |current|).  Two screens skip
    exact sums that cannot change that outcome: a candidate whose value is
    provably at or above threshold, or provably above another candidate's
    value, is neither the first minimum nor accepted, so it may be given
    +inf instead.  Cell blocks use a near-field lower bound
    (_certify_cells) where their rows times N reach _CELL_SCREEN_MIN; it is
    formed for a batch of points at once (_screen_batch), together with
    their current values, and a block it does not certify is scored
    exactly.  A point whose cells are certified and that has no level offer
    cannot move and is passed over.  Level candidates use per-row interval
    estimates from [R, C, E] (_level_keep), rebuilt from each G_d once per
    sweep and updated with its columns; they run where K N reaches
    _LEVEL_SCREEN_MIN.  Within a batch the interval test runs once for all
    of its level points of one depth, up to _BATCH_TERMS // 2 gathered
    entries, and the rows it keeps are summed exactly point by point.  A
    move ends the batch, since its values describe the old point, and the
    next one waits for _MIN_BATCH points without a move.  Both bounds carry
    rounding margins, so accepted moves, energies and every artifact are
    bit-identical to scoring every candidate.

    stop is the index of the previous sweep's last accepted move, or None.
    A sweep that has accepted nothing when it passes stop ends there: the
    points after it were scored on this very configuration and did not
    move, and the exact screens make a point's outcome a function of the
    configuration.  The index of the last accepted move is kept in
    state.last_move.
    """
    M = len(fractal.maps)
    pts = state.pts
    N = pts.shape[0]
    if offers is None:
        offers = [None] * N
    stats = {}
    keeps = {}  # rows the level screen keeps, by point of the batch not yet reached
    batch_cap = max(1, _BATCH_TERMS // N)
    quiet = batch_cap  # points scored since the last accepted move
    batch_start = batch_end = 0  # points before batch_end are covered by the batch
    accepted = 0
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(N):
            if accepted >= budget_left or (not accepted and stop is not None and i > stop):
                break
            if offers[i] is None:
                offers[i] = _offer(mesh, state.words[i], M, max_depth)
            cells = offers[i]
            depth = len(state.words[i])
            level = depth >= 1 and M ** depth <= LEVEL_MOVE_CAP
            if not (cells or level):
                continue
            R = sum(map(len, cells))
            if i >= batch_end and R and R * N >= _CELL_SCREEN_MIN and quiet >= _MIN_BATCH:
                batch_start, batch_end = i, min(N, i + min(batch_cap, 2 * quiet))
                for r in range(i + 1, batch_end):
                    if offers[r] is None:
                        offers[r] = _offer(mesh, state.words[r], M, max_depth)
                currents, thresholds, certified = _screen_batch(pts, s, i, offers[i:batch_end])
                keeps = {}
            quiet += 1
            if i < batch_end:
                current = currents[i - batch_start]
                threshold = thresholds[i - batch_start]
                if cells and not certified[i - batch_start]:
                    values = _candidate_sums(np.concatenate(cells), pts, s, i)
                elif level:
                    values = None
                else:
                    continue
            else:
                sums = _candidate_sums(np.concatenate((pts[i : i + 1],) + cells), pts, s, i)
                current, values = sums[0], sums[1:]
                threshold = current - 1e-12 * (1.0 + abs(current))
            if level:
                G = kernels.get(depth)
                if G is None:
                    G = kernels[depth] = _point_kernel(mesh.level(depth), pts, s)
                if G.size < _LEVEL_SCREEN_MIN:
                    level_values = _level_values(G, i)
                else:
                    if depth not in stats:
                        stats[depth] = _level_stats(G)
                    keep = None
                    if i < batch_end:
                        if i not in keeps:
                            cols = [r for r in range(i, batch_end)
                                    if len(state.words[r]) == depth]
                            cols = cols[: max(1, _BATCH_TERMS // 2 // G.shape[0])]
                            keeps.update(zip(cols, _level_keep(
                                G, stats[depth], cols, thresholds[np.array(cols) - batch_start])))
                        keep = keeps.pop(i)
                    level_values = _screened_level_values(G, stats[depth], i, threshold, keep)
                values = level_values if values is None else np.concatenate([level_values, values])
            j = int(np.argmin(values))
            if values[j] < threshold:
                for coords, prefix, lifts in _blocks(mesh, state.words[i], M, max_depth)[0]:
                    if j < coords.shape[0]:
                        break
                    j -= coords.shape[0]
                state.words[i] = _row_label(j, M, lifts, prefix=prefix)
                pts[i] = coords[j]
                offers[i] = None
                for d, G in kernels.items():
                    column = _point_kernel(pts[i : i + 1], mesh.level(d), s)[0]
                    if d in stats:
                        _update_level_stats(stats[d], G[:, i], column)
                    G[:, i] = column
                batch_end = quiet = 0
                state.last_move = i
                accepted += 1
    return accepted


def _run_search(fractal, s, state, opts: SearchOptions, max_depth, mesh):
    """Sweep until no move improves, the move budget is spent or _MAX_SWEEPS.

    Returns the state, the (energy, least squared pair distance) of its
    points and the accepted moves.  The level kernels built by the first
    sweep that needs them are kept, column by column current, for every
    later sweep, and so are the points' offers until they move.  Each sweep
    after the first may end at the previous sweep's last accepted move
    (see _sweep).
    """
    kernels = {}
    offers = [None] * state.pts.shape[0]
    budget = 10_000 if opts.budget is None else opts.budget
    total = 0
    stop = None
    for _ in range(_MAX_SWEEPS):
        left = budget - total
        if left <= 0:
            break
        accepted = _sweep(fractal, s, state, max_depth, mesh, kernels, left, offers, stop)
        total += accepted
        if accepted == 0:
            break
        stop = state.last_move
    del kernels, offers  # not held through the pair pass
    return state, _pair_pass(state.pts, s), total


def _result(fractal, s, pts: np.ndarray, words, strategy, certified, iterations,
            pair, lifts: int = 0, cross: float = None) -> MinimizeResult:
    """The points as a result; pair is their (energy, least squared pair distance).

    words are the points' cell words, or the base words of a cloud lifted
    `lifts` times.  Nothing moves the points afterwards (a lift builds new
    ones), so they are frozen, not copied.
    """
    pts.setflags(write=False)
    energy, sep2 = pair
    n = pts.shape[0]
    return MinimizeResult(pts, tuple(words), fractal.label,
                          EnergyRecord.from_energy(energy, n, s, fractal.dimension),
                          strategy, certified, iterations,
                          math.sqrt(sep2) if n >= 2 else math.nan, lifts, cross)


def _first_best(K: int, N: int, score):
    """(least score, subset) over the N-subsets of range(K).

    Subsets are visited in lexicographic order and only a strictly lower
    score replaces the incumbent, so the first minimum is kept.  The subset
    is None when no score is below +inf.
    """
    best_score = math.inf
    best = None
    for subset in itertools.combinations(range(K), N):
        value = score(subset)
        if value < best_score:
            best_score = value
            best = subset
    return best_score, best


def _subset_mesh(fractal: Fractal, N: int, depth: int, base_only: bool):
    """(coords, words) of the depth-l mesh, checked to hold N points.

    base_only keeps the base-1 rows, the cell anchors psi_w(b1); words(rows)
    decodes the cell words of the given rows of coords.
    """
    if N < 2:
        raise DomainError("need at least two points")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    M = len(fractal.maps)
    stride = M if base_only else 1
    coords = _Mesh(fractal).level(depth)[::stride]
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"only {K} candidates at depth {depth} for N={N}")
    return coords, lambda rows: _level_words(np.asarray(rows) * stride, M, depth)


def exhaustive_minimize(fractal: Fractal, N: int, s: float, depth: int,
                        mesh: str = "anchor",
                        budget: int = DEFAULT_SUBSET_BUDGET) -> MinimizeResult:
    """Certified minimum over all N-subsets of the depth-l candidate mesh.

    Subsets are visited in lexicographic order and the first minimum is kept.
    Certified means the minimum over this one finite mesh: an upper bound on
    the true minimal energy E_s(A; N), not its value.  On cantor(1/3) at
    s = 3, N = 3 and depth 4 the anchor mesh gives 69.3 and the endpoint mesh
    62.75.
    """
    if mesh not in ("anchor", "endpoint"):
        raise DomainError("mesh must be 'anchor' or 'endpoint'")
    if budget < 1:
        raise DomainError("budget must be positive")
    coords, words = _subset_mesh(fractal, N, depth, mesh == "anchor")
    count = math.comb(coords.shape[0], N)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} subsets exceed the enumeration budget {budget}"
        )
    kernel = _point_kernel(coords, coords, s)
    np.fill_diagonal(kernel, 0.0)
    best_e, best = _first_best(
        coords.shape[0], N, lambda sub: float(kernel[np.ix_(sub, sub)].sum()))
    if best is None:
        raise SingularConfigurationError("every candidate subset contains coincident points")
    pts = coords[list(best)]
    return _result(fractal, s, pts, words(best), "exhaustive", True, count, _pair_pass(pts, s))


def _local_search_state(fractal: Fractal, N: int, s: float, opts: SearchOptions):
    """Best (state, pair, moves) over opts.restarts searches, first on ties.

    Restart 0 starts from the greedy maximin seed; random restart r from
    restart_indices(opts.seed, r, K, N), numpy's seeded N-subset of the K
    mesh points at the starting depth, computed in pure Python.  Each
    restart is a pure function of its start.  Where N K reaches
    _FAN_OUT_MIN the restarts run on forked workers, one per usable core
    (parallel_map), and in order in this process otherwise; the winner and
    every bit of it are the same either way.
    """
    if fractal.sigma <= 0.0:
        raise HypothesisError(
            "local search needs a certified positive separation (sigma > 0)"
        )
    if N < 2:
        raise DomainError("need at least two points")
    if s <= 0.0:
        raise DomainError("exponent s must be positive")
    M = len(fractal.maps)
    depth = opts.depth if opts.depth is not None else _auto_depth(M, N)
    max_depth = opts.max_depth if opts.max_depth is not None else depth + 8
    if max_depth < depth:
        raise DomainError("max_depth must not be below depth")
    mesh = _Mesh(fractal)
    coords = mesh.level(depth)
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"depth {depth} offers only {K} candidates for N={N}")

    starts = [_farthest_point_indices(coords, N)]
    starts += [restart_indices(opts.seed, r, K, N) for r in range(opts.restarts - 1)]

    def run(indices):
        st = _State(_level_words(indices, M, depth), coords[list(indices)])
        return _run_search(fractal, s, st, opts, max_depth, mesh)

    if N * K >= _FAN_OUT_MIN:
        outcomes = parallel_map(run, starts)
    else:
        outcomes = [run(st) for st in starts]
    return outcomes[min(range(len(outcomes)), key=lambda i: (outcomes[i][1][0], i))]


def local_search_minimize(fractal: Fractal, N: int, s: float,
                          opts: SearchOptions = None) -> MinimizeResult:
    """Minimize by the strategy opts names; the one place that reads it.

    "local-search" (the default) is a seeded multi-restart descent over
    symbolic cell moves.  Moves relocate one point at a time: across the
    whole level while it is small, to same-parent sibling cells otherwise,
    and down to child cells up to max_depth.  Energy never increases along
    accepted moves and the whole run is a pure function of the options (seed
    included).  "exhaustive" is exhaustive_minimize over the depth-l anchors
    (opts.depth, else the least depth with M**l >= N) within opts.budget
    subsets (default DEFAULT_SUBSET_BUDGET), and every other search stops at
    opts.budget accepted moves (default 10,000); "lift-seeded" polishes a
    lift chain when N is n0 * M**k with k >= 1 and searches otherwise.
    """
    opts = opts if opts is not None else SearchOptions()
    if opts.strategy == "exhaustive":
        depth = opts.depth if opts.depth is not None else _auto_depth(len(fractal.maps), N)
        budget = DEFAULT_SUBSET_BUDGET if opts.budget is None else opts.budget
        return exhaustive_minimize(fractal, N, s, depth, budget=budget)
    if opts.strategy == "lift-seeded":
        M = len(fractal.maps)
        if M < 2:
            raise HypothesisError("lifting needs at least two maps")
        n0, k = N, 0
        while n0 % M == 0 and n0 // M >= 2:
            n0 //= M
            k += 1
        if k:
            return lift_chain(fractal, s, n0, k, opts=opts, polish=True)[-1]
    state, pair, moves = _local_search_state(fractal, N, s, opts)
    return _result(fractal, s, state.pts, state.words, "local-search", False, moves, pair)


def lift(fractal: Fractal, config: Configuration) -> Configuration:
    """Union of the images of the configuration under every map."""
    M = len(fractal.maps)
    pts = _image_cloud(fractal, config.points, 1, math.inf)
    if np.unique(pts, axis=0).shape[0] < pts.shape[0]:
        raise SingularConfigurationError("lift produced coincident points (maps overlap)")
    addrs = None
    if config.addresses is not None:
        addrs = [_row_label(row, M, 1, config.addresses) for row in range(pts.shape[0])]
    return Configuration(pts, addresses=addrs, fractal_label=config.fractal_label)


def _lifted_energy(fractal: Fractal, s: float, energy: float, cross: float) -> float:
    """E(union psi_m X) = sum_m r_m**(-s) E(X) + cross terms, the exact
    self-similar recursion; energy is E(X), cross the interaction of the images."""
    return sum(m.ratio ** (-s) for m in fractal.maps) * energy + cross


def _check_lift_bound(fractal: Fractal, s: float, n: int, energy: float, lifted: float):
    """Equal ratios: the lift of n points of energy E has at most
    M**(1+s/d) * E + sigma**(-s) * n**2 * M**2; more means inconsistent geometry."""
    M = len(fractal.maps)
    bound = (M ** (1.0 + s / fractal.dimension)) * energy \
        + (fractal.sigma ** (-s)) * n * n * M * M
    if lifted > bound * (1.0 + 1e-9):
        raise HypothesisError(
            f"lift energy bound violated at N={M * n}: {lifted!r} > {bound!r}; "
            "this indicates inconsistent fractal geometry data"
        )


def lift_chain(fractal: Fractal, s: float, n0: int, k: int,
               opts: SearchOptions = None, polish: bool = True):
    """Minimize at n0 points, then lift k times (optionally polishing each stage).

    Returns one MinimizeResult per stage, sizes n0 * M**j for j = 0..k.
    Stage 0 and polished stages take their energy and min_distance from one
    pass over their points.  With polish=False the stages after the first
    are the raw iterated lifts, the construction behind the
    geometric-subsequence bound.  A raw stage j is never evaluated directly:
    its energy is sum_m r_m**(-s) * E_prev + cross_j and its squared
    min_distance min(min_m r_m**2 * delta_prev**2, least cross distance**2),
    so it describes the exact images of the previous stage; it carries
    cross_j as `cross`.  When the maps share one linear part
    (Fractal.shared_linear_part) cross_j is drawn from one
    _shared_lift_crosses generator per chain, which forms the
    translation-difference clouds of stage 0 on its first draw and advances
    them by one stage per draw; otherwise it comes from one _lift_cross pass
    over the images.  With equal ratios the lift bound is checked on the
    recursive energy, polished or not.  A stage's points are the image cloud
    of the previous stage's, so a raw stage j keeps stage 0's words and j
    lifts; a polished stage decodes the words it searches on.  No stage's
    config is read here.  Every stage is a local search, so opts.strategy
    "exhaustive", whose budget caps subsets, raises DomainError.
    """
    opts = opts if opts is not None else SearchOptions()
    if opts.strategy == "exhaustive":
        raise DomainError("lift chains search locally; strategy 'exhaustive' is not supported")
    M = len(fractal.maps)
    if M < 2:
        raise HypothesisError("lifting needs at least two maps")
    if fractal.sigma <= 0.0:
        raise HypothesisError("lift chains need a certified positive separation")
    if n0 < 1:
        raise DomainError("n0 must be at least 1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    if n0 == 1:
        words, pts = [()], fractal.base_anchor()[None, :]
        pair, moves = (0.0, math.inf), 0
    else:
        state, pair, moves = _local_search_state(fractal, n0, s, opts)
        words, pts = state.words, state.pts
    stages = [_result(fractal, s, pts, words, "lift-seeded", False, moves, pair)]
    # sep2 stays squared across stages: a root taken in between would move its bits
    energy, sep2 = pair
    mesh = _Mesh(fractal)
    r2 = min(fractal.ratios) ** 2
    linear = None if polish else fractal.shared_linear_part
    if linear is not None:
        translations = np.stack([m.translation for m in fractal.maps])
        shared = _shared_lift_crosses(pts, linear, translations, s)
    for j in range(1, k + 1):
        n_prev = pts.shape[0]
        # stage sizes are set by n0 and k, not by the cloud budget
        pts = _image_cloud(fractal, pts, 1, math.inf)
        if linear is not None:
            cross, cross_sep2 = next(shared)
        elif fractal.equal_ratios or not polish:
            cross, cross_sep2 = _lift_cross(np.split(pts, M), s)
        if fractal.equal_ratios or not polish:
            lifted = _lifted_energy(fractal, s, energy, cross)
        if fractal.equal_ratios:
            _check_lift_bound(fractal, s, n_prev, energy, lifted)
        if polish:
            state = _State([_row_label(row, M, 1, words) for row in range(M * n_prev)], pts)
            max_depth = max(len(w) for w in state.words) + 8
            state, (energy, sep2), moves = _run_search(fractal, s, state, opts, max_depth, mesh)
            words, pts, lifts, cross = state.words, state.pts, 0, None
        else:
            energy, sep2 = lifted, min(r2 * sep2, cross_sep2)
            moves, lifts = 0, j
        stages.append(_result(fractal, s, pts, words, "lift-seeded", False, moves,
                              (energy, sep2), lifts, cross))
    return stages


def best_packing(fractal: Fractal, N: int, depth: int,
                 budget: int = DEFAULT_SUBSET_BUDGET) -> PackingResult:
    """Maximize the least pairwise distance over the depth-l symbolic mesh.

    Exhaustive (certified) while the subset count fits the budget, otherwise
    a farthest-point greedy start with single-point exchange sweeps.
    """
    if budget < 1:
        raise DomainError("budget must be positive")
    coords, words = _subset_mesh(fractal, N, depth, base_only=False)
    K = coords.shape[0]
    dist = np.sqrt(_sq_dists(coords, coords))
    np.fill_diagonal(dist, np.inf)
    if math.comb(K, N) <= budget:
        least, best = _first_best(K, N, lambda sub: -float(dist[np.ix_(sub, sub)].min()))
        best_delta = -least
        chosen = list(best)
        certified = True
        strategy = "exhaustive"
    else:
        chosen = _farthest_point_indices(coords, N)
        best_delta = float(dist[np.ix_(chosen, chosen)].min())
        for _ in range(100):
            improved = False
            for i in range(N):
                others = [c for j, c in enumerate(chosen) if j != i]
                rest = float(dist[np.ix_(others, others)].min()) if len(others) > 1 else math.inf
                cand = dist[:, others].min(axis=1)
                cand = np.minimum(cand, rest)
                cand[others] = -math.inf
                j = int(np.argmax(cand))
                if cand[j] > best_delta * (1.0 + 1e-12):
                    chosen[i] = j
                    best_delta = float(cand[j])
                    improved = True
            if not improved:
                break
        certified = False
        strategy = "greedy-exchange"
    config = Configuration(
        coords[chosen],
        addresses=words(chosen),
        fractal_label=fractal.label,
    )
    return PackingResult(config, best_delta, certified, strategy)
