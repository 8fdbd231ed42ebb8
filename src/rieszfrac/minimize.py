"""Search for low-energy and well-separated configurations on a fractal.

Candidate points are symbolic: a point is psi_w(f_b), the image of the fixed
point of map b under the cell word w.  At any depth this mesh contains every
cell corner (e.g. both endpoints of each Cantor cell), so optima such as
{0, 1} are exactly representable.  A point's only label is its cell word
w, a tuple of map indices, which is also its address in the config a
MinimizeResult builds.  One decoder, _level_words, turns the rows of a
lifted cloud into words; the mesh keeps the words of each level a move
lands on (_Mesh.words).  exhaustive_minimize enumerates subsets of the plain
base anchors psi_w(b1) (the base-1 rows of the mesh) by default, matching
the certified-oracle contract; pass mesh="endpoint" to certify over the
full symbolic mesh.
_minima is the one place that dispatches on SearchOptions.strategy, for
every N of a range at once; local_search_minimize is its one-N case.

The local search scores single-point moves sweep by sweep (_sweep).  For
s > dim A a point's potential is dominated by its nearest neighbours, so
most candidates of a sweep that moves nothing can be ruled out without
their exact sums: level rows by interval estimates of their row sums,
sibling and child cells by a near-field lower bound with the far field
scaled from the point's own potential.  Both bounds are rigorous in float
arithmetic (their docstrings derive the margins), and a candidate is
skipped only when it can be neither the first minimum nor accepted, so the
screens change no bit of any result.

Random restarts are pruned the same way.  From a start depth d with
M**d > LEVEL_MOVE_CAP no move takes a point out of the parent cell of its
start word, so a start fixes how many points each parent cell holds, and
with that a lower bound on its final energy (_cell_count_bound).  A random
start whose bound, less a rounding margin, exceeds the energy of restart
0's start cannot win and is not run (_can_win); the result is the one
every restart would give.

The candidates are the rows of the mesh (_Mesh), which follows the
address tree: the block of cell word w is a slice of the level cloud of
depth |w| + 1, and is served as a read-only view of it once that level is
built.  A search builds the level below its start depth before its
restarts fan out, where that level fits DEFAULT_CLOUD_BUDGET, so the
blocks of its start words are views that every restart shares.  From a
start depth d that level holds M**(d+2) rows, as many as the child blocks
of all M**d words of depth d, and never more than the budget.
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
from .fractal import DEFAULT_CLOUD_BUDGET, ORTHOGONALITY_TOL, Fractal, _image_cloud, _sq_dists
from .parallel import parallel_map, restart_indices

DEFAULT_SUBSET_BUDGET = 5_000_000
_MOVE_BUDGET = 10_000  # accepted moves of a search when SearchOptions.budget is None
# whole-level relocation moves are offered while M**depth stays below this;
# deeper points fall back to same-parent sibling and child moves only
LEVEL_MOVE_CAP = 256
_MAX_SWEEPS = 200
# The screens in _sweep run only where the work they can skip outweighs
# their own cost.  A cell screen, batched, costs a point about as much as
# this many kernel terms (candidate rows times N); a level screen (18 numpy
# calls, 10-14 us on a 2-vCPU VM) as much as summing half this many (K N).
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

    depth is a search's start depth or the exhaustive mesh depth (None: the
    least depth l with M**l >= N, for "exhaustive" the largest N of the
    range searched).  max_depth caps the words a local search moves to;
    stage j of a lift chain, whose words are j letters longer, is capped at
    max_depth + j.  None lets each search go 8 below its deepest start word.
    budget caps the subsets of an "exhaustive" enumeration and the accepted
    moves of each search of the other strategies; None is the strategy's default.
    A local search returns the best of `restarts` searches: restart 0 from
    the greedy maximin start, the others from seeded random starts.  Where
    the start depth d has M**d > LEVEL_MOVE_CAP no point leaves the parent
    cell of its start word, and a random start whose cell-count floor proves
    it cannot win is not run; the result is the one every restart gives.
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
    (_level_words), is built on its first read and kept.

    depth is a search's start depth, an exhaustive mesh's depth, or stage
    0's plus j for stage j of a lift chain.  iterations counts the winning
    restart's accepted moves for a local search, the subsets scored for an
    exhaustive one and a lift stage's own moves (0 when raw): "lift-seeded"
    reports its last polished stage's only.
    """

    points: np.ndarray
    words: tuple
    fractal_label: str
    record: EnergyRecord
    strategy: str
    certified: bool
    iterations: int
    min_distance: float
    depth: int
    lifts: int = 0
    cross: float = None

    @cached_property
    def config(self) -> Configuration:
        words, n = self.words, self.points.shape[0]
        if self.lifts:
            M = round((n // len(words)) ** (1.0 / self.lifts))  # n = len(words) * M**lifts
            words = _level_words(range(n), M, self.lifts, self.words)
        return Configuration(self.points, addresses=words, fractal_label=self.fractal_label)


@dataclass(frozen=True, eq=False)
class PackingResult:
    """A packing's points, least pair distance and the mesh depth searched."""

    config: Configuration
    delta: float
    certified: bool
    strategy: str
    depth: int


class _State:
    """Mutable search state: the cell word and the coordinates of each point,
    and the index of the point that moved last (None before any move)."""

    __slots__ = ("words", "pts", "last_move")

    def __init__(self, words, pts):
        self.words = list(words)
        self.pts = np.array(pts, dtype=float)
        self.last_move = None


class _Mesh:
    """Lazily built symbolic levels and the cell blocks they hold.

    Level d is the image cloud of d lifts of the M fixed points, so row
    q*M + (b-1) is psi_w(f_b) for the fixed point f_b of map b and the
    (q+1)-th word w of depth d; words(d), built the first time a move lands
    on level d, holds the word of every row.  The block of a word w is
    apply_word(w, level 1), whose row words are w followed by those of
    level 1 (w + words(1)[row]).  A point's sibling candidates are its
    parent's block and its child candidates its own.

    Lifts apply the outer map last over the whole cloud, so the block of w
    is, bit for bit, rows q*M**2 to (q+1)*M**2 - 1 of level |w| + 1, q the
    lexicographic index of w, and while that level is built the block is a
    view of it.  A deeper word's block is the first map of w applied to the
    block of the rest of w, the float operations of apply_word, down to a
    view, and is cached by word.  Levels and blocks are read-only, so
    nothing writes through a view.

    _local_search_state builds the start level d and, where its M**(d+2)
    rows fit DEFAULT_CLOUD_BUDGET, level d + 1 before the restarts fan out:
    then the sibling and child blocks of every start word are views of
    arrays that every restart and forked worker shares.  Level d + 1 holds
    as many rows as the child blocks of all M**d words of depth d, M times
    as many as their sibling blocks, and never more than the budget.
    Restarts that run in order share the cache of deeper blocks; a restart
    on a forked worker (parallel_map) fills its own copy, with the same
    floats.  The fixed points are solved for once, here, so that no worker
    enters LAPACK; lift_chain runs stage 0 and every polished stage on one
    mesh, so a chain solves them once.
    """

    def __init__(self, fractal: Fractal):
        self.fractal = fractal
        self._fixed_points = fractal.fixed_points()
        self._levels = {}
        self._words = {}
        self._blocks = {}

    def level(self, depth: int) -> np.ndarray:
        if depth not in self._levels:
            cloud = self._levels[depth] = _image_cloud(self.fractal, self._fixed_points, depth)
            cloud.setflags(write=False)
        return self._levels[depth]

    def words(self, depth: int) -> list:
        if depth not in self._words:
            M = len(self.fractal.maps)
            self._words[depth] = _level_words(range(M ** (depth + 1)), M, depth)
        return self._words[depth]

    def block(self, word):
        level = self._levels.get(len(word) + 1)
        if level is not None:
            M = len(self.fractal.maps)
            q = 0
            for m in word:
                q = q * M + m - 1
            return level[q * M * M : (q + 1) * M * M]
        if not word:
            return self.level(1)
        coords = self._blocks.get(word)
        if coords is None:
            coords = self._blocks[word] = \
                self.fractal.maps[word[0] - 1].apply(self.block(word[1:]))
            coords.setflags(write=False)
        return coords


def _level_words(rows, M: int, lifts: int, base_words=None) -> list:
    """Cell words of `rows` of `lifts` lifts of a base of n rows (_image_cloud),
    from one pass over the base-M digits of all rows at once.

    Row q*n + b is psi_v(x_b) for the (q+1)-th word v of length lifts, so
    its word is v + base_words[b].  base_words None is the mesh's base, the
    M fixed points, which add no letter: psi_v(f_b) lies in the cell v.
    """
    n = M if base_words is None else len(base_words)
    q, b = np.divmod(np.asarray(rows, dtype=np.int64), n)
    letters = np.empty((lifts, q.shape[0]), dtype=np.int64)
    for k in range(lifts - 1, -1, -1):
        q, r = np.divmod(q, M)
        letters[k] = r + 1
    words = map(tuple, letters.T.tolist())
    if base_words is None:
        return list(words)
    return [w + base_words[j] for w, j in zip(words, b.tolist())]


def _auto_depth(M: int, N: int) -> int:
    """The least depth l >= 1 with M**l >= N."""
    if M < 2 and N > 1:
        raise HypothesisError("a one-map mesh holds one point at every depth")
    depth = 1
    while M ** depth < N:
        depth += 1
    return depth


def _max_depth(opts: SearchOptions, deepest: int, lifts: int = 0) -> int:
    """The deepest word a search may move to: opts.max_depth plus one per
    lift (a lift adds one letter to every word), else its deepest start
    word plus 8."""
    return opts.max_depth + lifts if opts.max_depth is not None else deepest + 8


def _farthest_point_indices(coords: np.ndarray, N: int):
    """Greedy maximin seed starting from the lexicographically first row.

    The squared distances to each chosen row are the floats of _sq_dists,
    formed in buffers kept across picks.
    """
    cols = coords.T.copy()
    d2 = np.full(coords.shape[0], np.inf)
    new, diff = np.empty((2, coords.shape[0]))
    chosen = [0]
    while len(chosen) < N:
        x = coords[chosen[-1]].tolist()
        np.multiply(np.subtract(cols[0], x[0], out=new), new, out=new)
        for c in range(1, len(x)):
            new += np.multiply(np.subtract(cols[c], x[c], out=diff), diff, out=diff)
        j = int(np.minimum(d2, new, out=d2).argmax())
        if d2[j] == 0.0:
            raise DomainError("mesh has too few distinct points for the request")
        chosen.append(j)
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
    The caller ignores overflow, the only floating-point error it can raise.
    """
    R, C, E = stats
    old_inf, new_inf = np.isinf(old), np.isinf(new)
    a = np.where(old_inf, 0.0, old)
    b = np.where(new_inf, 0.0, new)
    E += 4.0 * _U * (np.abs(R) + a + b + E)
    R -= a
    R += b
    C += new_inf
    C -= old_inf


def _level_keep(G: np.ndarray, stats: list, cols, thresholds):
    """The indices of the rows of G that can still win for column i = cols
    at threshold `thresholds`, read on the view G[:, i]; for a list of
    columns, one such array per column, from one gather of G[:, cols].

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
    is always kept.  A column's floats are the same in a batch and alone.
    """
    R, C, E = stats
    g = G[:, cols]
    if g.ndim == 2:
        R, C, E = R[:, None], C[:, None], E[:, None]
    g_inf = np.isinf(g)
    # three floats per row and column at a time: est, margin (then hi) and lo
    with np.errstate(invalid="ignore"):
        est = R - g
        np.copyto(est, R, where=g_inf)
        margin = np.abs(est)
        margin *= (G.shape[1] + 4) * _U
        margin += 2.0 * E
        lo = est - margin
    hi = np.add(est, margin, out=margin)
    exact_inf = C > g_inf
    np.copyto(hi, np.inf, where=exact_inf)
    np.copyto(lo, np.inf, where=exact_inf)
    # a row whose R overflowed has lo = nan; the negated tests keep it
    least = hi.min(axis=0)
    if g.ndim == 1:
        return (~(lo > least) if least < thresholds else ~(lo >= thresholds)).nonzero()[0]
    return [np.flatnonzero(~(lo[:, b] > least[b]) if least[b] < threshold
                           else ~(lo[:, b] >= threshold))
            for b, threshold in enumerate(thresholds)]


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
        kern = _sq_dists(cands, pts[J])
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
    # a point whose potential overflowed to inf gets threshold -inf: it does not move
    threshold = np.where(current < np.inf, current, -np.inf)
    threshold -= 1e-12 * (1.0 + np.abs(threshold))
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
    d < max_depth.  kernels[d] holds (G_d, its bounds): level values are row
    sums of G_d (level d row against every point) with column i set to 0,
    the summands point_energy_sums(..., skip_index=i) would form; an
    accepted move recomputes column i of every G_d kept.  Cell blocks come
    from the mesh (_Mesh.block).  Each restart has its own state and
    kernels, and the mesh caches only coordinates, so a restart on a forked
    worker runs the same float operations as one in this process.

    offers[i] holds point i's offer (_offer), the coordinates of its cell
    blocks in the mesh, views of its levels or cached deeper blocks: one
    tuple of references per point, so memory stays O(N) and no coordinates
    are copied.  It depends only on the point's word, so it is kept, across
    sweeps when the caller passes offers, until the point moves; the blocks
    with their words are looked up again only for an accepted move.  The
    point and its cell rows are scored in one call (_candidate_sums).

    The first minimum of the candidate values, level rows before cells, is
    accepted when it lies below threshold = current - 1e-12 (1 + |current|),
    or -inf where current overflowed to inf, so that such a point does not
    move.  Two screens skip exact sums that cannot change that outcome: a
    candidate whose value is provably at or above threshold, or provably
    above another candidate's value, is neither the first minimum nor
    accepted.  Cell blocks use a near-field lower bound (_certify_cells)
    where their rows times N reach _CELL_SCREEN_MIN; it is formed for a
    batch of points at once (_screen_batch), together with their current
    values, and a block it does not certify is scored exactly.  A point
    whose cells are certified and that has no level offer cannot move and
    is passed over.  Level rows use per-row interval estimates from the
    bounds [R, C, E] of G_d (_level_keep), built with it where K N reaches
    _LEVEL_SCREEN_MIN (None below) and updated with its columns.  Within a
    batch the interval test runs once for all of its level points of one
    depth, up to _BATCH_TERMS // 2 gathered entries, and outside a batch on
    the view G_d[:, i] alone; only the rows it keeps are summed exactly, and
    the first minimum is taken over their sums and the cell values.  A move
    ends the batch, since its values describe the old point, and the next
    one waits for _MIN_BATCH points without a move.  Both bounds carry
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
    keeps = {}  # rows the level screen keeps, by point not yet scored
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
                threshold = current - 1e-12 * (1.0 + abs(current)) if current < np.inf else -np.inf
            j, best = None, np.inf  # the first minimum: level rows, then cells
            if level:
                if depth not in kernels:
                    G = _point_kernel(mesh.level(depth), pts, s)
                    kernels[depth] = G, _level_stats(G) if G.size >= _LEVEL_SCREEN_MIN else None
                G, stats = kernels[depth]
                if stats is not None and i >= batch_end:
                    keeps[i] = _level_keep(G, stats, i, threshold)
                elif stats is not None and i not in keeps:
                    cols = [r for r in range(i, batch_end) if len(state.words[r]) == depth]
                    cols = cols[: max(1, _BATCH_TERMS // 2 // G.shape[0])]
                    keeps.update(zip(cols, _level_keep(
                        G, stats, cols, thresholds[np.array(cols) - batch_start])))
                rows = None if stats is None else keeps.pop(i)
                if rows is None or rows.size:
                    level_values = _level_values(G, i, rows)
                    k = int(level_values.argmin())
                    j, best = k if rows is None else int(rows[k]), level_values[k]
            if values is not None and values.size:
                k = int(values.argmin())
                if values[k] < best:
                    j, best = k + (G.shape[0] if level else 0), values[k]
            if best < threshold:
                for coords, prefix, lifts in _blocks(mesh, state.words[i], M, max_depth)[0]:
                    if j < coords.shape[0]:
                        break
                    j -= coords.shape[0]
                state.words[i] = prefix + mesh.words(lifts)[j]
                pts[i] = coords[j]
                offers[i] = None
                for d, (G, stats) in kernels.items():
                    column = _sq_dists(pts[i : i + 1], mesh.level(d))[0]
                    np.power(column, -0.5 * s, out=column)
                    if stats is not None:
                        _update_level_stats(stats, G[:, i], column)
                    G[:, i] = column
                batch_end = quiet = 0
                state.last_move = i
                accepted += 1
    return accepted


def _run_search(fractal, s, state, opts: SearchOptions, max_depth, mesh, start_pair=None):
    """Sweep until no move improves, the move budget is spent or _MAX_SWEEPS.

    Returns the state, the (energy, least squared pair distance) of its
    points and the accepted moves.  start_pair, if given, is the _pair_pass
    of the start's points (_can_win's pass of restart 0's start, or
    lift_chain's pass of a polished stage's lifted points on equal
    ratios); a search that accepts no move returns it rather than summing
    the same points again.
    The level kernels built by the first sweep that needs them, each with
    its bounds [R, C, E], are kept, column by column current, for every
    later sweep, and so are the points' offers until they move.  Each sweep
    after the first may end at the previous sweep's last accepted move.
    """
    kernels = {}
    offers = [None] * state.pts.shape[0]
    budget = _MOVE_BUDGET if opts.budget is None else opts.budget
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
    if total == 0 and start_pair is not None:
        return state, start_pair, total
    return state, _pair_pass(state.pts, s), total


def _result(fractal, s, pts: np.ndarray, words, strategy, certified, iterations,
            pair, depth: int, lifts: int = 0, cross: float = None) -> MinimizeResult:
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
                          math.sqrt(sep2) if n >= 2 else math.nan, depth, lifts, cross)


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
    coords = _Mesh(fractal).level(depth)[:: M if base_only else 1]
    base = ((),) if base_only else None  # depth lifts of the one anchor, which adds no letter
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"only {K} candidates at depth {depth} for N={N}")
    return coords, lambda rows: _level_words(rows, M, depth, base)


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
    return _result(fractal, s, pts, words(best), "exhaustive", True, count, _pair_pass(pts, s),
                   depth)


def _cell_count_bound(ratios, s: float, diameter: float, n: int) -> np.ndarray:
    """B[0..n]: any k points of the attractor have s-energy at least B[k].

    B(0) = B(1) = 0 and B(k) is the least sum_m r_m**(-s) B(k_m) +
    (k**2 - sum_m k_m**2) D**(-s) over the splits (k_1..k_M) of k with no
    part equal to k, D the diameter: the all-depth count tree (Borodachov,
    Hardin & Saff, Discrete Energy on Rectifiable Sets, 2019).  Points with
    distinct addresses first part in a cell of ratio rho <= 1, where each
    ordered pair across its children lies within rho D and each child holds
    a scaled smaller case, so their energy is at least rho**(-s) B(k).  The
    splits form a min-plus convolution over the maps: a part i on map m
    joined to j points on the maps before it adds r_m**(-s) B(i) +
    2 i j D**(-s).  Every term is nonnegative, so the float B[k] is within
    gamma_L of the real one, L = (k - 1)(2M + 3) + 4 roundings on any path
    of its expression (a power counting two).
    """
    w = np.asarray(ratios, dtype=float) ** -s
    far = np.float64(diameter) ** -s
    M = w.shape[0]
    B = np.zeros(n + 1)
    Q = np.zeros((M, n + 1))  # Q[m, j]: least sum over the splits of j among maps 0..m
    for k in range(2, n + 1):
        i = np.arange(1, k)
        inner = np.array([np.inf] + [np.min(Q[m - 1, k - 1 : 0 : -1] + w[m] * B[1:k]
                                            + 2.0 * far * i * (k - i)) for m in range(1, M)])
        B[k] = inner.min()
        Q[:, k] = np.minimum.accumulate(np.minimum(inner, w * B[k]))
    return B


def _can_win(fractal: Fractal, s: float, mesh: _Mesh, starts: list, depth: int,
             max_depth: int, budget: int):
    """(kept, pair): kept lists the indices of the starts whose searches can
    win, 0 and every random start whose count floor does not prove that it
    loses; pair is the _pair_pass of restart 0's start where the test
    summed it, else None.

    From a depth d with M**d > LEVEL_MOVE_CAP no point is offered its level,
    and sibling and child offers keep it in the parent cell w[:-1] of its
    start word w, which holds M**2 rows of level d.  So a search keeps the
    count n_c of each parent cell c, and its final points have real energy
    at least S = sum_c r_c**(-s) B(n_c) (_cell_count_bound; r_c is the
    ratio of c, and pairs in distinct parent cells count 0).  Start r is
    skipped when fl(S_r (1 - margin)) > E0, the _pair_pass energy of
    restart 0's start: then its final energy exceeds restart 0's, and ties
    go to restart 0 anyway.  With these relative errors (u the unit
    roundoff, p the ambient dimension, J = max_depth) start r ends at or
    above (1 - eps_P - eps_X - eps_S) S_r and restart 0 at or below
    (1 + 3 eps_P + 12 eps_V budget) E0, so the margin is
    2 (4 eps_P + eps_X + eps_S + 12 eps_V budget), doubled for the
    second-order terms and the rounding of the margin and of the test:

    - coordinates: a map, applied in floats to a point of norm at most
      X = max |f_b| + 2D, is off by at most gamma_(p+2) (sqrt(p) X + |t|)
      <= e = (p + 2)(p + 3) u X, as |t| <= 2X; a rotation whose Gram
      deviation passed ORTHOGONALITY_TOL has norm at most lam = 1 +
      p ORTHOGONALITY_TOL + 4 p**2 u, so the maps contract by lam r_max < 1
      and every mesh point lies within delta = 2 (res + e) / (1 - lam r_max)
      of its real point psi_w(f_b), res the fixed points' float residual.
      Two points that part in a cell of depth j <= J, ratio rho >= r_min**J,
      lie at most rho D lam**J + 2 delta apart, so the kernels and S shrink
      by at most eps_X = s (lam**J - 1 + 2 delta / (r_min**J D));
    - the floor: S in floats, from B (L roundings), the weights (3 per
      letter) and a sum over the cells, is within eps_S = 2 (M**2 (2M + 3)
      + 3d + M**d) u;
    - _pair_pass, for E0 and for a final energy: a float sum of under N**2
      kernels, each within eta <= (2p + 8)(s + 1) u / 2 of the kernel of
      its float points, so eps_P = N**2 u + (2p + 8)(s + 1) u;
    - acceptance: a move needs the point's float potential to fall, and a
      potential is within eps_V = N u + (2p + 8)(s + 1) u, so a move may
      raise the real energy by 3 eps_V of it (a point's potential is at most
      half the energy) and restart 0 ends at most (1 + 3 eps_V)**budget <=
      1 + 6 eps_V budget above its start.

    Nothing is pruned unless every guard holds: 0 < D <= 2**480 and
    (3D)**(-s) >= 2**-960, so every kernel and squared distance of
    distinct points sits in the normal range; lam r_max < 1; delta <= D / 2;
    2 delta < sigma (r_min (2 - lam))**J (2 - lam bounds the rotations
    below), so points with distinct addresses stay distinct floats and no
    start holds coincident points, which no search creates; the margin is
    at most 1/8; and 8 E0 < min(2 delta, 2**-485)**(-s), so a pair closer
    than 2**-485, or two points with one address, alone outweighs restart
    0's final energy.
    """
    M, p, N, J = len(fractal.maps), fractal.ambient_dim, len(starts[0]), max_depth
    D, maps, fixed, r_min = fractal.diameter, fractal.maps, mesh._fixed_points, min(fractal.ratios)
    everyone = list(range(len(starts)))
    if len(starts) < 2 or M ** depth <= LEVEL_MOVE_CAP or not 0.0 < D <= 2.0 ** 480 \
            or s * math.log2(3.0 * D) > 960.0:
        return everyone, None
    lam = 1.0 + p * ORTHOGONALITY_TOL + 4 * p * p * _U
    e = (p + 2) * (p + 3) * _U * (max(math.hypot(*f) for f in fixed) + 2.0 * D)
    res = max(math.hypot(*(f - m.apply(f))) for m, f in zip(maps, fixed))
    delta = 2.0 * (res + e) / max(1.0 - lam * fractal.r_max, _U)  # > D / 2 unless lam r_max < 1
    if not (delta <= 0.5 * D and 2.0 * delta < fractal.sigma * (r_min * (2.0 - lam)) ** J):
        return everyone, None
    eta = (2 * p + 8) * (s + 1) * _U
    margin = 2.0 * (4.0 * (N * N * _U + eta) + s * (lam ** J - 1.0 + 2.0 * delta / (r_min ** J * D))
                    + 2.0 * (M * M * (2 * M + 3) + 3 * depth + M ** depth) * _U
                    + 12.0 * budget * (N * _U + eta))
    pair = _pair_pass(mesh.level(depth)[starts[0]], s)
    top = pair[0]
    if not (margin <= 0.125 and math.log(8.0 * top) < -s * math.log(min(2.0 * delta, 2.0 ** -485))):
        return everyone, pair
    with np.errstate(over="ignore", invalid="ignore"):
        B = _cell_count_bound(fractal.ratios, s, D, M * M)
        weights = np.ones(1)
        for _ in range(depth - 1):
            weights = np.outer(np.asarray(fractal.ratios) ** -s, weights).ravel()
        kept = [0] + [r for r in range(1, len(starts)) if not (1.0 - margin) * (weights * B[
            np.bincount(np.asarray(starts[r]) // (M * M), minlength=weights.size)]).sum() > top]
    return kept, pair


def _local_search_state(fractal: Fractal, N: int, s: float, opts: SearchOptions, mesh: _Mesh):
    """(state, pair, moves) of the best of opts.restarts searches on the
    caller's mesh, first on ties, and the start depth.

    Restart 0 starts from the greedy maximin seed; random restart r from
    restart_indices(opts.seed, r, K, N), numpy's seeded N-subset of the K
    mesh points at the starting depth, computed in pure Python.  Each
    restart is a pure function of its start.  Where the start depth d has
    M**d > LEVEL_MOVE_CAP no level move is offered, and sibling and child
    moves keep each point in the parent cell of its start word, so a start
    fixes its count per parent cell.  A random start whose cell-count floor,
    less a rounding margin, exceeds the _pair_pass energy of restart 0's
    start cannot win and is not run (_can_win derives the margin); if
    restart 0 then accepts no move, that pass is its result.  The level
    below the start depth is built first where it fits
    DEFAULT_CLOUD_BUDGET, so the blocks of the start words are views of
    levels shared by every restart (_Mesh) and by whatever search the
    caller runs on the same mesh next, as lift_chain's polished stages do.
    Where N K reaches _FAN_OUT_MIN the starts left run on forked workers,
    one per usable core (parallel_map, which runs a lone start in this
    process), and in order in this process otherwise; the winner and every
    bit of it are those of running every restart, either way.
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
    max_depth = _max_depth(opts, depth)
    if max_depth < depth:
        raise DomainError("max_depth must not be below depth")
    coords = mesh.level(depth)
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"depth {depth} offers only {K} candidates for N={N}")

    starts = [_farthest_point_indices(coords, N)]
    starts += [restart_indices(opts.seed, r, K, N) for r in range(opts.restarts - 1)]

    budget = _MOVE_BUDGET if opts.budget is None else opts.budget
    kept, pair = _can_win(fractal, s, mesh, starts, depth, max_depth, budget)

    def run(r):
        st = _State(_level_words(starts[r], M, depth), coords[list(starts[r])])
        return _run_search(fractal, s, st, opts, max_depth, mesh, pair if r == 0 else None)

    if M ** (depth + 2) <= DEFAULT_CLOUD_BUDGET:
        mesh.level(depth + 1)  # child blocks of the start words become views of it
    if N * K >= _FAN_OUT_MIN:
        outcomes = parallel_map(run, kept)
    else:
        outcomes = [run(r) for r in kept]
    return (*outcomes[min(range(len(outcomes)), key=lambda i: (outcomes[i][1][0], i))], depth)


def local_search_minimize(fractal: Fractal, N: int, s: float,
                          opts: SearchOptions = None) -> MinimizeResult:
    """Minimize by the strategy opts names: the one-N case of _minima.

    "local-search" (the default) is a seeded multi-restart descent over
    symbolic cell moves.  Moves relocate one point at a time: across the
    whole level while it is small, to same-parent sibling cells otherwise,
    and down to child cells up to max_depth.  Energy never increases along
    accepted moves and the whole run is a pure function of the options (seed
    included).  "exhaustive" is exhaustive_minimize over the depth-l anchors
    (opts.depth, else the least depth with M**l >= N) within opts.budget
    subsets (default DEFAULT_SUBSET_BUDGET), and every other search stops at
    opts.budget accepted moves (default 10,000); "lift-seeded" polishes a
    lift chain when the ratios are equal and N is n0 * M**k with k >= 1, and
    searches otherwise: a lift puts equal counts in the cells, which on
    unequal ratios is not the natural measure.
    """
    return _minima(fractal, s, [N], opts if opts is not None else SearchOptions())[N]


def _minima(fractal: Fractal, s: float, N_values, opts: SearchOptions) -> dict:
    """{N: MinimizeResult} for each N of N_values by the strategy opts
    names; the one place that dispatches on it.

    "exhaustive" searches every N on one mesh, of depth opts.depth or else
    the least depth holding max(N_values) anchors, so a range's minima are
    comparable.  Every other N is a stage of one polished lift_chain.
    "lift-seeded" splits each N once into n0 * M**k, dividing out M while
    the ratios are equal and n0 // M >= 2, runs one lift_chain(n0, largest
    k) per n0 and gives N its stage k: a stage depends on the stages before
    it alone, so it is, bit for bit, the last stage of a chain of its own.
    "local-search" splits nothing, so each N is searched alone, as a chain
    with k = 0.  Stage 0 is the local search at n0 on a fresh mesh, which
    reports itself as "local-search".  Each chain runs when the first of
    its N comes up.  A one-map fractal under "lift-seeded" is rejected
    before the split, which would never end on it.
    """
    M = len(fractal.maps)
    if opts.strategy == "exhaustive":
        budget = DEFAULT_SUBSET_BUDGET if opts.budget is None else opts.budget
        depth = opts.depth or _auto_depth(M, max(N_values))
        return {N: exhaustive_minimize(fractal, N, s, depth, budget=budget) for N in N_values}
    if opts.strategy == "lift-seeded" and M < 2:
        raise HypothesisError("lifting needs at least two maps")
    if any(N < 2 for N in N_values):
        raise DomainError("need at least two points")
    lifts = opts.strategy == "lift-seeded" and fractal.equal_ratios
    split, top = {}, {}
    for N in N_values:
        n0, k = N, 0
        while lifts and n0 % M == 0 and n0 // M >= 2:
            n0, k = n0 // M, k + 1
        split[N] = n0, k
        top[n0] = max(top.get(n0, 0), k)
    stages = {n0: lift_chain(fractal, s, n0, k, opts, polish=True) for n0, k in top.items()}
    return {N: stages[n0][k] for N, (n0, k) in split.items()}


def lift(fractal: Fractal, config: Configuration) -> Configuration:
    """Union of the images of the configuration under every map."""
    M = len(fractal.maps)
    pts = _image_cloud(fractal, config.points, 1, math.inf)
    if np.unique(pts, axis=0).shape[0] < pts.shape[0]:
        raise SingularConfigurationError("lift produced coincident points (maps overlap)")
    addrs = None
    if config.addresses is not None:
        addrs = _level_words(range(pts.shape[0]), M, 1, config.addresses)
    return Configuration(pts, addresses=addrs, fractal_label=config.fractal_label)


def _check_lift_bound(fractal: Fractal, s: float, n: int, energy: float, lifted: float):
    """With equal ratios the lift of n points of energy E has at most
    M**(1+s/d) * E + sigma**(-s) * n**2 * M**2; more means inconsistent
    geometry.  Unequal ratios check nothing."""
    if not fractal.equal_ratios:
        return
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

    Returns one MinimizeResult per stage, sizes n0 * M**j for j = 0..k;
    stage j reports depth d0 + j, d0 the start depth of stage 0 (0 for
    n0 = 1).  Stage 0 is the local search at n0, reported as
    "local-search", or for n0 = 1 the base anchor; every later stage is
    "lift-seeded".  With k = 0 the chain is that search alone, which is how
    _minima searches an N it does not lift, and only k >= 1 needs M >= 2
    and sigma > 0 (the search checks sigma for itself).  Stage 0's search
    and every polished stage share one _Mesh.
    On equal ratios a polished stage sums its lifted points in one
    _pair_pass, the energy the lift bound is checked on, and its search
    starts from that pair, so a stage that accepts no move sums nothing
    more; on unequal ratios, where no bound is checked, only its search
    sums its points.  With polish=False the stages after the first are the
    raw iterated lifts, the construction behind the geometric-subsequence
    bound, and only they form cross terms.
    A raw stage j is never evaluated directly: its energy is
    sum_m r_m**(-s) * E_prev + cross_j and its squared min_distance
    min(min_m r_m**2 * delta_prev**2, least cross distance**2), so it
    describes the exact images of the previous stage and the lift bound is
    checked on that energy; it carries cross_j as `cross`.  When the maps
    share one linear part (Fractal.shared_linear_part) cross_j is drawn from
    one _shared_lift_crosses generator per chain, which forms the
    translation-difference clouds of stage 0 on its first draw and advances
    them by one stage per draw; otherwise it comes from one _lift_cross pass
    over the images.  A stage's points are the image cloud of the previous
    stage's, so a raw stage j keeps stage 0's words and j lifts; a polished
    stage decodes the words it searches on.  No stage's config is read
    here.  Every stage is a local search, so opts.strategy "exhaustive",
    whose budget caps subsets, raises DomainError.  A polished stage j
    moves words up to _max_depth(opts, its deepest word, j): opts.max_depth
    + j, since a lift adds one letter to every word, else 8 below its
    deepest lifted word.
    """
    opts = opts if opts is not None else SearchOptions()
    if opts.strategy == "exhaustive":
        raise DomainError("lift chains search locally; strategy 'exhaustive' is not supported")
    M = len(fractal.maps)
    if k > 0 and M < 2:
        raise HypothesisError("lifting needs at least two maps")
    if k > 0 and fractal.sigma <= 0.0:
        raise HypothesisError("lift chains need a certified positive separation")
    if n0 < 1:
        raise DomainError("n0 must be at least 1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    mesh = _Mesh(fractal)
    if n0 == 1:
        words, pts = [()], fractal.base_anchor()[None, :]
        pair, moves, depth, strategy = (0.0, math.inf), 0, 0, "lift-seeded"
    else:
        state, pair, moves, depth = _local_search_state(fractal, n0, s, opts, mesh)
        words, pts, strategy = state.words, state.pts, "local-search"
    stages = [_result(fractal, s, pts, words, strategy, False, moves, pair, depth)]
    # sep2 stays squared across stages: a root taken in between would move its bits
    energy, sep2 = pair
    weight = sum(m.ratio ** (-s) for m in fractal.maps)
    r2 = min(fractal.ratios) ** 2
    linear = None if polish else fractal.shared_linear_part
    if linear is not None:
        translations = np.stack([m.translation for m in fractal.maps])
        shared = _shared_lift_crosses(pts, linear, translations, s)
    for j in range(1, k + 1):
        n_prev = pts.shape[0]
        # stage sizes are set by n0 and k, not by the cloud budget
        pts = _image_cloud(fractal, pts, 1, math.inf)
        if polish:
            pair = _pair_pass(pts, s) if fractal.equal_ratios else None  # for the lift bound
            if pair is not None:
                _check_lift_bound(fractal, s, n_prev, energy, pair[0])
            state = _State(_level_words(range(M * n_prev), M, 1, words), pts)
            max_depth = _max_depth(opts, max(len(w) for w in state.words), j)
            state, pair, moves = _run_search(fractal, s, state, opts, max_depth, mesh, pair)
            words, pts, lifts, cross = state.words, state.pts, 0, None
        else:
            cross, cross_sep2 = _lift_cross(np.split(pts, M), s) if linear is None else next(shared)
            lifted = weight * energy + cross
            _check_lift_bound(fractal, s, n_prev, energy, lifted)
            pair = lifted, min(r2 * sep2, cross_sep2)
            moves, lifts = 0, j
        energy, sep2 = pair
        stages.append(_result(fractal, s, pts, words, "lift-seeded", False, moves, pair,
                              depth + j, lifts, cross))
    return stages


def best_packing(fractal: Fractal, N: int, depth: int = None,
                 budget: int = None) -> PackingResult:
    """Maximize the least pairwise distance over the depth-l symbolic mesh.

    depth None is the least depth with M**l >= N, reported as
    PackingResult.depth.  Exhaustive (certified) while the subset count
    fits the budget (None is DEFAULT_SUBSET_BUDGET), otherwise a
    farthest-point greedy start with single-point exchange sweeps.
    """
    if depth is None:
        depth = _auto_depth(len(fractal.maps), N)
    budget = DEFAULT_SUBSET_BUDGET if budget is None else budget
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
    return PackingResult(config, best_delta, certified, strategy, depth)
