"""Search for low-energy and well-separated configurations on a fractal.

Candidate points are symbolic: a point is psi_w(f_b), the image of the fixed
point of map b under the cell word w.  At any depth this mesh contains every
cell corner (e.g. both endpoints of each Cantor cell), so optima such as
{0, 1} are exactly representable.  exhaustive_minimize enumerates subsets of
the plain base anchors psi_w(b1) (the base-1 rows of the mesh) by default,
matching the certified-oracle contract; pass mesh="endpoint" to certify over
the full symbolic mesh.  local_search_minimize is the one entry that reads
SearchOptions.strategy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    Configuration,
    EnergyRecord,
    _lift_cross,
    _min_sq_distance,
    _point_kernel,
    point_energy_sums,
    riesz_energy,
)
from .errors import (
    DomainError,
    HypothesisError,
    ResourceBudgetError,
    SingularConfigurationError,
)
from .fractal import CellAddress, Fractal, _sq_dists
from .parallel import spawned_rngs

DEFAULT_SUBSET_BUDGET = 5_000_000
# whole-level relocation moves are offered while M**depth stays below this;
# deeper points fall back to same-parent sibling and child moves only
LEVEL_MOVE_CAP = 256
_MAX_SWEEPS = 200
_STRATEGIES = ("exhaustive", "local-search", "lift-seeded")


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by the search strategies; seed fixes every random choice."""

    depth: int = None
    max_depth: int = None
    restarts: int = 3
    moves_budget: int = 10_000
    seed: int = 0
    strategy: str = "local-search"
    subset_budget: int = DEFAULT_SUBSET_BUDGET

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
        if self.moves_budget < 1:
            raise DomainError("moves_budget must be positive")
        if self.subset_budget < 1:
            raise DomainError("subset_budget must be positive")
        if self.strategy not in _STRATEGIES:
            raise DomainError(f"strategy must be one of {_STRATEGIES}")


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    config: Configuration
    record: EnergyRecord
    strategy: str
    certified: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class PackingResult:
    config: Configuration
    delta: float
    certified: bool
    strategy: str


class _State:
    """Mutable search state: one (word, base) label and coordinate per point."""

    __slots__ = ("words", "bases", "pts")

    def __init__(self, words, bases, pts):
        self.words = list(words)
        self.bases = list(bases)
        self.pts = np.array(pts, dtype=float)

    def copy(self):
        return _State(self.words, self.bases, self.pts)


class _Mesh:
    """Lazily built symbolic levels and cached cell blocks.

    Level rows are ordered word-major, base-minor, so row q*M**2 + (m-1)*M +
    (b-1) of level d is the point with base b whose word is the (q+1)-th
    word of depth d-1 followed by m.  The block of a word w is
    apply_word(w, level 1): the same layout with the word w in place of the
    depth d-1 prefix.  It is built as the first map of w applied to the
    (cached) block of the rest of w, the float operations of apply_word.  A
    point's sibling candidates are its parent's block and its child
    candidates its own.  Blocks are cached by word and hold
    coordinates only.  Restarts run in order, so one mesh serves them all.
    """

    def __init__(self, fractal: Fractal, budget: int = 1 << 18):
        self.fractal = fractal
        self.budget = budget
        self._levels = {}
        self._blocks = {}

    def level(self, depth: int):
        if depth not in self._levels:
            f = self.fractal
            M = len(f.maps)
            if (M ** depth) * M > self.budget:
                raise ResourceBudgetError(
                    f"symbolic mesh at depth {depth} exceeds budget {self.budget}"
                )
            coords = f.fixed_points()
            for _ in range(depth):
                coords = np.concatenate([m.apply(coords) for m in f.maps], axis=0)
            words = [w for w in itertools.product(range(1, M + 1), repeat=depth) for _ in range(M)]
            bases = [b for _ in range(M ** depth) for b in range(1, M + 1)]
            self._levels[depth] = (coords, words, bases)
        return self._levels[depth]

    def block(self, word):
        if not word:
            return self.level(1)[0]
        coords = self._blocks.get(word)
        if coords is None:
            coords = self._blocks[word] = \
                self.fractal.maps[word[0] - 1].apply(self.block(word[1:]))
        return coords


def _row_label(prefix, tail_len: int, row: int, M: int):
    """(word, base) of `row` in a block laid out as described on _Mesh.

    tail_len is the number of letters between prefix and the last letter:
    depth - 1 for a whole level (prefix ()), 0 for a cell block.
    """
    q, rem = divmod(row, M * M)
    tail = []
    for _ in range(tail_len):
        q, r = divmod(q, M)
        tail.append(r + 1)
    return prefix + tuple(reversed(tail)) + (rem // M + 1,), rem % M + 1


def _auto_depth(M: int, N: int) -> int:
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


def _level_values(G: np.ndarray, i: int) -> np.ndarray:
    """Row sums of G without column i: it is set to 0.0, summed and restored."""
    saved = G[:, i].copy()
    G[:, i] = 0.0
    values = G.sum(axis=1)
    G[:, i] = saved
    return values


def _sweep(fractal: Fractal, s: float, state: _State, max_depth: int, mesh: _Mesh,
           kernels: dict, budget_left: int) -> int:
    """One pass of best-improvement single-point moves; returns accepted count.

    Point i is offered the whole level of its depth d while M**d stays within
    LEVEL_MOVE_CAP, otherwise its sibling cells, plus its child cells while
    d < max_depth.  Level values are row sums of the kernel G_d in `kernels`
    (level d row against every point) with column i set to 0, the summands
    point_energy_sums(..., skip_index=i) would form; an accepted move
    recomputes column i of every G_d kept.  Cell blocks come from the mesh
    cache.  Restarts run in order, so nothing here is shared across threads.
    """
    M = len(fractal.maps)
    pts = state.pts
    accepted = 0
    for i in range(len(state.words)):
        if accepted >= budget_left:
            break
        word = state.words[i]
        depth = len(word)
        level = depth >= 1 and M ** depth <= LEVEL_MOVE_CAP
        # (coords, prefix, tail_len) per candidate block, in offer order
        blocks = []
        if level:
            blocks.append((mesh.level(depth)[0], (), depth - 1))
        elif depth >= 1:
            blocks.append((mesh.block(word[:-1]), word[:-1], 0))
        if depth < max_depth:
            blocks.append((mesh.block(word), word, 0))
        if not blocks:
            continue
        cells = [pts[i][None, :]] + [c for c, _, _ in (blocks[1:] if level else blocks)]
        sums = point_energy_sums(np.concatenate(cells, axis=0), pts, s, skip_index=i)
        current = sums[0]
        values = sums[1:]
        if level:
            G = kernels.get(depth)
            if G is None:
                G = kernels[depth] = _point_kernel(blocks[0][0], pts, s)
            values = np.concatenate([_level_values(G, i), values])
        j = int(np.argmin(values))
        if values[j] < current - 1e-12 * (1.0 + abs(current)):
            for coords, prefix, tail_len in blocks:
                if j < coords.shape[0]:
                    break
                j -= coords.shape[0]
            state.words[i], state.bases[i] = _row_label(prefix, tail_len, j, M)
            pts[i] = coords[j]
            for d, G in kernels.items():
                G[:, i] = _point_kernel(pts[i : i + 1], mesh.level(d)[0], s)[0]
            accepted += 1
    return accepted


def _run_search(fractal, s, state, opts: SearchOptions, max_depth, mesh):
    """Sweep until no move improves, the move budget is spent or _MAX_SWEEPS.

    The level kernels built by the first sweep that needs them are kept,
    column by column current, for every later sweep.
    """
    kernels = {}
    total = 0
    for _ in range(_MAX_SWEEPS):
        left = opts.moves_budget - total
        if left <= 0:
            break
        accepted = _sweep(fractal, s, state, max_depth, mesh, kernels, left)
        total += accepted
        if accepted == 0:
            break
    return state, riesz_energy(state.pts, s), total


def _state_result(fractal, s, state: _State, strategy, certified, iterations,
                  energy: float = None) -> MinimizeResult:
    """The state as a result; its energy is evaluated unless already known."""
    config = Configuration(
        state.pts.copy(),
        addresses=tuple(CellAddress(w) for w in state.words),
        fractal_label=fractal.label,
    )
    if energy is None:
        record = EnergyRecord.from_config(config, s, fractal.dimension)
    else:
        record = EnergyRecord.from_energy(energy, config.n, s, fractal.dimension)
    return MinimizeResult(config, record, strategy, certified, iterations)


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
    """(coords, words, bases) of the depth-l mesh, checked to hold N points.

    base_only keeps the base-1 rows, the cell anchors psi_w(b1).
    """
    if N < 2:
        raise DomainError("need at least two points")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    coords, words, bases = _Mesh(fractal).level(depth)
    if base_only:
        M = len(fractal.maps)
        coords, words, bases = coords[::M], words[::M], bases[::M]
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"only {K} candidates at depth {depth} for N={N}")
    return coords, words, bases


def exhaustive_minimize(fractal: Fractal, N: int, s: float, depth: int,
                        mesh: str = "anchor",
                        budget: int = DEFAULT_SUBSET_BUDGET) -> MinimizeResult:
    """Certified minimum over all N-subsets of the depth-l candidate mesh.

    Subsets are visited in lexicographic order and the first minimum is kept.
    """
    if mesh not in ("anchor", "endpoint"):
        raise DomainError("mesh must be 'anchor' or 'endpoint'")
    coords, words, bases = _subset_mesh(fractal, N, depth, mesh == "anchor")
    count = math.comb(coords.shape[0], N)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} subsets exceed the enumeration budget {budget}"
        )
    d2 = _sq_dists(coords, coords)
    np.fill_diagonal(d2, np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        kernel = d2 ** (-0.5 * s)
    best_e, best = _first_best(
        coords.shape[0], N, lambda sub: float(kernel[np.ix_(sub, sub)].sum()))
    if best is None:
        raise SingularConfigurationError("every candidate subset contains coincident points")
    state = _State([words[i] for i in best], [bases[i] for i in best],
                   coords[list(best)])
    return _state_result(fractal, s, state, "exhaustive", True, count)


def _local_search_state(fractal: Fractal, N: int, s: float, opts: SearchOptions):
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
    coords, words, bases = mesh.level(depth)
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"depth {depth} offers only {K} candidates for N={N}")

    starts = [_farthest_point_indices(coords, N)]
    rngs = spawned_rngs(opts.seed, max(opts.restarts - 1, 0))
    for rng in rngs:
        idx = np.sort(rng.choice(K, size=N, replace=False))
        starts.append([int(i) for i in idx])

    def run(indices):
        st = _State([tuple(words[i]) for i in indices],
                    [bases[i] for i in indices], coords[list(indices)])
        return _run_search(fractal, s, st, opts, max_depth, mesh)

    outcomes = [run(st) for st in starts]
    best_i = min(range(len(outcomes)), key=lambda i: (outcomes[i][1], i))
    state, energy, moves = outcomes[best_i]
    return state, energy, moves


def local_search_minimize(fractal: Fractal, N: int, s: float,
                          opts: SearchOptions = None) -> MinimizeResult:
    """Minimize by the strategy opts names; the one place that reads it.

    "local-search" (the default) is a seeded multi-restart descent over
    symbolic cell moves.  Moves relocate one point at a time: across the
    whole level while it is small, to same-parent sibling cells otherwise,
    and down to child cells up to max_depth.  Energy never increases along
    accepted moves and the whole run is a pure function of the options (seed
    included).  "exhaustive" is exhaustive_minimize over the depth-l anchors
    (opts.depth, else the least depth with M**l >= N) within
    opts.subset_budget subsets; "lift-seeded" polishes a lift chain when N
    is n0 * M**k with k >= 1 and runs the local search otherwise.
    """
    opts = opts if opts is not None else SearchOptions()
    if opts.strategy == "exhaustive":
        depth = opts.depth if opts.depth is not None else _auto_depth(len(fractal.maps), N)
        return exhaustive_minimize(fractal, N, s, depth, budget=opts.subset_budget)
    if opts.strategy == "lift-seeded":
        return _lift_seeded(fractal, N, s, opts)
    state, energy, moves = _local_search_state(fractal, N, s, opts)
    return _state_result(fractal, s, state, "local-search", False, moves, energy)


def _lift_seeded(fractal: Fractal, N: int, s: float, opts: SearchOptions) -> MinimizeResult:
    M = len(fractal.maps)
    n0, k = N, 0
    while n0 % M == 0 and n0 // M >= 2:
        n0 //= M
        k += 1
    if k == 0:
        state, energy, moves = _local_search_state(fractal, N, s,
                                                   replace(opts, strategy="local-search"))
        return _state_result(fractal, s, state, "local-search", False, moves, energy)
    stages = lift_chain(fractal, s, n0, k, opts=opts, polish=True)
    return stages[-1]


def lift(fractal: Fractal, config: Configuration, s: float = None) -> Configuration:
    """Union of the images of the configuration under every map.

    With s given and equal contraction ratios, checks the lifted energy
    against M**(1+s/d) * E + sigma**(-s) * N**2 * M**2.
    """
    M = len(fractal.maps)
    pts = np.concatenate([m.apply(config.points) for m in fractal.maps], axis=0)
    if np.unique(pts, axis=0).shape[0] < pts.shape[0]:
        raise SingularConfigurationError("lift produced coincident points (maps overlap)")
    addrs = None
    if config.addresses is not None:
        addrs = tuple(
            CellAddress((m,) + a.word)
            for m in range(1, M + 1)
            for a in config.addresses
        )
    out = Configuration(pts, addresses=addrs, fractal_label=config.fractal_label)
    if s is not None and M >= 2 and fractal.equal_ratios and fractal.sigma > 0.0:
        energy = riesz_energy(config, s)
        lifted, _ = _lifted_energy(fractal, s, pts, energy)
        _check_lift_bound(fractal, s, config.n, energy, lifted)
    return out


def _lifted_energy(fractal: Fractal, s: float, pts: np.ndarray, energy: float):
    """(energy, least squared cross distance) of pts, the lift of a set X.

    pts stacks the images of X under maps 1..M in order; energy is E(X).  The self-similar
    recursion E(union psi_m X) = sum_m r_m**(-s) E(X) + cross terms is exact;
    the cross terms between distinct images take one pass of _lift_cross.
    """
    cross, least = _lift_cross(np.split(pts, len(fractal.maps)), s)
    return sum(m.ratio ** (-s) for m in fractal.maps) * energy + cross, least


def _check_lift_bound(fractal: Fractal, s: float, n: int, energy: float, lifted: float):
    """Equal ratios: the lift of n points of energy E has at most
    M**(1+s/d) * E + sigma**(-s) * n**2 * M**2; more means inconsistent geometry."""
    M = len(fractal.maps)
    bound = (M ** (1.0 + s / fractal.dimension)) * energy \
        + (fractal.sigma ** (-s)) * n * n * M * M
    if lifted > bound * (1.0 + 1e-9):
        raise AssertionError(
            f"lift energy bound violated at N={M * n}: {lifted!r} > {bound!r}; "
            "this indicates inconsistent fractal geometry data"
        )


def _lift_state(fractal: Fractal, state: _State) -> _State:
    M = len(fractal.maps)
    pts = np.concatenate([m.apply(state.pts) for m in fractal.maps], axis=0)
    words = [(m,) + w for m in range(1, M + 1) for w in state.words]
    bases = [b for _ in range(M) for b in state.bases]
    return _State(words, bases, pts)


def lift_chain(fractal: Fractal, s: float, n0: int, k: int,
               opts: SearchOptions = None, polish: bool = True):
    """Minimize at n0 points, then lift k times (optionally polishing each stage).

    Returns one MinimizeResult per stage, sizes n0 * M**j for j = 0..k.  With
    polish=False the stages after the first are the raw iterated lifts, which
    is the construction behind the geometric-subsequence bound; their
    energies follow from the previous stage's by the self-similar recursion
    (see _lift_chain), so they describe the exact images of that stage.
    """
    return _lift_chain(fractal, s, n0, k, opts, polish)[0]


def _lift_chain(fractal: Fractal, s: float, n0: int, k: int,
                opts: SearchOptions, polish: bool):
    """(stages, least pair distances): lift_chain and each stage's separation.

    Stage 0 and polished stages are evaluated directly.  A raw stage takes
    energy = sum_m r_m**(-s) * E_prev + cross and squared separation
    min(min_m r_m**2 * delta_prev**2, least cross distance**2), the cross
    terms from one _lift_cross pass; with equal ratios the lift bound is
    checked on that recursive energy, polished or not.  The distance is nan
    for a one-point stage and None for a polished stage (not computed).
    """
    opts = opts if opts is not None else SearchOptions()
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
        state = _State([()], [1], fractal.base_anchor()[None, :])
        energy, moves = 0.0, 0
    else:
        state, energy, moves = _local_search_state(
            fractal, n0, s, replace(opts, strategy="local-search"))
    results = [_state_result(fractal, s, state, "lift-seeded", False, moves, energy)]
    sep2 = _min_sq_distance(state.pts)
    separations = [math.sqrt(sep2) if n0 >= 2 else math.nan]
    mesh = _Mesh(fractal)
    r2 = min(fractal.ratios) ** 2
    for _ in range(k):
        prev_energy = results[-1].record.energy
        n_prev = len(state.words)
        state = _lift_state(fractal, state)
        if fractal.equal_ratios or not polish:
            energy, cross_sep2 = _lifted_energy(fractal, s, state.pts, prev_energy)
        if fractal.equal_ratios:
            _check_lift_bound(fractal, s, n_prev, prev_energy, energy)
        if polish:
            max_depth = max(len(w) for w in state.words) + 8
            state, energy, moves = _run_search(fractal, s, state, opts, max_depth, mesh)
            stage = _state_result(fractal, s, state, "lift-seeded", False, moves, energy)
            separations.append(None)
        else:
            stage = _state_result(fractal, s, state, "lift-seeded", False, 0, energy)
            sep2 = min(r2 * sep2, cross_sep2)
            separations.append(math.sqrt(sep2))
        results.append(stage)
    return results, separations


def best_packing(fractal: Fractal, N: int, depth: int,
                 budget: int = DEFAULT_SUBSET_BUDGET) -> PackingResult:
    """Maximize the least pairwise distance over the depth-l symbolic mesh.

    Exhaustive (certified) while the subset count fits the budget, otherwise
    a farthest-point greedy start with single-point exchange sweeps.
    """
    if budget < 1:
        raise DomainError("budget must be positive")
    coords, words, _ = _subset_mesh(fractal, N, depth, base_only=False)
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
        addresses=tuple(CellAddress(words[i]) for i in chosen),
        fractal_label=fractal.label,
    )
    return PackingResult(config, best_delta, certified, strategy)
