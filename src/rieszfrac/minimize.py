"""Search for low-energy and well-separated configurations on a fractal.

Candidate points are symbolic: a point is psi_w(f_b), the image of the fixed
point of map b under the cell word w.  At any depth this mesh contains every
cell corner (e.g. both endpoints of each Cantor cell), so optima such as
{0, 1} are exactly representable.  exhaustive_minimize enumerates subsets of
the plain base anchors psi_w(b1) by default, matching the certified-oracle
contract; pass mesh="endpoint" to certify over the full symbolic mesh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import Configuration, EnergyRecord, point_energy_sums, riesz_energy
from .errors import (
    DomainError,
    HypothesisError,
    ResourceBudgetError,
    SingularConfigurationError,
)
from .fractal import CellAddress, Fractal, _sq_dists, anchor_cloud
from .parallel import parallel_map, spawned_rngs

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
    """Lazily built symbolic levels; rows ordered word-major, base-minor."""

    def __init__(self, fractal: Fractal, budget: int = 1 << 18):
        self.fractal = fractal
        self.budget = budget
        self._levels = {}

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


def _candidate_block(mesh: _Mesh, word, max_depth: int):
    """Relocation and descent targets for a point currently at `word`."""
    f = mesh.fractal
    M = len(f.maps)
    level1_coords, level1_words, level1_bases = mesh.level(1)
    depth = len(word)
    blocks = []
    words = []
    bases = []
    if M ** depth <= LEVEL_MOVE_CAP and depth >= 1:
        c, w, b = mesh.level(depth)
        blocks.append(c)
        words.extend(w)
        bases.extend(b)
    elif depth >= 1:
        parent = word[:-1]
        blocks.append(f.apply_word(parent, level1_coords))
        words.extend(parent + lw for lw in level1_words)
        bases.extend(level1_bases)
    if depth < max_depth:
        blocks.append(f.apply_word(word, level1_coords))
        words.extend(word + lw for lw in level1_words)
        bases.extend(level1_bases)
    if not blocks:
        return None
    return np.concatenate(blocks, axis=0), words, bases


def _sweep(fractal: Fractal, s: float, state: _State, max_depth: int, mesh: _Mesh,
           budget_left: int) -> int:
    """One pass of best-improvement single-point moves; returns accepted count."""
    accepted = 0
    n = len(state.words)
    for i in range(n):
        if accepted >= budget_left:
            break
        block = _candidate_block(mesh, state.words[i], max_depth)
        if block is None:
            continue
        coords, words, bases = block
        current = point_energy_sums(state.pts[i][None, :], state.pts, s, skip_index=i)[0]
        values = point_energy_sums(coords, state.pts, s, skip_index=i)
        j = int(np.argmin(values))
        if values[j] < current - 1e-12 * (1.0 + abs(current)):
            state.words[i] = tuple(words[j])
            state.bases[i] = bases[j]
            state.pts[i] = coords[j]
            accepted += 1
    return accepted


def _run_search(fractal, s, state, opts: SearchOptions, max_depth, mesh):
    total = 0
    for _ in range(_MAX_SWEEPS):
        left = opts.moves_budget - total
        if left <= 0:
            break
        accepted = _sweep(fractal, s, state, max_depth, mesh, left)
        total += accepted
        if accepted == 0:
            break
    return state, riesz_energy(state.pts, s), total


def _state_result(fractal, s, state: _State, strategy, certified, iterations) -> MinimizeResult:
    config = Configuration(
        state.pts.copy(),
        addresses=tuple(CellAddress(w) for w in state.words),
        fractal_label=fractal.label,
    )
    record = EnergyRecord.from_config(config, s, fractal.dimension)
    return MinimizeResult(config, record, strategy, certified, iterations)


def exhaustive_minimize(fractal: Fractal, N: int, s: float, depth: int,
                        refine_depth: int = 0, mesh: str = "anchor",
                        budget: int = DEFAULT_SUBSET_BUDGET) -> MinimizeResult:
    """Certified minimum over all N-subsets of the depth-l candidate mesh.

    Subsets are visited in lexicographic order and the first minimum is kept.
    The optional refinement then descends each chosen point inside its own
    cell (child anchors, refine_depth extra levels), which can only lower the
    energy, so the certificate against same-depth anchor configurations holds.
    """
    if N < 2:
        raise DomainError("need at least two points")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if refine_depth < 0:
        raise DomainError("refine_depth must be nonnegative")
    M = len(fractal.maps)
    if mesh == "anchor":
        coords = anchor_cloud(fractal, depth)
        words = list(itertools.product(range(1, M + 1), repeat=depth))
        bases = [1] * len(words)
    elif mesh == "endpoint":
        coords, words, bases = _Mesh(fractal).level(depth)
    else:
        raise DomainError("mesh must be 'anchor' or 'endpoint'")
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"only {K} candidates at depth {depth} for N={N}")
    count = math.comb(K, N)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} subsets exceed the enumeration budget {budget}"
        )
    d2 = _sq_dists(coords, coords)
    np.fill_diagonal(d2, np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        kernel = d2 ** (-0.5 * s)
    best_e = math.inf
    best = None
    for subset in itertools.combinations(range(K), N):
        e = float(kernel[np.ix_(subset, subset)].sum())
        if e < best_e:
            best_e = e
            best = subset
    if best is None or math.isinf(best_e):
        raise SingularConfigurationError("every candidate subset contains coincident points")
    state = _State([tuple(words[i]) for i in best], [bases[i] for i in best],
                   coords[list(best)])
    if refine_depth > 0:
        _refine_in_cells(fractal, s, state, depth + refine_depth)
    return _state_result(fractal, s, state, "exhaustive", True, count)


def _refine_in_cells(fractal, s, state: _State, max_depth: int):
    """Greedy descent of each point through child anchors, within its cell."""
    first_level = np.stack([m.apply(fractal.base_anchor()) for m in fractal.maps])
    M = len(fractal.maps)
    for _ in range(_MAX_SWEEPS):
        improved = False
        for i in range(len(state.words)):
            w = state.words[i]
            if len(w) >= max_depth:
                continue
            coords = fractal.apply_word(w, first_level)
            current = point_energy_sums(state.pts[i][None, :], state.pts, s, skip_index=i)[0]
            values = point_energy_sums(coords, state.pts, s, skip_index=i)
            j = int(np.argmin(values))
            if values[j] < current - 1e-13 * (1.0 + abs(current)):
                state.words[i] = w + (j + 1,)
                state.pts[i] = coords[j]
                improved = True
        if not improved:
            break


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

    outcomes = parallel_map(run, starts)
    best_i = min(range(len(outcomes)), key=lambda i: (outcomes[i][1], i))
    state, energy, moves = outcomes[best_i]
    return state, energy, moves


def local_search_minimize(fractal: Fractal, N: int, s: float,
                          opts: SearchOptions = None) -> MinimizeResult:
    """Seeded multi-restart descent over symbolic cell moves.

    Moves relocate one point at a time: across the whole level while it is
    small, to same-parent sibling cells otherwise, and down to child cells up
    to max_depth.  Energy never increases along accepted moves and the whole
    run is a pure function of the options (seed included).
    """
    opts = opts if opts is not None else SearchOptions()
    if opts.strategy == "exhaustive":
        depth = opts.depth if opts.depth is not None else _auto_depth(len(fractal.maps), N)
        return exhaustive_minimize(fractal, N, s, depth)
    if opts.strategy == "lift-seeded":
        return _lift_seeded(fractal, N, s, opts)
    state, _, moves = _local_search_state(fractal, N, s, opts)
    return _state_result(fractal, s, state, "local-search", False, moves)


def _lift_seeded(fractal: Fractal, N: int, s: float, opts: SearchOptions) -> MinimizeResult:
    M = len(fractal.maps)
    n0, k = N, 0
    while n0 % M == 0 and n0 // M >= 2:
        n0 //= M
        k += 1
    if k == 0:
        state, _, moves = _local_search_state(fractal, N, s,
                                              replace(opts, strategy="local-search"))
        return _state_result(fractal, s, state, "local-search", False, moves)
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
        n = config.n
        lhs = riesz_energy(out, s)
        rhs = (M ** (1.0 + s / fractal.dimension)) * riesz_energy(config, s) \
            + (fractal.sigma ** (-s)) * n * n * M * M
        if lhs > rhs * (1.0 + 1e-9):
            raise AssertionError(
                f"lift energy bound violated: {lhs!r} > {rhs!r}; "
                "this indicates inconsistent fractal geometry data"
            )
    return out


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
    is the construction behind the geometric-subsequence bound.
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
    results = []
    if n0 == 1:
        state = _State([()], [1], fractal.base_anchor()[None, :])
        moves = 0
    else:
        state, _, moves = _local_search_state(
            fractal, n0, s, replace(opts, strategy="local-search"))
    results.append(_state_result(fractal, s, state, "lift-seeded", False, moves))
    mesh = _Mesh(fractal)
    d = fractal.dimension
    for _ in range(k):
        prev_energy = results[-1].record.energy
        n_prev = len(state.words)
        state = _lift_state(fractal, state)
        if fractal.equal_ratios or not polish:
            # the raw lift's record is both the unpolished stage and the
            # energy the lift bound is checked on
            stage = _state_result(fractal, s, state, "lift-seeded", False, 0)
        if fractal.equal_ratios:
            bound = (M ** (1.0 + s / d)) * prev_energy \
                + (fractal.sigma ** (-s)) * n_prev * n_prev * M * M
            if stage.record.energy > bound * (1.0 + 1e-9):
                raise AssertionError(
                    f"lift energy bound violated at N={len(state.words)}"
                )
        if polish:
            max_depth = max(len(w) for w in state.words) + 8
            state, _, moves = _run_search(fractal, s, state, opts, max_depth, mesh)
            stage = _state_result(fractal, s, state, "lift-seeded", False, moves)
        results.append(stage)
    return results


def best_packing(fractal: Fractal, N: int, depth: int,
                 opts: SearchOptions = None,
                 budget: int = DEFAULT_SUBSET_BUDGET) -> PackingResult:
    """Maximize the least pairwise distance over the depth-l symbolic mesh.

    Exhaustive (certified) while the subset count fits the budget, otherwise
    a farthest-point greedy start with single-point exchange sweeps.
    """
    if N < 2:
        raise DomainError("need at least two points")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    coords, words, bases = _Mesh(fractal).level(depth)
    K = coords.shape[0]
    if K < N:
        raise DomainError(f"only {K} candidates at depth {depth} for N={N}")
    dist = np.sqrt(_sq_dists(coords, coords))
    np.fill_diagonal(dist, np.inf)
    if math.comb(K, N) <= budget:
        best_delta = -math.inf
        best = None
        for subset in itertools.combinations(range(K), N):
            delta = float(dist[np.ix_(subset, subset)].min())
            if delta > best_delta:
                best_delta = delta
                best = subset
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
