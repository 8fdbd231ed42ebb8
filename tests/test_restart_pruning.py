"""Random restarts that a cell-count floor proves cannot win are not run.

From a start depth past LEVEL_MOVE_CAP a search keeps every point in the
parent cell of its start word, so the counts per parent cell, and with them
a lower bound on the final energy (minimize._cell_count_bound), are fixed by
the start.  The tests check the bound against a published table and the
certified exhaustive minima, the invariant it rests on, and that a pruned
search returns every bit of the search that runs every restart.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rieszfrac as rf
from rieszfrac import minimize
from rieszfrac.fractal import _sq_dists
from rieszfrac.minimize import (
    LEVEL_MOVE_CAP,
    _auto_depth,
    _can_win,
    _cell_count_bound,
    _farthest_point_indices,
    _level_words,
    _Mesh,
    _run_search,
    _State,
)
from rieszfrac.parallel import restart_indices


def _fractals(mixed_fractal):
    return {"cantor": rf.cantor("1/3"), "dust": rf.cantor_dust_2d(0.25),
            "two-scale": mixed_fractal}


# --------------------------------------------------------- greedy maximin start

def _reference_farthest_point_indices(coords, N):
    """The greedy maximin seed as it was first written: a new distance
    array per pick."""
    chosen = [0]
    d2 = _sq_dists(coords, coords[0][None, :])[:, 0]
    while len(chosen) < N:
        j = int(np.argmax(d2))
        if d2[j] == 0.0:
            raise rf.DomainError("mesh has too few distinct points for the request")
        chosen.append(j)
        d2 = np.minimum(d2, _sq_dists(coords, coords[j][None, :])[:, 0])
    return chosen


@pytest.mark.parametrize("name, N", [("cantor", 256), ("cantor", 1024), ("dust", 256),
                                     ("dust", 300), ("two-scale", 128), ("two-scale", 300)])
def test_greedy_start_matches_the_reference_loop(name, N, mixed_fractal):
    fractal = _fractals(mixed_fractal)[name]
    M = len(fractal.maps)
    coords = _Mesh(fractal).level(_auto_depth(M, N))
    assert _farthest_point_indices(coords, N) == _reference_farthest_point_indices(coords, N)
    K = coords.shape[0]
    assert _farthest_point_indices(coords, K) == _reference_farthest_point_indices(coords, K)
    with pytest.raises(rf.DomainError):
        _farthest_point_indices(np.zeros((4, 2)), 2)


def test_greedy_packing_route_matches_the_reference_loop(monkeypatch, mixed_fractal):
    for fractal, N, depth in [(rf.cantor("1/3"), 5, 5), (rf.cantor_dust_2d(0.25), 6, 2),
                              (mixed_fractal, 5, 5)]:
        got = rf.best_packing(fractal, N, depth=depth, budget=10)
        with monkeypatch.context() as m:
            m.setattr(minimize, "_farthest_point_indices", _reference_farthest_point_indices)
            want = rf.best_packing(fractal, N, depth=depth, budget=10)
        assert got.strategy == want.strategy == "greedy-exchange"
        assert got.config.points.tobytes() == want.config.points.tobytes()
        assert got.config.addresses == want.config.addresses
        assert got.delta == want.delta


# ------------------------------------------------------------ the count floor

def _normalized_floor(fractal, s, n):
    B = _cell_count_bound(fractal.ratios, s, fractal.diameter, n)
    return B[n] / n ** (1.0 + s / fractal.dimension)


def test_count_bound_matches_the_all_depth_table():
    # cantor(1/3) at s = 3: the all-depth balanced count tree
    cantor = rf.cantor("1/3")
    B = _cell_count_bound(cantor.ratios, 3.0, cantor.diameter, 5)
    # 3**3 in floats is (1/3)**-3, one ulp above 27
    assert list(B) == pytest.approx([0.0, 0.0, 2.0, 58.0, 116.0, 1632.0], rel=1e-14)
    assert round(_normalized_floor(cantor, 3.0, 5), 5) == 0.15496
    assert round(_normalized_floor(cantor, 3.0, 10), 5) == 0.15505
    for k in range(2, 6):
        assert round(_normalized_floor(cantor, 3.0, 3 * 2 ** k), 5) == 0.10479
    for k in range(4, 9):
        assert round(_normalized_floor(cantor, 3.0, 2 ** k), 5) == 0.04000


@pytest.mark.parametrize("name, s, depth", [("cantor", 3.0, 3), ("dust", 2.0, 1),
                                            ("dust", 4.0, 1), ("two-scale", 3.0, 3)])
def test_count_bound_is_below_the_certified_minimum(name, s, depth, mixed_fractal):
    fractal = _fractals(mixed_fractal)[name]
    B = _cell_count_bound(fractal.ratios, s, fractal.diameter, 6)
    for n in range(2, 7):
        oracle = rf.exhaustive_minimize(fractal, n, s, depth, mesh="endpoint")
        assert 0.0 < B[n] <= oracle.record.energy


# ------------------------------------------------ the invariant the floor rests on

@st.composite
def _deep_starts(draw):
    name, low, high = draw(st.sampled_from([("cantor", 257, 700), ("dust", 257, 400),
                                            ("two-scale", 300, 300)]))
    return name, draw(st.integers(low, high)), draw(st.integers(0, 1 << 20)), \
        draw(st.sampled_from([None, 0, 1, 2]))


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_deep_starts())
def test_points_stay_in_the_parent_cell_of_their_start(mixed_fractal, case):
    name, N, seed, restart = case
    fractal = _fractals(mixed_fractal)[name]
    M = len(fractal.maps)
    depth = _auto_depth(M, N)
    assert M ** depth > LEVEL_MOVE_CAP
    mesh = _Mesh(fractal)
    coords = mesh.level(depth)
    rows = (_farthest_point_indices(coords, N) if restart is None
            else restart_indices(seed, restart, coords.shape[0], N))
    start = _level_words(rows, M, depth)
    state = _State(start, coords[rows])
    s = 4.0 if name == "dust" else 3.0
    _, _, moves = _run_search(fractal, s, state, rf.SearchOptions(seed=seed), depth + 8, mesh)
    assert moves > 0 or restart is None
    for word, first in zip(state.words, start):
        assert word[: depth - 1] == first[:-1]


# ----------------------------------------------- pruning changes no bit

def _record_searches(monkeypatch):
    """Run restarts in this process and record the start words of each search."""
    seen = []

    def recording(fractal, s, state, opts, max_depth, mesh, start_pair=None):
        seen.append(tuple(state.words))
        return _run_search(fractal, s, state, opts, max_depth, mesh, start_pair)

    monkeypatch.setattr(minimize, "_run_search", recording)
    monkeypatch.setattr(minimize, "parallel_map", lambda fn, items: [fn(x) for x in items])
    return seen


@pytest.mark.parametrize("name, N, seed", [("cantor", 300, 1), ("dust", 300, 1),
                                           ("two-scale", 300, 1), ("cantor", 1024, 1),
                                           ("cantor", 1024, 2)])
def test_pruned_search_equals_running_every_restart(name, N, seed, monkeypatch, mixed_fractal):
    fractal = _fractals(mixed_fractal)[name]
    s = 4.0 if name == "dust" else 3.0
    opts = rf.SearchOptions(seed=seed, restarts=3)
    M = len(fractal.maps)
    depth = _auto_depth(M, N)
    mesh = _Mesh(fractal)
    coords = mesh.level(depth)
    K = coords.shape[0]
    starts = [_farthest_point_indices(coords, N)]
    starts += [restart_indices(seed, r, K, N) for r in range(2)]
    reference = []
    for rows in starts:
        state = _State(_level_words(rows, M, depth), coords[rows])
        reference.append(_run_search(fractal, s, state, opts, depth + 8, mesh))
    best = min(range(3), key=lambda r: (reference[r][1][0], r))
    state, (energy, _), moves = reference[best]

    seen = _record_searches(monkeypatch)
    res = rf.local_search_minimize(fractal, N, s, opts)
    assert res.words == tuple(state.words)
    assert res.points.tobytes() == state.pts.tobytes()
    assert res.record.energy.hex() == energy.hex()
    assert res.iterations == moves
    # the pruned starts never reached a search, and pruning happened
    kept, _ = _can_win(fractal, s, mesh, starts, depth, depth + 8, 10_000)
    assert seen == [tuple(_level_words(starts[r], M, depth)) for r in kept]
    assert kept == [0]
    # every start's search ends above the floor of its start
    for rows, (_, (final, _), _) in zip(starts, reference):
        assert final >= _floor(fractal, s, _level_words(rows, M, depth))


def _floor(fractal, s, words):
    """sum_c r_c**(-s) B(n_c) over the parent cells c of the words."""
    counts = collections.Counter(w[:-1] for w in words)
    B = _cell_count_bound(fractal.ratios, s, fractal.diameter, max(counts.values()))
    return sum(math.prod(fractal.ratios[m - 1] ** -s for m in c) * B[n]
               for c, n in counts.items())


def test_nothing_is_pruned_where_a_guard_fails(mixed_fractal):
    cantor = rf.cantor("1/3")
    mesh = _Mesh(cantor)

    def kept(N, budget):
        depth = _auto_depth(2, N)
        coords = mesh.level(depth)
        starts = [_farthest_point_indices(coords, N)]
        starts += [restart_indices(7, r, coords.shape[0], N) for r in range(2)]
        return _can_win(cantor, 3.0, mesh, starts, depth, depth + 8, budget)[0]

    assert kept(1024, 10_000) == [0]
    # a start whose floor lies below restart 0's start energy: that start itself
    depth = _auto_depth(2, 1024)
    greedy = _farthest_point_indices(mesh.level(depth), 1024)
    assert _can_win(cantor, 3.0, mesh, [greedy, greedy], depth, depth + 8, 10_000)[0] == [0, 1]
    # level moves within the cap: the counts are not fixed
    assert kept(256, 10_000) == [0, 1, 2]
    # a move budget whose rounding allowance exceeds the margin's limit
    assert kept(1024, 10 ** 11) == [0, 1, 2]


def test_a_start_that_never_moves_is_summed_once(monkeypatch):
    # cantor(1/3) at N = 1024: both random starts are pruned and restart 0,
    # the greedy start, accepts no move, so the pair pass that tested the
    # random starts is also its result
    cantor = rf.cantor("1/3")
    N, s, opts = 1024, 3.0, rf.SearchOptions(seed=1, restarts=3)
    depth = _auto_depth(2, N)
    mesh = _Mesh(cantor)
    coords = mesh.level(depth)
    rows = _farthest_point_indices(coords, N)
    state, (energy, sep2), moves = _run_search(cantor, s, _State(_level_words(rows, 2, depth),
                                                                 coords[rows]),
                                               opts, depth + 8, mesh)
    assert moves == 0

    start = coords[rows].tobytes()
    summed = []
    pair_pass = minimize._pair_pass

    def counting(pts, s):
        summed.append(pts.tobytes())
        return pair_pass(pts, s)

    seen = _record_searches(monkeypatch)
    monkeypatch.setattr(minimize, "_pair_pass", counting)
    res = rf.local_search_minimize(cantor, N, s, opts)
    assert len(seen) == 1 and summed == [start]
    assert res.iterations == 0
    assert res.words == tuple(state.words)
    assert res.points.tobytes() == state.pts.tobytes() == start
    assert res.record.energy.hex() == energy.hex()
    assert res.min_distance.hex() == math.sqrt(sep2).hex()
