"""The candidate screens of the local-search sweep change no bit of its output.

minimize._sweep skips exact sums for candidates that a rigorous bound rules
out.  The reference below is the sweep as it was before the screens, which
scores every candidate; the differential test drives both from the same
states and compares every accepted move bit for bit.  The size thresholds
are private module constants, set to 0 here so that small cases run the
screens too; two searches at benchmark sizes run with them as they are.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from word_reference import _row_label

import rieszfrac as rf
from rieszfrac import minimize
from rieszfrac.energy import _point_kernel, _point_rows, point_energy_sums
from rieszfrac.minimize import (
    LEVEL_MOVE_CAP,
    _level_keep,
    _level_stats,
    _level_values,
    _Mesh,
    _State,
    _update_level_stats,
)


def _reference_level_values(G: np.ndarray, i: int) -> np.ndarray:
    """Row sums of G without column i: it is set to 0.0, summed and restored."""
    saved = G[:, i].copy()
    G[:, i] = 0.0
    values = G.sum(axis=1)
    G[:, i] = saved
    return values


def _reference_sweep(fractal, s, state, max_depth, mesh, kernels, budget_left) -> int:
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
        # (coords, prefix, lifts) per candidate block, in offer order
        blocks = []
        if level:
            blocks.append((mesh.level(depth), (), depth))
        elif depth >= 1:
            blocks.append((mesh.block(word[:-1]), word[:-1], 1))
        if depth < max_depth:
            blocks.append((mesh.block(word), word, 1))
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
            values = np.concatenate([_reference_level_values(G, i), values])
        j = int(np.argmin(values))
        if values[j] < current - 1e-12 * (1.0 + abs(current)):
            for coords, prefix, lifts in blocks:
                if j < coords.shape[0]:
                    break
                j -= coords.shape[0]
            state.words[i] = _row_label(j, M, lifts, prefix=prefix)
            pts[i] = coords[j]
            for d, G in kernels.items():
                G[:, i] = _point_kernel(pts[i : i + 1], mesh.level(d), s)[0]
            accepted += 1
    return accepted


# ------------------------------------------------------ differential test

def _line_ifs(ratios):
    """Maps of [0, 1] with the given ratios, images left to right with gaps."""
    gap = (1.0 - sum(ratios)) / (len(ratios) - 1)
    maps, left = [], 0.0
    for r in ratios:
        maps.append(rf.Similitude(r, np.eye(1), np.array([left])))
        left += r + gap
    return rf.make_fractal(maps, label="line")


def _rotating_ifs(angle):
    c, s = math.cos(angle), math.sin(angle)
    maps = (
        rf.Similitude(0.3, np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.3, 0.0])),
        rf.Similitude(0.3, np.eye(2), np.array([0.7, 0.0])),
        rf.Similitude(0.3, np.array([[c, -s], [s, c]]), np.array([0.2, 0.6])),
    )
    return rf.make_fractal(maps, label="rotating")


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["equal", "unequal", "rotating"]))
    if kind == "equal":
        M = draw(st.integers(2, 3))
        fractal = _line_ifs([draw(st.floats(0.1, 0.3))] * M)
    elif kind == "unequal":
        fractal = _line_ifs([draw(st.floats(0.1, 0.45)), draw(st.floats(0.1, 0.45))])
    else:
        fractal = _rotating_ifs(draw(st.sampled_from([math.pi / 6, 1.0, 2.5])))
    M = len(fractal.maps)
    d = fractal.dimension
    s = d + (6.0 - d) * draw(st.floats(0.02, 1.0))
    # depths on both sides of LEVEL_MOVE_CAP
    cap_depth = max(dd for dd in range(1, 12) if M ** dd <= LEVEL_MOVE_CAP)
    depths = st.integers(1, cap_depth + 2)
    mesh = _Mesh(fractal)
    words, pts = [], []

    def add(word, base):
        row = (word[-1] - 1) * M + base - 1
        words.append(word)
        pts.append(mesh.block(word[:-1])[row])

    for _ in range(draw(st.integers(3, 9))):
        depth = draw(depths)
        add(tuple(draw(st.lists(st.integers(1, M), min_size=depth, max_size=depth))),
            draw(st.integers(1, M)))
    # a point labelled one level deeper, placed on a row of a whole level in
    # use (psi_{w b}(f_b) is psi_w(f_b)), so that level's kernel holds an inf
    level_depth = draw(st.integers(1, cap_depth))
    w = tuple(draw(st.lists(st.integers(1, M), min_size=level_depth, max_size=level_depth)))
    b = draw(st.integers(1, M))
    add(w, b)
    words[-1] = w + (b,)
    add(tuple(draw(st.lists(st.integers(1, M), min_size=level_depth, max_size=level_depth))),
        draw(st.integers(1, M)))
    state = _State(words, np.array(pts))
    max_depth = max(len(w) for w in words) + draw(st.integers(0, 3))
    knobs = {
        "_CELL_SCREEN_MIN": draw(st.sampled_from([0, 0, minimize._CELL_SCREEN_MIN])),
        "_LEVEL_SCREEN_MIN": draw(st.sampled_from([0, 0, minimize._LEVEL_SCREEN_MIN])),
        "_MIN_BATCH": draw(st.sampled_from([1, minimize._MIN_BATCH])),
        "_BATCH_TERMS": draw(st.sampled_from([1, 3 * len(words), minimize._BATCH_TERMS])),
    }
    budget = draw(st.sampled_from([1, 2, 10_000]))
    return fractal, s, state, max_depth, knobs, budget


def _copy(state: _State) -> _State:
    return _State(state.words, state.pts)


def _assert_same(a: _State, b: _State):
    assert a.words == b.words
    assert a.pts.tobytes() == b.pts.tobytes()


# drawn states may hold coincident points, whose current is inf (as before)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_screened_sweep_matches_reference_bitwise(case):
    fractal, s, state, max_depth, knobs, budget = case
    ref, new = _copy(state), _copy(state)
    ref_mesh, new_mesh = _Mesh(fractal), _Mesh(fractal)
    ref_kernels, new_kernels = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        for name, value in knobs.items():
            mp.setattr(minimize, name, value)
        for _ in range(minimize._MAX_SWEEPS):
            expected = _reference_sweep(fractal, s, ref, max_depth, ref_mesh, ref_kernels, budget)
            got = minimize._sweep(fractal, s, new, max_depth, new_mesh, new_kernels, budget)
            assert got == expected
            _assert_same(new, ref)
            assert new_kernels.keys() == ref_kernels.keys()
            for d, (G, _) in new_kernels.items():
                assert G.tobytes() == ref_kernels[d].tobytes()
            if expected == 0:
                break


def _reference_search(fractal, s, state, max_depth, budget):
    """_run_search's loop over _reference_sweep: (accepted moves, level kernels)."""
    mesh, kernels, total = _Mesh(fractal), {}, 0
    for _ in range(minimize._MAX_SWEEPS):
        left = budget - total
        if left <= 0:
            break
        accepted = _reference_sweep(fractal, s, state, max_depth, mesh, kernels, left)
        total += accepted
        if accepted == 0:
            break
    return total, kernels


# the tail stop and the batched level screen act only across sweeps and
# batches, which only a whole search goes through
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_search_matches_reference_loop_bitwise(case):
    fractal, s, state, max_depth, knobs, budget = case
    ref, new = _copy(state), _copy(state)
    moves, ref_kernels = _reference_search(fractal, s, ref, max_depth, budget)
    kernels, accepted = {}, []
    with pytest.MonkeyPatch.context() as mp:
        for name, value in knobs.items():
            mp.setattr(minimize, name, value)
        sweep = minimize._sweep

        def spy(*args):
            accepted.append(sweep(*args))
            kernels.update(args[5])  # the search's level kernels, kept across sweeps
            return accepted[-1]

        mp.setattr(minimize, "_sweep", spy)
        # drawn states may end with coincident points, which the closing
        # pair pass rejects after the sweeps
        with contextlib.suppress(rf.SingularConfigurationError):
            minimize._run_search(fractal, s, new, rf.SearchOptions(budget=budget), max_depth,
                                 _Mesh(fractal))
    assert sum(accepted) == moves
    _assert_same(new, ref)
    assert kernels.keys() == ref_kernels.keys()
    for d, (G, _) in kernels.items():
        assert G.tobytes() == ref_kernels[d].tobytes()


# the drawn cases are small, so only their forced-to-0 thresholds screen;
# these searches run at bench sizes with the module's own thresholds, where
# the one-point level screen runs outside batches
@pytest.mark.parametrize("name, s, depth", [("cantor(1/3)", 3.0, 8),
                                            ("cantor-dust-2d(1/4)", 4.0, 4)])
def test_search_matches_reference_loop_at_bench_size(name, s, depth):
    fractal, N = rf.from_catalog(name), 256
    M = len(fractal.maps)
    coords = _Mesh(fractal).level(depth)
    assert coords.shape[0] * N >= minimize._LEVEL_SCREEN_MIN and M ** depth <= LEVEL_MOVE_CAP
    idx = np.sort(np.random.default_rng(7).choice(coords.shape[0], size=N, replace=False))
    state = _State(minimize._level_words(idx, M, depth), coords[idx])
    ref, new = _copy(state), _copy(state)
    moves, ref_kernels = _reference_search(fractal, s, ref, depth + 2, 10_000)
    kernels, screens = {}, []
    with pytest.MonkeyPatch.context() as mp:
        sweep = minimize._sweep

        def spy(*args):
            kernels.update(args[5])
            return sweep(*args)

        mp.setattr(minimize, "_sweep", spy)
        _count_calls(mp, "_level_keep", lambda G, stats, cols, t: screens.append(cols))
        _, _, total = minimize._run_search(fractal, s, new, rf.SearchOptions(), depth + 2,
                                           _Mesh(fractal))
    assert total == moves > 0 and screens
    _assert_same(new, ref)
    assert kernels.keys() == ref_kernels.keys()
    for d, (G, _) in kernels.items():
        assert G.tobytes() == ref_kernels[d].tobytes()


def test_differential_cases_reach_the_screens():
    # the drawn cases above must exercise what they claim: both sides of
    # LEVEL_MOVE_CAP, accepted moves, and a level kernel holding an inf
    fractal = _line_ifs([0.25, 0.25])
    mesh = _Mesh(fractal)
    words = [(1,) * 9, (2,) * 9, (1, 2, 1), (2, 1, 2, 2), (1, 2, 1, 1)]
    bases = [1, 2, 2, 1, 1]
    pts = [mesh.block(w[:-1])[(w[-1] - 1) * 2 + b - 1] for w, b in zip(words, bases)]
    pts[4] = mesh.level(3)[4]  # the level row of word (1, 2, 1), base 1
    state = _State(words, np.array(pts))
    ref, new = _copy(state), _copy(state)
    ref_kernels, new_kernels = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_CELL_SCREEN_MIN", 0)
        mp.setattr(minimize, "_LEVEL_SCREEN_MIN", 0)
        moves = []
        while not moves or moves[-1]:
            moves.append(_reference_sweep(fractal, 4.0, ref, 12, _Mesh(fractal), ref_kernels,
                                          10_000))
            assert minimize._sweep(fractal, 4.0, new, 12, _Mesh(fractal), new_kernels,
                                   10_000) == moves[-1]
            _assert_same(new, ref)
    assert sum(moves) > 0
    assert np.isinf(_point_kernel(mesh.level(3), state.pts, 4.0)).any()


# ------------------------------------------------- level screen margins

def _decision(values, threshold):
    j = int(np.argmin(values))
    return (j, values[j].tobytes()) if values[j] < threshold else None


def _screened_level_values(G, i, rows):
    """The exact level values of the kept rows and +inf on the others."""
    values = np.full(G.shape[0], np.inf)
    if rows.size:
        values[rows] = _level_values(G, i, rows)
    return values


def _check_level_screen(G, i):
    """The screen gives the sweep's decision at every threshold that matters,
    and a column screened alone keeps the rows a batch of all columns keeps."""
    G = np.array(G, dtype=float)
    before = G.tobytes()
    exact = _reference_level_values(G, i)
    stats = _level_stats(G)
    finite = exact[np.isfinite(exact)]
    least = finite.min() if finite.size else math.inf
    for threshold in (math.inf, np.nextafter(least, math.inf), least, 0.0):
        kept = _level_keep(G, stats, i, threshold)
        batch = _level_keep(G, stats, list(range(G.shape[1])), [threshold] * G.shape[1])
        for col in range(G.shape[1]):
            alone = _level_keep(G, stats, col, threshold)
            assert alone.dtype == batch[col].dtype and np.array_equal(alone, batch[col])
        screened = _screened_level_values(G, i, kept)
        assert _decision(screened, threshold) == _decision(exact, threshold)
        j = int(np.argmin(exact))
        if threshold == math.inf:
            assert int(np.argmin(screened)) == j
            assert screened[j].tobytes() == exact[j].tobytes()
    assert G.tobytes() == before


def test_level_screen_cancellation():
    # column 1 carries 1e16 of row 1's mass: R_1 = fl(1e16 + 7) = 1e16 + 6, so
    # row 1 is estimated at 6 although its value is 7, above row 0's 6.5;
    # without its margin the screen would keep row 1 alone
    G = np.ones((3, 8))
    G[0, 7] = 0.5
    G[1, 1] = 1e16
    G[2] += 1.0
    _check_level_screen(G, 1)


def test_level_screen_exact_ties_keep_the_first_row():
    G = np.full((4, 6), 0.5)
    G[1, 3] = G[3, 3] = 0.25
    G[:, 2] = [3.0, 1.0, 3.0, 1.0]
    _check_level_screen(G, 2)


def test_level_screen_rows_one_ulp_apart():
    # with column 0 zeroed row 0 is 1 + 2**-52 and row 1 one ulp more, but
    # R_1 = fl(2**20 + 1 + 2**-51) drops the ulps, so row 1 is estimated at 1
    G = np.array([[0.0, 1.0, 2.0 ** -52],
                  [2.0 ** 20, 1.0, 2.0 ** -51],
                  [0.0, 2.0, 0.0]])
    for i in range(3):
        _check_level_screen(G, i)


def test_level_screen_inf_rows():
    # row 0 sits on the point in column 0 (inf there only), row 1 on another
    # point, row 2 is finite; with i = 0 row 0 is finite and least
    G = np.array([[np.inf, 1.0, 1.0, 1.0],
                  [1.0, np.inf, 0.5, 0.5],
                  [5.0, 1.0, 1.0, 1.5]])
    for i in range(4):
        _check_level_screen(G, i)
    _check_level_screen(np.full((3, 3), np.inf), 1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_level_screen_overflowed_row_sum():
    # row 0's finite entries sum past the largest float, so R_0 = inf, but
    # with column 0 zeroed its value is finite and the least
    big = np.finfo(float).max
    G = np.array([[big, big * 0.25, 1.0],
                  [1.0, big * 0.5, 1.0],
                  [big, big * 0.75, 0.0]])
    for i in range(3):
        _check_level_screen(G, i)


def _assert_bounds_hold(G, stats):
    fresh_R, fresh_C, fresh_E = _level_stats(G)
    assert np.array_equal(stats[1], fresh_C)
    assert np.all(np.abs(stats[0] - fresh_R) <= stats[2] + fresh_E)


def test_level_stats_follow_column_updates(monkeypatch, cantor13):
    rng = np.random.default_rng(3)
    G = rng.random((40, 9)) ** -3.0
    G[5, 2] = np.inf
    stats = _level_stats(G)
    for i in (2, 0, 7, 2):
        column = rng.random(40) ** -3.0
        column[11] = np.inf
        _update_level_stats(stats, G[:, i], column)
        G[:, i] = column
        _assert_bounds_hold(G, stats)
        for j in range(9):
            _check_level_screen(G, j)
    # across sweep boundaries: a level kernel's bounds are built with it, kept
    # beside it and updated by the moves of every later sweep
    monkeypatch.setattr(minimize, "_LEVEL_SCREEN_MIN", 0)
    mesh, depth, N = _Mesh(cantor13), 5, 24
    coords = mesh.level(depth)
    idx = np.sort(rng.choice(coords.shape[0], size=N, replace=False))
    state = _State(minimize._level_words(idx, 2, depth), coords[idx])
    kernels, built, moves = {}, {}, []
    while not moves or moves[-1]:
        moves.append(minimize._sweep(cantor13, 3.0, state, depth + 2, mesh, kernels, 10_000))
        for d, (G, stats) in kernels.items():
            assert built.setdefault(d, stats) is stats
            _assert_bounds_hold(G, stats)
            for j in range(0, N, 5):
                _check_level_screen(G, j)
    assert len(moves) >= 3 and moves[1] > 0 and len(kernels) >= 2


# -------------------------------------------------- cell bound margins

# Candidates y whose float value lies just below the threshold while every
# point is in the near field, so the bound equals the value up to rounding;
# found by scanning candidates one ulp apart around V(y) = threshold.  The
# bound without its rounding margin certifies each of them.
_JUST_BELOW = [
    (3.0852572323702456, 14, 0.02299360998392233,
     [0.013052716073591597, 0.026965594817379035, 0.07780575019597269,
      0.09805693182489239, 0.11166226182227323, 0.36813223942582773,
      0.44792503642877923, 0.6046462656087345, 0.6561108847225154, 0.71942195519269,
      0.727173229221858, 0.7990401813586774, 0.8298244135833183, 0.9263223361052212,
      0.9302223172436839, 0.964175073354577]),
    (3.8903565762628824, 9, 0.6966443413086632,
     [0.02729283279434036, 0.07409814894187239, 0.07992342167652577,
      0.08723895875093013, 0.09470765318068375, 0.12537725425480606,
      0.13387660122744893, 0.14184335121599567, 0.17138990196152004,
      0.2300494183893309, 0.27777542007242073, 0.28599443583113615,
      0.4755545696833112, 0.6543142258022004, 0.7588630825449365, 0.7702512561916608,
      0.7831245328838653, 0.8700577540218162, 0.9497813966275065, 0.9641819841586775,
      0.9812773666268403, 0.9894908483712954]),
    (1.7031875183815206, 10, 0.7468901600321527,
     [0.027540357542275795, 0.03190480523630024, 0.05552166872659403,
      0.056347215884831825, 0.05675128878471036, 0.14073628194678245,
      0.19066609836523296, 0.24591558730526863, 0.2892918096233247,
      0.35354630307379076, 0.3981582822680385, 0.4604507662715639,
      0.4777281571387344, 0.5997991445204458, 0.650985151644562, 0.7110692617326639,
      0.8272667079356129, 0.9063651289839193, 0.9158313625019875, 0.9570195116843737,
      0.9672012624720092]),
]


@pytest.mark.parametrize("s, i, y, points", _JUST_BELOW)
def test_cell_bound_refuses_candidates_just_below_threshold(s, i, y, points):
    pts = np.array(points)[:, None]
    d2, k, current = _point_rows(pts, i, i + 1, s)
    threshold = current - 1e-12 * (1.0 + np.abs(current))
    value = point_energy_sums(np.array([[y]]), pts, s, skip_index=i)
    assert value[0] < threshold[0]
    certified = minimize._certify_cells(pts, np.array([i]), d2, k, current, threshold,
                                        np.array([[[y]]]), s)
    assert not certified[0]


# ------------------------------------------------------- screens fire

def _count_calls(monkeypatch, name, count):
    original = getattr(minimize, name)

    def counted(*args, **kwargs):
        count(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(minimize, name, counted)


def _count_evaluations(monkeypatch):
    evaluated = [0]
    original = minimize._sweep

    def sweep(fractal, s, state, *args):
        evaluated[0] += len(state.words)
        return original(fractal, s, state, *args)

    monkeypatch.setattr(minimize, "_sweep", sweep)
    return evaluated


def test_cell_screen_spares_most_exact_sums(monkeypatch, cantor13):
    exact = [0]
    _count_calls(monkeypatch, "_candidate_sums", lambda *a: exact.__setitem__(0, exact[0] + 1))
    evaluated = _count_evaluations(monkeypatch)
    res = rf.local_search_minimize(cantor13, 1024, 3.0, rf.SearchOptions(seed=0))
    assert res.record.energy > 0.0
    assert exact[0] < 0.2 * evaluated[0]


def test_candidate_sums_beyond_one_block_match_point_energy_sums(monkeypatch):
    # the sibling and child blocks of uniform(8, 0.05) hold 64 rows each, so
    # past the level cap a point's cells are scored in one call on 128 rows
    widths = []
    original = minimize._candidate_sums

    def checked(cands, pts, s, skip_index):
        sums = original(cands, pts, s, skip_index)
        assert sums.tobytes() == point_energy_sums(cands, pts, s, skip_index).tobytes()
        widths.append(cands.shape[0])
        return sums

    monkeypatch.setattr(minimize, "_candidate_sums", checked)
    # one restart runs in this process
    rf.local_search_minimize(rf.uniform_line(8, 0.05), 100, 2.0, rf.SearchOptions(restarts=1))
    assert max(widths) > rf.energy.PAIR_BLOCK


def test_level_screen_batches_its_columns(monkeypatch, cantor13):
    widths = []
    _count_calls(monkeypatch, "_level_keep", lambda G, stats, cols, t: widths.append(np.size(cols)))
    rf.local_search_minimize(cantor13, 256, 3.0, rf.SearchOptions(seed=0))
    assert max(widths) > 1


def test_tail_stop_skips_the_converged_tail(monkeypatch, cantor13):
    # at N = 64 neither screen runs, so a sweep scores each point it visits
    # in one call; a final sweep that stops at the previous sweep's last
    # move visits fewer than N points and changes nothing
    original = minimize._sweep

    def search(stop: bool):
        sweeps = []

        def sweep(*args):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                _count_calls(mp, "_candidate_sums", lambda *a: calls.append(1))
                accepted = original(*(args if stop else args[:8]))
            sweeps.append((accepted, len(calls)))
            return accepted

        monkeypatch.setattr(minimize, "_sweep", sweep)
        return rf.local_search_minimize(cantor13, 64, 3.0, rf.SearchOptions(seed=1)), sweeps

    res, sweeps = search(stop=True)
    full, full_sweeps = search(stop=False)
    assert res.words == full.words and res.points.tobytes() == full.points.tobytes()
    assert [a for a, _ in sweeps] == [a for a, _ in full_sweeps]
    assert all(visits == 64 for _, visits in full_sweeps)
    # restart 0 converges in its first sweep; the two random restarts stop early
    finals = [visits for (moved, _), (accepted, visits) in zip(sweeps, sweeps[1:])
              if moved and not accepted]
    assert len(finals) == 2 and max(finals) < 64


def test_level_screen_forms_few_exact_rows(monkeypatch, cantor13):
    rows = [0]

    def count(G, i, chosen=None):
        rows[0] += G.shape[0] if chosen is None else len(chosen)

    _count_calls(monkeypatch, "_level_values", count)
    evaluated = _count_evaluations(monkeypatch)
    rf.local_search_minimize(cantor13, 256, 3.0, rf.SearchOptions(seed=0))
    assert minimize._Mesh(cantor13).level(8).shape[0] == 512
    assert rows[0] < 4 * evaluated[0]
