"""Minimizer tests.

Certified exhaustive results are checked against an inline brute force;
heuristic searches are checked for determinism, monotone improvement with
restarts, and never losing to the certified anchor-mesh optimum.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from word_reference import _row_label

import rieszfrac as rf


# --------------------------------------------------------------- exhaustive

def test_exhaustive_two_points_picks_extreme_anchors(cantor13):
    res = rf.exhaustive_minimize(cantor13, 2, 2.0, depth=2)
    # max separation pair among depth-2 anchors is {0, 8/9}
    assert sorted(res.config.points[:, 0]) == pytest.approx([0.0, 8.0 / 9.0])
    assert res.record.energy == pytest.approx(81.0 / 32.0, rel=1e-14)
    assert res.certified and res.strategy == "exhaustive"
    assert res.iterations == math.comb(4, 2)


def test_exhaustive_matches_inline_brute_force(cantor13):
    anchors = rf.anchor_cloud(cantor13, 2)[:, 0]
    best_e, best_pts = math.inf, None
    for sub in itertools.combinations(range(len(anchors)), 3):
        e = rf.riesz_energy(anchors[list(sub)], 2.0)
        if e < best_e:
            best_e, best_pts = e, sorted(anchors[list(sub)])
    res = rf.exhaustive_minimize(cantor13, 3, 2.0, depth=2)
    assert res.record.energy == pytest.approx(best_e, rel=1e-14)
    assert sorted(res.config.points[:, 0]) == pytest.approx(best_pts)


def test_exhaustive_endpoint_mesh_four_points(cantor13):
    # endpoints {0, 1/3, 2/3, 1}: gaps 1/3 x3, 2/3 x2, 1 x1 at s=6 give
    # 2 * (3*729 + 2*(3/2)**6 + 1) = 4421.5625
    res = rf.exhaustive_minimize(cantor13, 4, 6.0, depth=3, mesh="endpoint")
    assert res.record.energy == pytest.approx(4421.5625, rel=1e-13)
    assert sorted(res.config.points[:, 0]) == pytest.approx(
        [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


def test_exhaustive_endpoint_mesh_s3(cantor13):
    res = rf.exhaustive_minimize(cantor13, 4, 3.0, depth=3, mesh="endpoint")
    assert res.record.energy == pytest.approx(177.5, rel=1e-13)


def test_exhaustive_n2_endpoint_any_depth(cantor13):
    for depth in (1, 2, 4):
        res = rf.exhaustive_minimize(cantor13, 2, 3.0, depth=depth, mesh="endpoint")
        assert res.record.energy == pytest.approx(2.0, rel=1e-14)
        assert sorted(res.config.points[:, 0]) == pytest.approx([0.0, 1.0])


def test_exhaustive_result_addresses_valid(cantor13):
    res = rf.exhaustive_minimize(cantor13, 3, 2.0, depth=3)
    assert res.config.addresses is not None
    assert res.config.validate_cells(cantor13)


def test_exhaustive_validation(cantor13):
    with pytest.raises(rf.DomainError):
        rf.exhaustive_minimize(cantor13, 1, 2.0, depth=2)
    with pytest.raises(rf.DomainError):
        rf.exhaustive_minimize(cantor13, 2, 2.0, depth=0)
    with pytest.raises(rf.DomainError):
        rf.exhaustive_minimize(cantor13, 2, 2.0, depth=2, mesh="corner")
    with pytest.raises(rf.DomainError):
        # only 2 anchors at depth 1
        rf.exhaustive_minimize(cantor13, 3, 2.0, depth=1)
    for budget in (0, -5):
        with pytest.raises(rf.DomainError):
            rf.exhaustive_minimize(cantor13, 2, 2.0, depth=2, budget=budget)


def test_exhaustive_budget_enforced(cantor13):
    with pytest.raises(rf.ResourceBudgetError):
        rf.exhaustive_minimize(cantor13, 3, 2.0, depth=4, budget=5)


def test_dispatch_passes_subset_budget(cantor13):
    # C(16, 3) = 560 anchor subsets at depth 4
    opts = rf.SearchOptions(depth=4, strategy="exhaustive", budget=559)
    with pytest.raises(rf.ResourceBudgetError):
        rf.local_search_minimize(cantor13, 3, 2.0, opts)
    res = rf.local_search_minimize(cantor13, 3, 2.0, replace(opts, budget=560))
    assert res.certified and res.iterations == 560
    with pytest.raises(rf.DomainError):
        rf.SearchOptions(budget=0)
    # an unset budget is each strategy's own default, so none is carried over
    assert replace(rf.SearchOptions(strategy="exhaustive"), strategy="local-search") \
        == rf.SearchOptions()


def _rotating_ifs():
    # three maps of the unit square, two of them rotated (by 90 and 30 degrees)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    maps = (
        rf.Similitude(0.3, np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.3, 0.0])),
        rf.Similitude(0.3, np.eye(2), np.array([0.7, 0.0])),
        rf.Similitude(0.3, np.array([[c, -s], [s, c]]), np.array([0.2, 0.6])),
    )
    return rf.make_fractal(maps, label="rotating")


@pytest.mark.parametrize("name", ["cantor", "dust", "two-scale", "rotating"])
def test_mesh_base_rows_are_the_anchor_cloud(name, cantor13, mixed_fractal):
    from rieszfrac.minimize import _Mesh, _subset_mesh

    fractal = {"cantor": cantor13, "dust": rf.cantor_dust_2d(0.25),
               "two-scale": mixed_fractal, "rotating": _rotating_ifs()}[name]
    M = len(fractal.maps)
    mesh = _Mesh(fractal)
    for depth in range(1, 7):
        coords = mesh.level(depth)
        anchors = rf.anchor_cloud(fractal, depth)
        assert coords[::M].tobytes() == anchors.tobytes()
        # row q * M + b - 1 is the point with base b in the q-th cell
        cells = list(itertools.product(range(1, M + 1), repeat=depth))
        assert mesh.words(depth) == [w for w in cells for _ in range(M)]
        # the block of a word w is apply_word(w, level 1), its rows in the
        # cells w + (m,)
        for w in cells[:: max(1, len(cells) // 5)]:
            block = mesh.block(w)
            assert block.tobytes() == fractal.apply_word(w, mesh.level(1)).tobytes()
            words = [w + mesh.words(1)[row] for row in range(block.shape[0])]
            assert words == [w + (m,) for m in range(1, M + 1) for _ in range(M)]
        if M ** depth <= 256:
            rows = range(M ** depth)
            _, decode = _subset_mesh(fractal, 2, depth, base_only=True)
            assert decode(rows) == cells
            _, decode = _subset_mesh(fractal, 2, depth, base_only=False)
            assert decode(range(M ** (depth + 1))) == [w for w in cells for _ in range(M)]
    res = rf.exhaustive_minimize(fractal, 3, 2.0, depth=2)
    anchors = rf.anchor_cloud(fractal, 2)
    for point, address in zip(res.config.points, res.config.addresses):
        row = sum((m - 1) * M ** (1 - j) for j, m in enumerate(address))
        assert point.tobytes() == anchors[row].tobytes()


# -------------------------------------------------------------- local search

def test_local_search_three_points(cantor13):
    res = rf.local_search_minimize(
        cantor13, 3, 2.0, rf.SearchOptions(depth=2, max_depth=2, seed=0))
    # best depth-2 endpoint triple is {0, 1/3, 1} (or its mirror)
    assert res.record.energy == pytest.approx(24.5, rel=1e-13)
    assert not res.certified
    assert res.strategy == "local-search"


def test_local_search_not_worse_than_anchor_exhaustive(cantor13):
    # the move mesh contains every anchor point, so the heuristic should
    # never lose to the certified anchor-only optimum
    for N, s in ((3, 2.0), (4, 3.0)):
        cert = rf.exhaustive_minimize(cantor13, N, s, depth=3)
        loc = rf.local_search_minimize(cantor13, N, s, rf.SearchOptions(seed=0))
        assert loc.record.energy <= cert.record.energy * (1.0 + 1e-9)


def _same_mesh_cases():
    # every mesh has 16 rows, so the oracle enumerates at most C(16, 8)
    # subsets; the dust misses at N = 6, 7, 8 by +0.41/+1.1/+1.2 % at s = 2
    # and +0.01/+0.74/+2.5 % at s = 4
    for name, depth, n_max, exponents in (("cantor", 3, 10, (3.0,)),
                                          ("two-scale", 3, 8, (3.0,)),
                                          ("dust", 1, 8, (2.0, 4.0))):
        for s in exponents:
            for N in range(2, n_max + 1):
                marks = ()
                if name == "dust" and N >= 6:
                    marks = pytest.mark.xfail(strict=True, reason=(
                        "known defect: single-point moves stall above the dust's "
                        "endpoint-mesh minimum"))
                yield pytest.param(name, depth, N, s, marks=marks,
                                   id=f"{name}-d{depth}-N{N}-s{s:g}")


@pytest.mark.parametrize("name, depth, N, s", list(_same_mesh_cases()))
def test_local_search_matches_the_oracle_on_its_own_mesh(name, depth, N, s, cantor13,
                                                         mixed_fractal):
    # with max_depth = depth the search moves on the depth-d level, which is
    # every row of the endpoint mesh, so both search one mesh
    fractal = {"cantor": cantor13, "two-scale": mixed_fractal,
               "dust": rf.cantor_dust_2d("1/4")}[name]
    oracle = rf.exhaustive_minimize(fractal, N, s, depth=depth, mesh="endpoint")
    local = rf.local_search_minimize(
        fractal, N, s, rf.SearchOptions(seed=0, depth=depth, max_depth=depth))
    assert local.record.energy >= oracle.record.energy * (1.0 - 1e-12)
    assert local.record.energy <= oracle.record.energy * (1.0 + 1e-9)


def test_local_search_deterministic(cantor13):
    opts = rf.SearchOptions(seed=7)
    a = rf.local_search_minimize(cantor13, 5, 3.0, opts)
    b = rf.local_search_minimize(cantor13, 5, 3.0, opts)
    assert a.record.energy == b.record.energy
    assert np.array_equal(a.config.points, b.config.points)
    assert a.config.addresses == b.config.addresses


def test_local_search_restarts_monotone(cantor13):
    e1 = rf.local_search_minimize(
        cantor13, 6, 3.0, rf.SearchOptions(seed=3, restarts=1)).record.energy
    e5 = rf.local_search_minimize(
        cantor13, 6, 3.0, rf.SearchOptions(seed=3, restarts=5)).record.energy
    assert e5 <= e1 * (1.0 + 1e-12)


def test_local_search_unequal_ratios(mixed_fractal):
    res = rf.local_search_minimize(mixed_fractal, 4, 2.0, rf.SearchOptions(seed=1))
    assert res.record.energy > 0.0
    assert res.config.validate_cells(mixed_fractal)


def test_local_search_requires_positive_sigma():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        touching = rf.uniform_line(2, 0.5)
    with pytest.raises(rf.HypothesisError):
        rf.local_search_minimize(touching, 3, 2.0)


_ONE_MAP_SCRIPT = """
import json, sys, warnings
import rieszfrac as rf
warnings.simplefilter("ignore")
one = rf.make_fractal((rf.Similitude(0.5, [[1.0]], [0.0]),), label="one",
                      diameter=1.0, sigma=0.1)
calls = [lambda s=s: rf.local_search_minimize(one, 4, 3.0, rf.SearchOptions(strategy=s))
         for s in ("local-search", "lift-seeded", "exhaustive")]
calls.append(lambda: rf.monotonicity_check(one, 3.0, range(2, 4)))
seen = []
for call in calls:
    try:
        call()
        seen.append("returned")
    except rf.RieszFracError as exc:
        seen.append(type(exc).__name__)
spec = sys.argv[1]
codes = [rf.main(["minimize", "--fractal", spec, "--s", "3", "--n", "4", "--out", sys.argv[2]]),
         rf.main(["pack", "--fractal", spec, "--n", "4", "--out", sys.argv[2]]),
         rf.main(["pack", "--fractal", spec, "--n", "4", "--budget", "0", "--out", sys.argv[2]])]
print(json.dumps({"errors": seen, "codes": codes}))
"""


def test_one_map_fractal_searches_raise_instead_of_hanging(tmp_path):
    # M = 1: M**depth never reaches N and n0 % M is always 0, so the depth and
    # lift-seeded loops once ran forever; a child process with a timeout keeps
    # a regression from hanging the suite
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"label": "one", "ambient_dim": 1, "diameter": 1.0,
                                "sigma": 0.1,
                                "maps": [{"ratio": 0.5, "translation": [0.0]}]}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rf.__file__)))
    proc = subprocess.run([sys.executable, "-c", _ONE_MAP_SCRIPT, str(spec), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == {"errors": ["HypothesisError"] * 4, "codes": [3, 3, 3]}


def test_local_search_validation(cantor13):
    with pytest.raises(rf.DomainError):
        rf.local_search_minimize(cantor13, 1, 2.0)
    with pytest.raises(rf.DomainError):
        rf.local_search_minimize(cantor13, 2, -1.0)
    with pytest.raises(rf.DomainError):
        rf.local_search_minimize(
            cantor13, 2, 2.0, rf.SearchOptions(depth=4, max_depth=2))


def test_strategy_dispatch(cantor13):
    ex = rf.local_search_minimize(
        cantor13, 4, 3.0, rf.SearchOptions(strategy="exhaustive", depth=3))
    assert ex.strategy == "exhaustive" and ex.certified
    ls = rf.local_search_minimize(
        cantor13, 8, 3.0, rf.SearchOptions(strategy="lift-seeded", seed=0))
    assert ls.strategy == "lift-seeded" and not ls.certified
    # N = 3 is no n0 * 2**k with k >= 1: lift-seeded runs the plain local search
    odd = rf.local_search_minimize(
        cantor13, 3, 3.0, rf.SearchOptions(strategy="lift-seeded", seed=0))
    plain = rf.local_search_minimize(cantor13, 3, 3.0, rf.SearchOptions(seed=0))
    assert odd.strategy == plain.strategy == "local-search"
    assert odd.record == plain.record and odd.words == plain.words
    # every strategy's least distance comes from its energy pass, bit for bit
    for res in (ex, ls, odd, plain):
        assert res.min_distance == rf.min_pairwise_distance(res.points)
        assert res.cross is None


@pytest.mark.parametrize("N", [96, 300])
def test_lift_seeded_searches_on_unequal_ratios(mixed_fractal, N):
    # a lift puts equal counts in cells of unequal measure, so on unequal
    # ratios lift-seeded runs the plain local search at every N
    lifted = rf.local_search_minimize(
        mixed_fractal, N, 3.0, rf.SearchOptions(strategy="lift-seeded", seed=1))
    plain = rf.local_search_minimize(mixed_fractal, N, 3.0, rf.SearchOptions(seed=1))
    assert lifted.strategy == plain.strategy == "local-search"
    assert lifted.words == plain.words
    assert lifted.points.tobytes() == plain.points.tobytes()
    assert lifted.record == plain.record


def test_search_options_validation():
    with pytest.raises(rf.DomainError):
        rf.SearchOptions(restarts=0)
    with pytest.raises(rf.DomainError):
        rf.SearchOptions(budget=0)
    with pytest.raises(rf.DomainError):
        rf.SearchOptions(strategy="anneal")
    with pytest.raises(rf.DomainError):
        rf.SearchOptions(depth=0)


# Exact energies and winning-restart move counts of the search before the
# level kernels and cached cell blocks; any change to them, even in the last
# bit, means the sweep no longer forms the same sums in the same order.
@pytest.mark.parametrize("fractal, N, s, seed, energy, iterations", [
    ("cantor13", 96, 3.0, 1, 29755831844.579777, 34),
    ("cantor13", 512, 3.0, 0, 242508930724226.22, 0),
    ("dust14", 48, 4.0, 0, 4999438.157820989, 24),
    ("mixed_fractal", 64, 3.0, 0, 663987672.9679904, 21),
])
def test_local_search_regression_anchors(request, fractal, N, s, seed, energy, iterations):
    f = rf.from_catalog("cantor-dust-2d(1/4)") if fractal == "dust14" \
        else request.getfixturevalue(fractal)
    res = rf.local_search_minimize(f, N, s, rf.SearchOptions(restarts=3, seed=seed))
    assert res.record.energy == energy
    assert res.iterations == iterations


def test_lift_chain_regression_anchors(cantor13):
    stages = rf.lift_chain(cantor13, 3.0, 3, 4, rf.SearchOptions(restarts=2, seed=0),
                           polish=True)
    assert [st.record.energy for st in stages] == [
        62.75000000000001, 3491.2740413629763, 188938.48157890895,
        10204211.13212981, 551033473.7413087]


@pytest.mark.parametrize("max_depth, normalized", [
    (None, (0.17394437177135114, 0.17443755940378602, 0.17447209622626067,
            0.17447463793593632)),
    (3, None),
], ids=["no-cap", "cap-3"])
def test_polished_stages_obey_max_depth(cantor13, max_depth, normalized):
    # a lift adds one letter to every word, so stage j's cap is max_depth + j;
    # with no cap each stage may go 8 below its deepest start word
    opts = rf.SearchOptions(seed=1, max_depth=max_depth)
    report = rf.geometric_limit(cantor13, 3.0, 5, 3, opts)
    for j, stage in enumerate(report.stages):
        assert stage.depth == 3 + j
        if max_depth is not None:
            assert max(len(w) for w in stage.words) <= max_depth + j, j
    if normalized is not None:
        assert report.normalized == normalized


# The restart sampler against numpy.random, which stays the reference here:
# seeds that straddle the 32-, 64- and 128-bit word boundaries of the
# SeedSequence entropy, at the first five restart indices.
_SAMPLER_SEEDS = [(seed, r) for seed in (0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 1)
                  for r in range(5)]


def _numpy_child(seed, restart):
    return np.random.SeedSequence(seed).spawn(restart + 1)[restart]


@pytest.mark.parametrize("seed,restart", _SAMPLER_SEEDS)
def test_restart_sampler_raw_outputs_match_numpy_pcg64(seed, restart):
    from rieszfrac.parallel import _PCG64, _seed_state

    rng = _PCG64(_seed_state(seed, restart))
    raw = np.random.PCG64(_numpy_child(seed, restart)).random_raw(64)
    assert [rng.next64() for _ in range(64)] == raw.tolist()


@pytest.mark.parametrize("seed,restart", _SAMPLER_SEEDS)
def test_restart_sampler_matches_numpy_choice(seed, restart):
    from rieszfrac.parallel import restart_indices

    # Floyd's algorithm unless K > 10000 and N > K // 50, then the tail
    # shuffle; K = 2**33 + 5 takes the 64-bit bounded draws, and K = 3 << 30,
    # a quarter of whose 32-bit draws are rejected, runs Lemire's rejection
    # loop for every seed and restart here
    grid = [(1, 1), (9, 1), (9, 9), (10000, 200), (10000, 201), (10000, 10000),
            (10001, 1), (10001, 200), (10001, 201), (10001, 10001),
            (30000, 600), (30000, 601), (2**33 + 5, 3), (3 << 30, 50)]
    for K, N in grid:
        gen = np.random.Generator(np.random.PCG64(_numpy_child(seed, restart)))
        want = np.sort(gen.choice(K, size=N, replace=False)).tolist()
        assert restart_indices(seed, restart, K, N) == want, (K, N)


@pytest.mark.parametrize("M", [2, 3, 4])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_level_words_match_row_labels(M, data):
    from rieszfrac.minimize import _level_words

    lifts = data.draw(st.integers(0, 12))
    # the mesh's M fixed points, the one anchor, or the words of a stage
    base_words = data.draw(st.sampled_from([None, ((),), "stage"]))
    if base_words == "stage":
        word = st.lists(st.integers(1, M), max_size=6).map(tuple)
        base_words = tuple(data.draw(st.lists(word, min_size=1, max_size=8)))
    n = M if base_words is None else len(base_words)
    rows = data.draw(st.lists(st.integers(0, n * M ** lifts - 1), max_size=40)) \
        + [0, n * M ** lifts - 1]
    for chosen in (rows, []):
        assert _level_words(chosen, M, lifts, base_words) \
            == [_row_label(row, M, lifts, base_words) for row in chosen]


@pytest.mark.parametrize("M", [2, 3, 4])
def test_mesh_words_match_row_labels(M):
    from rieszfrac.minimize import _Mesh

    mesh = _Mesh(rf.uniform_line(M, 0.2))
    rng = np.random.default_rng(M)
    for depth in range(1, 9):
        words = mesh.words(depth)
        assert len(words) == mesh.level(depth).shape[0]
        assert words == [_row_label(row, M, depth) for row in range(len(words))]
        # the rows of the block of a word w lie in the cells w + a level-1 word
        for w in map(tuple, rng.integers(1, M + 1, size=(5, depth)).tolist()):
            rows = range(mesh.block(w).shape[0])
            assert [w + mesh.words(1)[j] for j in rows] \
                == [_row_label(j, M, 1, prefix=w) for j in rows]


def test_level_kernels_match_fresh_sums_bitwise(cantor13):
    from rieszfrac.energy import _point_kernel
    from rieszfrac.minimize import _level_values, _level_words, _Mesh, _State, _sweep

    s, N, depth = 3.0, 24, 5
    mesh = _Mesh(cantor13)
    coords = mesh.level(depth)
    M = len(cantor13.maps)
    idx = np.sort(np.random.default_rng(5).choice(coords.shape[0], size=N, replace=False))
    state = _State(_level_words(idx, M, depth), coords[idx])
    kernels = {}
    accepted = []
    while not accepted or accepted[-1] > 0:
        accepted.append(_sweep(cantor13, s, state, depth + 2, mesh, kernels, 10_000))
        # the last sweep accepts nothing, so every column there was zeroed
        # and restored; a kept G_d must still be the kernel of the points
        for d, (G, _) in kernels.items():
            assert G.tobytes() == _point_kernel(mesh.level(d), state.pts, s).tobytes()
    assert sum(accepted) > 0 and len(kernels) >= 2
    # each point is one of the M points psi_w(f_b) of its word w's cell
    for w, pt in zip(state.words, state.pts):
        cell = mesh.block(w[:-1])[(w[-1] - 1) * M : w[-1] * M]
        assert pt.tobytes() in {row.tobytes() for row in cell}
    saw_inf = False
    for d, (G, _) in kernels.items():
        before = G.tobytes()
        for i in range(N):
            values = _level_values(G, i)
            fresh = rf.point_energy_sums(mesh.level(d), state.pts, s, skip_index=i)
            assert values.tobytes() == fresh.tobytes()
            assert G.tobytes() == before
            saw_inf = saw_inf or bool(np.isinf(values).any())
    # some level row sits on a configuration point, so its row holds inf
    assert saw_inf


# ----------------------------------------------------------------------- lift

def test_lift_cantor_endpoints(cantor13):
    base = rf.Configuration(np.array([0.0, 1.0]))
    lifted = rf.lift(cantor13, base)
    assert sorted(lifted.points[:, 0]) == pytest.approx(
        [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert lifted.n == base.n * len(cantor13.maps)


def test_lift_prepends_cell_addresses(cantor13):
    base = rf.Configuration(np.array([0.0, 1.0]), addresses=((1,), (2,)))
    lifted = rf.lift(cantor13, base)
    assert sorted(lifted.addresses) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert lifted.validate_cells(cantor13)


def test_lift_energy_bound(cantor13):
    # copies interact within cells exactly as the base did (scaled), and
    # across cells each ordered pair is at least sigma apart
    s = 3.0
    M = len(cantor13.maps)
    base = rf.Configuration(np.array([0.0, 1.0 / 3.0, 1.0]))
    e_base = rf.riesz_energy(base, s)
    lifted = rf.lift(cantor13, base)
    e_lift = rf.riesz_energy(lifted, s)
    bound = (M ** (1.0 + s / cantor13.dimension) * e_base
             + cantor13.sigma ** (-s) * base.n ** 2 * M ** 2)
    assert e_lift <= bound * (1.0 + 1e-12)


def test_lift_chain_bound_fires_on_overstated_sigma(cantor13):
    # a declared sigma far above the true gap makes the cross term too small
    liar = rf.make_fractal(cantor13.maps, label="liar", diameter=1.0, sigma=10.0)
    for polish in (False, True):
        with pytest.raises(rf.HypothesisError, match="lift energy bound violated"):
            rf.lift_chain(liar, 3.0, 1, 1, polish=polish)


def test_lift_collision_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        touching = rf.uniform_line(2, 0.5)
    base = rf.Configuration(np.array([0.0, 1.0]))
    with pytest.raises(rf.SingularConfigurationError):
        rf.lift(touching, base)


def test_lift_chain_sizes_and_bound(cantor13):
    s = 3.0
    M = len(cantor13.maps)
    d = cantor13.dimension
    chain = rf.lift_chain(cantor13, s=s, n0=2, k=3, polish=False)
    assert [r.record.N for r in chain] == [2, 4, 8, 16]
    for prev, cur in zip(chain, chain[1:]):
        bound = (M ** (1.0 + s / d) * prev.record.energy
                 + cantor13.sigma ** (-s) * prev.record.N ** 2 * M ** 2)
        assert cur.record.energy <= bound * (1.0 + 1e-9)


def test_lift_chain_polish_not_worse(cantor13):
    raw = rf.lift_chain(cantor13, s=3.0, n0=2, k=3, polish=False)
    polished = rf.lift_chain(cantor13, s=3.0, n0=2, k=3, polish=True)
    for a, b in zip(polished, raw):
        assert a.record.energy <= b.record.energy * (1.0 + 1e-12)


def test_lift_chain_singleton_start(cantor13):
    chain = rf.lift_chain(cantor13, s=3.0, n0=1, k=2, polish=False)
    assert [r.record.N for r in chain] == [1, 2, 4]
    assert chain[0].record.energy == 0.0


@pytest.mark.parametrize("case", ["cantor", "dust", "two-scale", "rotating", "cantor-n0-1"])
def test_raw_stage_addresses_are_the_lifted_addresses(case, cantor13, mixed_fractal):
    # cantor and the dust take the translation-difference route, the
    # two-scale fixture and the rotating IFS the direct _lift_cross pass
    fractal, s, n0, k = {
        "cantor": (cantor13, 3.0, 2, 5),
        "dust": (rf.cantor_dust_2d("1/4"), 4.0, 4, 3),
        "two-scale": (mixed_fractal, 3.0, 2, 5),
        "rotating": (_rotating_ifs(), 3.0, 2, 4),
        "cantor-n0-1": (cantor13, 3.0, 1, 5),
    }[case]
    stages = rf.lift_chain(fractal, s, n0, k, opts=rf.SearchOptions(seed=0, restarts=1),
                           polish=False)
    for prev, stage in zip(stages, stages[1:]):
        lifted = rf.lift(fractal, prev.config)
        assert stage.config.addresses == lifted.addresses
        assert stage.config.points.tobytes() == lifted.points.tobytes()


def test_result_config_is_built_once_and_stages_keep_their_points(cantor13):
    s = 3.0
    opts = rf.SearchOptions(seed=0, restarts=2)
    shorter = rf.lift_chain(cantor13, s, 3, 2, opts=opts, polish=True)
    stages = rf.lift_chain(cantor13, s, 3, 3, opts=opts, polish=True)
    for stage in stages:
        assert stage.config is stage.config
        assert not stage.points.flags.writeable
        # a point moved after its stage was recorded would change the energy
        assert rf.riesz_energy(stage.config, s) == stage.record.energy
    # polishing stage 3 left the stages before it as a chain that stops there
    for a, b in zip(shorter, stages):
        assert a.config.points.tobytes() == b.config.points.tobytes()
        assert a.config.addresses == b.config.addresses


# -------------------------------------------------------------- best packing

def test_packing_two_points(cantor13):
    pk = rf.best_packing(cantor13, 2, depth=4)
    assert pk.delta == pytest.approx(1.0, rel=1e-14)
    assert pk.certified and pk.strategy == "exhaustive"


def test_packing_three_and_four_points(cantor13):
    # 3 or 4 points cannot all be farther than a first-level cell apart
    for N in (3, 4):
        pk = rf.best_packing(cantor13, N, depth=4)
        assert pk.delta == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_packing_delta_matches_config(cantor13):
    pk = rf.best_packing(cantor13, 3, depth=4)
    assert pk.delta == rf.min_pairwise_distance(pk.config)


def test_packing_greedy_route(cantor13):
    # budget too small for enumeration: falls back to greedy + exchange
    pk = rf.best_packing(cantor13, 3, depth=4, budget=10)
    assert pk.strategy == "greedy-exchange" and not pk.certified
    assert pk.delta == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_packing_exchange_lifts_the_greedy_start():
    # uniform(3, 0.2) at depth 2 has C(27, 6) 6-subsets of its mesh, over
    # budget 1: the greedy maximin start is 0.1 apart, and the exchange
    # sweeps move it to the certified exhaustive optimum, bit for bit
    fractal = rf.from_catalog("uniform(3, 0.2)")
    coords, _ = rf.minimize._subset_mesh(fractal, 6, 2, base_only=False)
    start = coords[rf.minimize._farthest_point_indices(coords, 6)]
    pk = rf.best_packing(fractal, 6, depth=2, budget=1)
    best = rf.best_packing(fractal, 6, depth=2)
    assert pk.strategy == "greedy-exchange" and not pk.certified
    assert best.strategy == "exhaustive" and best.certified
    assert rf.min_pairwise_distance(rf.Configuration(start)) == pytest.approx(0.1, rel=1e-12)
    assert pk.delta.hex() == best.delta.hex() == (0.19999999999999996).hex()
    assert pk.delta == rf.min_pairwise_distance(pk.config)
    assert sorted(pk.config.addresses) == sorted(best.config.addresses)


def test_packing_resolves_its_own_depth(cantor13):
    # no depth: the least depth with 2**l >= N, reported as the result's depth
    auto, given = rf.best_packing(cantor13, 5), rf.best_packing(cantor13, 5, depth=3)
    assert auto.depth == given.depth == 3
    assert (auto.delta, auto.strategy, auto.config.addresses) == \
        (given.delta, given.strategy, given.config.addresses)
    assert auto.config.points.tobytes() == given.config.points.tobytes()


def test_packing_validation(cantor13):
    with pytest.raises(rf.DomainError):
        rf.best_packing(cantor13, 1, depth=2)
    with pytest.raises(rf.DomainError, match="depth must be at least 1"):
        rf.best_packing(cantor13, 3, depth=0)
