"""Raw lift stages from translation-difference clouds.

When every map shares one linear part A, the cross term of raw stage j is a
weighted kernel sum between the distinct base differences A^j (x0 - y0) and
the offsets tau_0 + sum A^i tau_i.  One energy._shared_lift_crosses
generator per chain forms the clouds once and yields the stages in order.
These tests check every stage it yields bit for bit against the reference
below, which forms stage j from scratch, and against the direct pass over
the images (energy._lift_cross); they check which chains take which route,
and run the chain to N = 65,536.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rieszfrac as rf
from rieszfrac.energy import CLOUD_BLOCK, _lift_cross, _pair_pass, _shared_lift_crosses
from rieszfrac.fractal import _sq_dists


def _reference_shared_lift_cross(base, linear, translations, j, s):
    """(cross energy, least squared distance) of raw lift stage j >= 1, every
    cloud formed from scratch: the per-stage form the generator replaces."""
    p = base.shape[1]
    taus, mult = np.unique((translations[:, None] - translations[None, :]).reshape(-1, p),
                           axis=0, return_counts=True)
    if mult[~taus.any(axis=1)].sum() > translations.shape[0]:
        raise rf.SingularConfigurationError("images of the lift share a point")
    mult = mult.astype(float)
    T = taus.shape[0]
    half = taus[np.arange(T), np.argmax(taus != 0.0, axis=1)] > 0.0
    powers = [taus]  # A^i tau for every group, i < j
    for _ in range(1, j):
        powers.append(np.einsum("ij,nj->ni", linear, powers[-1]))
    diffs, counts = np.unique((base[:, None] - base[None, :]).reshape(-1, p),
                              axis=0, return_counts=True)
    for _ in range(j):
        diffs = np.einsum("ij,nj->ni", linear, diffs)
    low, w_low = taus[half], mult[half]
    h = 1
    while h < j and diffs.shape[0] * low.shape[0] * T <= CLOUD_BLOCK:
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
        d2 = _sq_dists(diffs, (high[:, None] + low[None, :]).reshape(-1, p))
        least = min(least, float(d2.min()))
        if least == 0.0:
            raise rf.SingularConfigurationError("images of the lift share a point")
        with np.errstate(over="ignore"):
            np.power(d2, -0.5 * s, out=d2)
        d2 *= np.outer(w_high, w_low).reshape(-1)
        total += float(np.sum(d2.sum(axis=1) * counts))
    return 2.0 * total, least


def _rotation(p, angle, flip):
    if p == 1:
        return np.array([[-1.0 if flip else 1.0]])
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1.0, -1.0]) if flip else rot


@st.composite
def _shared_cases(draw):
    p = draw(st.sampled_from([1, 2]))
    M = draw(st.integers(2, 4))
    ratio = draw(st.floats(0.05, 0.2))
    rot = _rotation(p, draw(st.floats(0.0, 2.0 * math.pi)), draw(st.booleans()))
    if draw(st.booleans()):
        # integer grid translations: many pairs (a, b) share t_a - t_b
        cells = draw(st.lists(st.tuples(*[st.integers(0, 3)] * p),
                              min_size=M, max_size=M, unique=True))
        translations = np.array(cells, dtype=float)
    else:
        translations = np.array(draw(st.lists(
            st.tuples(*[st.floats(-2.0, 2.0)] * p), min_size=M, max_size=M, unique=True)))
    n0 = draw(st.integers(1, 5))
    base = np.array(draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * p),
                                  min_size=n0, max_size=n0)))
    k = draw(st.integers(1, 4))
    s = draw(st.floats(0.5, 6.0))
    maps = [rf.Similitude(ratio, rot, t) for t in translations]
    return maps, base, k, s


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_shared_cases())
def test_shared_lift_crosses_match_the_reference_and_the_direct_pass(case):
    maps, base, k, s = case
    linear = maps[0].ratio * maps[0].rotation
    translations = np.stack([m.translation for m in maps])
    stages = _shared_lift_crosses(base, linear, translations, s)
    pts = base
    for j in range(1, k + 1):
        pts = np.concatenate([m.apply(pts) for m in maps])
        try:
            expected = _reference_shared_lift_cross(base, linear, translations, j, s)
        except rf.SingularConfigurationError:
            with pytest.raises(rf.SingularConfigurationError, match="images of the lift"):
                next(stages)
            return
        cross, least = next(stages)
        assert (cross.hex(), least.hex()) == (expected[0].hex(), expected[1].hex())
        try:
            direct, direct_least = _lift_cross(np.split(pts, len(maps)), s)
        except rf.SingularConfigurationError:
            direct_least = 0.0
        # well separated images only: near coincidences lose digits in both
        # routes (exact ones are checked below)
        if direct_least >= 1e-3:
            assert abs(cross - direct) <= 1e-12 * direct
            assert abs(least - direct_least) <= 1e-12 * direct_least


@pytest.mark.parametrize("base, translations, j", [
    ([[0.0], [1.0]], [[0.0], [0.5]], 1),  # 1/2 lies in both images
    ([[0.0], [1.0]], [[0.0], [0.25]], 2),  # distinct at stage 1, 1/4 shared at stage 2
    ([[0.0], [0.3]], [[0.2], [0.2]], 1),  # two maps with one translation
])
def test_shared_lift_crosses_reject_images_that_share_a_point(base, translations, j):
    base, linear, translations = np.array(base), np.array([[0.5]]), np.array(translations)
    stages = _shared_lift_crosses(base, linear, translations, 3.0)
    for i in range(1, j):
        assert next(stages) == _reference_shared_lift_cross(base, linear, translations, i, 3.0)
    for draw in (lambda: next(stages),
                 lambda: _reference_shared_lift_cross(base, linear, translations, j, 3.0)):
        with pytest.raises(rf.SingularConfigurationError, match="images of the lift"):
            draw()


def _count_lift_cross(monkeypatch):
    calls = []

    def counted(parts, s):
        calls.append(len(parts))
        return _lift_cross(parts, s)

    monkeypatch.setattr(rf.minimize, "_lift_cross", counted)
    return calls


def _rotating_pair():
    # equal ratios, distinct rotations: no shared linear part
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    maps = (rf.Similitude(0.25, np.eye(2), np.array([0.0, 0.0])),
            rf.Similitude(0.25, quarter, np.array([1.0, 0.0])))
    return rf.make_fractal(maps, label="rotating-pair")


def test_shared_linear_part_is_read_from_the_maps(cantor13, mixed_fractal):
    assert cantor13.shared_linear_part.tolist() == [[1.0 / 3.0]]
    assert rf.cantor_dust_2d("1/4").shared_linear_part.tolist() == [[0.25, 0.0], [0.0, 0.25]]
    assert mixed_fractal.shared_linear_part is None
    assert _rotating_pair().shared_linear_part is None


@pytest.mark.parametrize("fractal, s, n0, k", [
    (rf.cantor("1/3"), 3.0, 2, 6),
    (rf.cantor_dust_2d("1/4"), 4.0, 4, 3),
])
def test_raw_shared_chains_make_no_direct_cross_pass(monkeypatch, fractal, s, n0, k):
    calls = _count_lift_cross(monkeypatch)
    opts = rf.SearchOptions(seed=0, restarts=1)
    rf.lift_chain(fractal, s, n0, k, opts=opts, polish=False)
    assert calls == []


@pytest.mark.parametrize("case", ["two-scale", "rotating-pair"])
def test_other_chains_keep_the_direct_cross_pass(monkeypatch, case, mixed_fractal):
    fractal = {"two-scale": mixed_fractal, "rotating-pair": _rotating_pair()}[case]
    calls = _count_lift_cross(monkeypatch)
    opts = rf.SearchOptions(seed=0, restarts=1)
    rf.lift_chain(fractal, 3.0, 2, 3, opts=opts, polish=False)
    assert calls == [2, 2, 2]


def test_polished_chains_sum_each_stage_once_on_one_mesh(monkeypatch, cantor13, mixed_fractal):
    # a polished stage forms no cross term; on equal ratios it sums its
    # lifted points once for the lift bound, a stage that accepts no move
    # keeps that sum and one that moves sums its end points again; on
    # unequal ratios only the search sums, once; stage 0's search and every
    # stage share one mesh
    cross_calls = _count_lift_cross(monkeypatch)
    sizes, meshes = [], []

    def counted(pts, s):
        sizes.append(pts.shape[0])
        return _pair_pass(pts, s)

    init = rf.minimize._Mesh.__init__

    def recording(self, fractal):
        init(self, fractal)
        meshes.append(self)

    monkeypatch.setattr(rf.minimize, "_pair_pass", counted)
    monkeypatch.setattr(rf.minimize._Mesh, "__init__", recording)
    opts = rf.SearchOptions(seed=0, restarts=2)
    for fractal, s, n0, k in [(cantor13, 3.0, 3, 4), (rf.cantor_dust_2d("1/4"), 4.0, 3, 2),
                              (mixed_fractal, 3.0, 3, 3)]:
        sizes.clear()
        meshes.clear()
        stages = rf.lift_chain(fractal, s, n0, k, opts=opts, polish=True)
        moves = [st.iterations for st in stages[1:]]
        assert [sizes.count(st.record.N) for st in stages[1:]] == \
            [1 + (m > 0 and fractal.equal_ratios) for m in moves]
        assert len(meshes) == 1
        assert [st.depth for st in stages] == [stages[0].depth + j for j in range(k + 1)]
        if fractal is not mixed_fractal:
            assert 0 in moves and any(moves)
    assert cross_calls == []


def test_raw_deltas_are_the_normalized_cross_terms(cantor13):
    # stage j grows by exactly cross_j / N_j**(1+s/d); where the difference of
    # the normalized values is still resolved, the two agree
    rep = rf.geometric_limit(cantor13, 3.0, n0=2, k_max=6, polish=False)
    for j in range(1, 7):
        diff = rep.normalized[j] - rep.normalized[j - 1]
        assert rep.deltas[j - 1] == pytest.approx(diff, rel=1e-8)


@pytest.mark.parametrize("ratio", ["1/3", 0.33333577141352433])
def test_geometric_limit_reaches_65536_points_within_the_tail_bound(monkeypatch, ratio):
    peaks = []

    def traced(*args):
        stages = _shared_lift_crosses(*args)
        while True:
            tracemalloc.start()
            try:
                stage = next(stages)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            yield stage

    monkeypatch.setattr(rf.minimize, "_shared_lift_crosses", traced)
    rep = rf.geometric_limit(rf.cantor(ratio), 3.0, n0=2, k_max=15, polish=False)
    assert rep.n_values[-1] == 65536
    for j in range(15):
        assert 0.0 < rep.deltas[j] <= rep.tail_bounds[j]
    assert len(peaks) == 15
    assert max(peaks) < 16 * 2 ** 20


def test_raw_chain_keeps_its_points_and_stage_0_words_only():
    # a raw stage is stage 0 lifted j times: it holds its points, stage 0's
    # words and the lift count, and decodes its words only when config is read
    tracemalloc.start()
    try:
        rep = rf.geometric_limit(rf.cantor("1/3"), 3.0, n0=2, k_max=15, polish=False)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the points of all 16 stages take 2 * 65,536 * 8 B = 1 MiB
    assert current < 4 * 2 ** 20
    assert [len(st.words) for st in rep.stages] == [2] * 16
    assert [st.lifts for st in rep.stages] == list(range(16))
