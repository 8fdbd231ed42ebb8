"""Raw lift stages from translation-difference clouds.

When every map shares one linear part A, the cross term of raw stage j is a
weighted kernel sum between the distinct base differences A^j (x0 - y0) and
the offsets tau_0 + sum A^i tau_i (energy._shared_lift_cross).  These tests
check it against the direct pass over the images (energy._lift_cross), check
which chains take which route, and run the chain to N = 65,536.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rieszfrac as rf
from rieszfrac.energy import _lift_cross, _shared_lift_cross


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
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_shared_cases())
def test_shared_lift_cross_matches_the_direct_pass(case):
    maps, base, k, s = case
    linear = maps[0].ratio * maps[0].rotation
    translations = np.stack([m.translation for m in maps])
    pts = base
    for j in range(1, k + 1):
        pts = np.concatenate([m.apply(pts) for m in maps])
        try:
            direct, direct_least = _lift_cross(np.split(pts, len(maps)), s)
        except rf.SingularConfigurationError:
            direct_least = 0.0
        # well separated images only: near coincidences lose digits in both
        # routes (exact ones are checked below)
        assume(direct_least >= 1e-3)
        cross, least = _shared_lift_cross(base, linear, translations, j, s)
        assert abs(cross - direct) <= 1e-12 * direct
        assert abs(least - direct_least) <= 1e-12 * direct_least


@pytest.mark.parametrize("base, translations, j", [
    ([[0.0], [1.0]], [[0.0], [0.5]], 1),  # 1/2 lies in both images
    ([[0.0], [1.0]], [[0.0], [0.5]], 2),  # again one lift later
    ([[0.0], [0.3]], [[0.2], [0.2]], 1),  # two maps with one translation
])
def test_shared_lift_cross_rejects_images_that_share_a_point(base, translations, j):
    with pytest.raises(rf.SingularConfigurationError, match="images of the lift"):
        _shared_lift_cross(np.array(base), np.array([[0.5]]), np.array(translations), j, 3.0)


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


@pytest.mark.parametrize("case", ["two-scale", "rotating-pair", "polished"])
def test_other_chains_keep_the_direct_cross_pass(monkeypatch, case, cantor13, mixed_fractal):
    fractal, polish = {
        "two-scale": (mixed_fractal, False),
        "rotating-pair": (_rotating_pair(), False),
        "polished": (cantor13, True),
    }[case]
    calls = _count_lift_cross(monkeypatch)
    opts = rf.SearchOptions(seed=0, restarts=1)
    rf.lift_chain(fractal, 3.0, 2, 3, opts=opts, polish=polish)
    assert calls == [2, 2, 2]


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
        tracemalloc.start()
        try:
            return _shared_lift_cross(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(rf.minimize, "_shared_lift_cross", traced)
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
