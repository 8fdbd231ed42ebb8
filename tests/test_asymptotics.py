"""Certificate and limit-experiment tests.

Closed-form certificates are cross-checked against 50-digit mpmath
reevaluations; experiment runners are checked against their own analytic
tail bounds and against worked small cases.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import rieszfrac as rf

D_CANTOR = math.log(2.0) / math.log(3.0)


# ------------------------------------------------------------ gap certificate

def test_gap_certificate_thin_fractal(thin_uniform):
    cert = rf.gap_certificate(thin_uniform, s=4.0)
    assert cert.M == 2 and cert.r == 0.1
    assert cert.sigma == pytest.approx(0.8, rel=1e-14)
    assert cert.R == pytest.approx(0.4806982197421137, rel=1e-14)
    assert cert.threshold_defined
    assert cert.s_threshold == pytest.approx(3.392291746614547, rel=1e-13)
    # s = 4 exceeds the threshold so the gap is certified
    assert cert.ratio < 1.0 and cert.certified


def test_gap_certificate_matches_high_precision(thin_uniform):
    cert = rf.gap_certificate(thin_uniform, s=4.0)
    with mp.workdps(50):
        r = mp.mpf(1) / 10
        M = 2
        d = mp.log(2) / mp.log(10)
        sigma = mp.mpf(8) / 10
        R = (r / sigma) * (1 + r ** d) ** (1 / d)
        thr = max(2 * d, mp.log(2 * M * (M + 1)) / mp.log(1 / R))
        assert abs(cert.R - float(R)) < 1e-14
        assert abs(cert.s_threshold - float(thr)) < 1e-13


def test_gap_certificate_ternary_unresolved(cantor13):
    # R > 1 for the middle-thirds set, so the threshold is undefined and
    # the closed-form route certifies nothing
    cert = rf.gap_certificate(cantor13, s=4.0)
    assert cert.R == pytest.approx(1.9015074982303726, rel=1e-14)
    assert not cert.threshold_defined
    assert math.isnan(cert.s_threshold)
    assert not cert.certified


def test_gap_certificate_below_dimension_is_inf(cantor13):
    cert = rf.gap_certificate(cantor13, s=0.5 * cantor13.dimension)
    assert math.isinf(cert.ratio)
    assert not cert.certified


def test_gap_certificate_validation(cantor13, mixed_fractal):
    with pytest.raises(rf.DomainError):
        rf.gap_certificate(cantor13, s=0.0)
    with pytest.raises(rf.HypothesisError):
        rf.gap_certificate(mixed_fractal, s=3.0)


# s/d from just above 1 to past the float range of M**(s/d), which ends
# below s/d = 1024 for M = 2 and below 650 for M = 3
_T_VALUES = [1.0 + 10.0 ** -k for k in range(1, 7)] + [1.5 ** j for j in range(1, 22)]


@pytest.mark.parametrize("fractal", [rf.cantor("1/3"), rf.uniform_line(2, 0.1),
                                     rf.uniform_line(3, 0.2), rf.uniform_line(4, 0.05)],
                         ids=lambda f: f.label)
def test_gap_certificate_keeps_its_bits_until_it_overflows(fractal):
    # the closed forms as gap_certificate evaluates them, operation for
    # operation; an equivalent form such as M**(1-t) moves the last bit
    M, r, d = len(fractal.maps), fractal.ratios[0], fractal.dimension
    sigma = fractal.sigma / fractal.diameter
    R = (r / sigma) * (1.0 + r ** d) ** (1.0 / d)
    overflowed = 0
    for nominal in _T_VALUES:
        s = nominal * d
        t = s / d
        try:
            denom = M ** (t - 1.0) - 1.0
            upper = sigma ** (-s) / denom
            ratio = (R ** s) * (M ** (t - 1.0) / denom) * M * (M + 1)
            lower = M ** t
        except OverflowError:
            overflowed += 1
            with pytest.raises(rf.DomainError, match="s/d"):
                rf.gap_certificate(fractal, s)
            continue
        cert = rf.gap_certificate(fractal, s)
        assert (cert.R, cert.upper_coeff, cert.ratio, cert.lower_coeff) == (R, upper, ratio, lower)
    assert 0 < overflowed < len(_T_VALUES)


def test_cantor_gap_check_keeps_its_bits_until_it_overflows():
    overflowed = 0
    for nominal in _T_VALUES:
        s = nominal * D_CANTOR
        t = s / D_CANTOR
        try:
            ratio = (0.75 ** t) * (2.0 ** (t - 1.0) / (2.0 ** (t - 1.0) - 1.0)) * 1.5
            U = 2.0 / (4.0 * (2.0 ** (t - 1.0) - 1.0))
            L = 2.0 * (2.0 ** t) / (3.0 ** (1.0 + t))
        except OverflowError:
            overflowed += 1
            with pytest.raises(rf.DomainError, match="s/d"):
                rf.cantor_gap_check(s)
            continue
        rep = rf.cantor_gap_check(s)
        assert (rep.ratio, rep.ordered_ratio) == (ratio, U / L)
    assert 0 < overflowed < len(_T_VALUES)


@pytest.mark.parametrize("check", [
    lambda: rf.gap_certificate(rf.cantor("1/3"), 2000.0),
    lambda: rf.gap_certificate(rf.uniform_line(2, 0.1), 1000.0),
    lambda: rf.cantor_gap_check(1000.0),
], ids=["cantor", "uniform", "cantor_gap_check"])
def test_a_gap_beyond_the_float_range_is_a_domain_error(check):
    with pytest.raises(rf.DomainError, match="overflows float64 at s/d"):
        check()


# ------------------------------------------------------------ ternary ratios

def test_cantor_gap_ratio_at_three_d():
    # (3/4)^3 * 4/3 * 3/2 = 27/32 exactly
    rep = rf.cantor_gap_check(3.0 * D_CANTOR)
    assert abs(rep.ratio - 0.84375) < 1e-12
    assert rep.certified and rep.defined


def test_cantor_gap_ordered_convention_invariance():
    # doubling both the seed energy and the pigeonhole pair count cancels
    for mult in (1.5, 2.0, 3.0, 5.0, 8.0):
        rep = rf.cantor_gap_check(mult * D_CANTOR)
        assert rep.ordered_ratio == pytest.approx(rep.ratio, rel=1e-12)


def test_cantor_gap_grid():
    mult = 3.0
    while mult <= 10.0 + 1e-9:
        assert rf.cantor_gap_check(mult * D_CANTOR).ratio < 1.0
        mult += 0.5
    assert rf.cantor_gap_check(1.1 * D_CANTOR).ratio > 1.0


def test_cantor_gap_monotone_decreasing_in_s():
    vals = [rf.cantor_gap_check(m * D_CANTOR).ratio for m in (3, 4, 6, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cantor_gap_below_dimension():
    rep = rf.cantor_gap_check(0.9 * D_CANTOR)
    assert not rep.defined and math.isinf(rep.ratio)
    with pytest.raises(rf.DomainError):
        rf.cantor_gap_check(0.0)


# --------------------------------------------------------- pigeonhole / tails

def test_pigeonhole_bound_value(cantor13):
    # t = 3 at s = 3d: M^3 * (M^k)^4
    s = 3.0 * D_CANTOR
    assert rf.pigeonhole_bound(cantor13, 0, s) == pytest.approx(8.0, rel=1e-12)
    assert rf.pigeonhole_bound(cantor13, 2, s) == pytest.approx(
        8.0 * 4 ** 4, rel=1e-12)


def test_pigeonhole_bound_holds_for_minimizers(cantor13):
    # any 3*2^k points leave two in a shared depth-(k+1) cell
    s = 3.0 * D_CANTOR
    opts = rf.SearchOptions(seed=0, restarts=2, strategy="lift-seeded")
    for k in (0, 1, 2):
        N = 3 * 2 ** k
        res = rf.local_search_minimize(cantor13, N, s, opts)
        assert res.record.energy >= rf.pigeonhole_bound(cantor13, k, s)


def test_pigeonhole_validation(cantor13, mixed_fractal):
    with pytest.raises(rf.DomainError):
        rf.pigeonhole_bound(cantor13, -1, 3.0)
    with pytest.raises(rf.HypothesisError):
        rf.pigeonhole_bound(cantor13, 1, 0.5 * D_CANTOR)
    with pytest.raises(rf.HypothesisError):
        rf.pigeonhole_bound(mixed_fractal, 1, 3.0)


def test_tail_bound_values(cantor13):
    # closed form n^(1-t) sigma^(-s) / (2^(t-1) - 1) at s = 3
    s = 3.0
    t = s / D_CANTOR
    expected = 8.0 ** (1.0 - t) * 27.0 / (2.0 ** (t - 1.0) - 1.0)
    assert rf.tail_bound(cantor13, s, 8) == pytest.approx(expected, rel=1e-12)
    assert rf.tail_bound(cantor13, s, 8) == pytest.approx(
        8.779149519890243e-4, rel=1e-12)


def test_tail_bound_decreasing_in_n(cantor13):
    vals = [rf.tail_bound(cantor13, 3.0, n) for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_iterated_lift_bound_dominates_chain(cantor13):
    s = 3.0
    chain = rf.lift_chain(cantor13, s, n0=2, k=4, polish=False)
    base = chain[0].record.energy
    for k, stage in enumerate(chain):
        bound = rf.iterated_lift_bound(cantor13, s, base, 2, k)
        assert stage.record.energy <= bound * (1.0 + 1e-9)


# ------------------------------------------------------- simplex optimization

def test_beta_objective_uniform_vector():
    # beta = (1/3,..) against R = (.6,.2,.2) at t = 3:
    # (1/81)(0.6^-3 + 2 * 0.2^-3)
    val = rf.beta_objective([1 / 3] * 3, [0.6, 0.2, 0.2], s=3.0, d=1.0)
    expected = (0.6 ** -3 + 2 * 0.2 ** -3) / 81.0
    assert val == pytest.approx(expected, rel=1e-13)


def test_beta_objective_at_r_is_one(rng):
    for _ in range(20):
        m = int(rng.integers(2, 6))
        R = rng.random(m) + 0.05
        R /= R.sum()
        t_mult = float(rng.uniform(1.1, 4.0))
        assert rf.beta_objective(R, R, s=t_mult, d=1.0) == pytest.approx(
            1.0, rel=1e-12)


def test_beta_optimum_examples():
    beta, value = rf.beta_optimum([0.6, 0.2, 0.2], s=3.0, d=1.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(beta - np.array([0.6, 0.2, 0.2]))) < 1e-7
    beta, value = rf.beta_optimum([0.5, 0.5], s=1.5, d=1.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(beta - 0.5)) < 1e-7


def test_beta_optimum_random_simplexes(rng):
    for _ in range(30):
        m = int(rng.integers(2, 6))
        R = rng.random(m) + 0.05
        R /= R.sum()
        s_over_d = float(rng.choice([1.5, 3.0]))
        beta, value = rf.beta_optimum(R, s=s_over_d, d=1.0)
        assert abs(value - 1.0) <= 1e-9
        assert float(np.max(np.abs(beta - R))) <= 1e-7
        # the closed form: R itself, in a copy
        assert beta.tolist() == R.tolist() and beta is not R


def test_beta_objective_never_below_one(rng):
    # the simplex minimum sits at beta = R, so random feasible points
    # can only evaluate at or above 1
    for _ in range(50):
        m = int(rng.integers(2, 7))
        R = rng.random(m) + 0.05
        R /= R.sum()
        beta = rng.random(m) + 1e-3
        beta /= beta.sum()
        val = rf.beta_objective(beta, R, s=2.5, d=1.0)
        assert val >= 1.0 - 1e-12


def test_beta_objective_convex(rng):
    for _ in range(20):
        R = rng.random(3) + 0.05
        R /= R.sum()
        b1 = rng.random(3) + 1e-3
        b1 /= b1.sum()
        b2 = rng.random(3) + 1e-3
        b2 /= b2.sum()
        mid = rf.beta_objective(0.5 * (b1 + b2), R, s=3.0, d=1.0)
        avg = 0.5 * (rf.beta_objective(b1, R, s=3.0, d=1.0)
                     + rf.beta_objective(b2, R, s=3.0, d=1.0))
        assert mid <= avg * (1.0 + 1e-12)


def test_beta_optimum_validation():
    with pytest.raises(rf.DomainError):
        rf.beta_optimum([0.5, 0.6], s=3.0, d=1.0)   # does not sum to 1
    with pytest.raises(rf.DomainError):
        rf.beta_optimum([1.0, 0.0], s=3.0, d=1.0)   # zero entry
    with pytest.raises(rf.DomainError):
        rf.beta_optimum([0.5, 0.5], s=0.5, d=1.0)   # s <= d


# ---------------------------------------------------------- geometric limits

def test_geometric_limit_cantor(cantor13):
    opts = rf.SearchOptions(seed=0, restarts=2, strategy="lift-seeded")
    rep = rf.geometric_limit(cantor13, 3.0, n0=2, k_max=6, opts=opts)
    assert rep.n_values == (2, 4, 8, 16, 32, 64, 128)
    assert rep.limit_estimate == pytest.approx(0.0621132, rel=1e-4)
    assert rep.limit_estimate == rep.normalized[-1]
    assert len(rep.deltas) == 6 and len(rep.stages) == 7
    # diagnostics shrink as the subsequence converges
    assert rep.deltas[-1] < rep.deltas[0]


@pytest.mark.parametrize("polish", [True, False])
def test_geometric_limit_rejects_the_exhaustive_strategy(cantor13, polish):
    # every stage of a lift chain is a local search, and budget under
    # "exhaustive" caps subsets, not moves
    opts = rf.SearchOptions(strategy="exhaustive", budget=1)
    with pytest.raises(rf.DomainError, match="exhaustive"):
        rf.geometric_limit(cantor13, 3.0, n0=5, k_max=2, opts=opts, polish=polish)


def test_geometric_limit_raw_deltas_obey_tail(cantor13):
    rep = rf.geometric_limit(cantor13, 3.0, n0=2, k_max=5, polish=False)
    assert not rep.polish
    for j in range(5):
        assert rep.deltas[j] <= rep.tail_bounds[j] * (1.0 + 1e-9)


@pytest.mark.parametrize("ratio", ["1/3", 0.33333577141352433])
def test_geometric_limit_raw_deltas_obey_tail_to_roundoff_at_8192_points(ratio):
    # a raw delta is the normalized cross energy of exact images, so only the
    # rounding of that sum stands between it and the tail bound; evaluating
    # the rounded coordinates of the second ratio afresh puts the last delta
    # at 1.5e-13 against a bound of 5.9e-14
    eps = float(np.finfo(float).eps)
    rep = rf.geometric_limit(rf.cantor(ratio), 3.0, n0=2, k_max=12, polish=False)
    assert rep.n_values[-1] == 8192
    for j in range(12):
        slack = 4.0 * eps * max(rep.normalized[j], rep.normalized[j + 1])
        assert rep.deltas[j] <= rep.tail_bounds[j] * (1.0 + 1e-9) + slack


def test_geometric_limit_min_distances(cantor13):
    for n0, polish in ((1, False), (2, False), (2, True)):
        rep = rf.geometric_limit(cantor13, 3.0, n0=n0, k_max=3, polish=polish)
        assert len(rep.min_distances) == 4
        for j, (st, sep) in enumerate(zip(rep.stages, rep.min_distances)):
            assert sep is st.min_distance
            evaluated = j == 0 or polish
            # stage 0 and polished stages: the one pair pass, no cross term
            assert (st.cross is None) == evaluated
            if st.config.n < 2:
                assert math.isnan(sep)
            elif evaluated:
                assert sep == rf.min_pairwise_distance(st.points)
            else:
                assert sep == pytest.approx(rf.min_pairwise_distance(st.config), rel=1e-12)


def test_geometric_limit_normalized_bounded_by_seed_plus_tail(cantor13):
    rep = rf.geometric_limit(cantor13, 3.0, n0=2, k_max=6, polish=False)
    cap = rep.normalized[0] + rep.tail_bounds[0]
    for val in rep.normalized:
        assert val <= cap * (1.0 + 1e-9)


@pytest.mark.parametrize("call", [
    lambda f, g: rf.geometric_limit(f, 0.0, n0=2, k_max=2),
    lambda f, g: rf.g_curve(f, -1.0, bins=8, N_min=2, N_max=20),
    lambda f, g: rf.pigeonhole_bound(f, 1, 0.0),
    lambda f, g: rf.gap_certificate(g, 0.0),
], ids=["geometric_limit", "g_curve", "pigeonhole_bound", "gap_certificate"])
def test_a_non_positive_s_is_a_domain_error(call, cantor13, mixed_fractal):
    # not a HypothesisError: s <= 0 is checked before s > d, and gap checks
    # it before the equal ratios that mixed_fractal lacks
    with pytest.raises(rf.DomainError, match="exponent s must be positive"):
        call(cantor13, mixed_fractal)


def test_geometric_limit_validation(cantor13, mixed_fractal):
    with pytest.raises(rf.HypothesisError):
        rf.geometric_limit(cantor13, 0.5 * D_CANTOR, n0=2, k_max=2)
    with pytest.raises(rf.HypothesisError):
        rf.geometric_limit(mixed_fractal, 3.0, n0=2, k_max=2)
    with pytest.raises(rf.DomainError):
        rf.geometric_limit(cantor13, 3.0, n0=0, k_max=2)
    with pytest.raises(rf.DomainError):
        rf.geometric_limit(cantor13, 3.0, n0=2, k_max=0)


# -------------------------------------------------------------- theta curve

def test_g_curve_bin_structure(cantor13):
    opts = rf.SearchOptions(seed=0, restarts=2, strategy="lift-seeded")
    pts = rf.g_curve(cantor13, 3.0, bins=8, N_min=2, N_max=18, opts=opts)
    assert len(pts) == 8
    covered = sorted(n for p in pts for n in p.N_list)
    assert covered == list(range(2, 19))
    # powers of 2 have {log_2 N} = 0 exactly, landing in the first bin
    assert set(pts[0].N_list) >= {2, 4, 8, 16}
    # {log_2 3} = 0.585 puts 3, 6, 12 into bin 4 of 8
    assert set(pts[4].N_list) == {3, 6, 12}


def test_g_curve_estimates_and_spread(cantor13):
    opts = rf.SearchOptions(seed=0, restarts=2, strategy="lift-seeded")
    pts = rf.g_curve(cantor13, 3.0, bins=8, N_min=2, N_max=18, opts=opts)
    for p in pts:
        if p.N_list:
            assert p.estimate == p.normalized_values[-1]
            assert p.spread >= 0.0
            assert p.spread == pytest.approx(
                max(p.normalized_values) - min(p.normalized_values))
        else:
            assert math.isnan(p.estimate) and math.isnan(p.spread)
    centers = [p.theta for p in pts]
    assert centers == pytest.approx([(i + 0.5) / 8 for i in range(8)])


def test_g_curve_validation(cantor13, mixed_fractal):
    with pytest.raises(rf.DomainError):
        rf.g_curve(cantor13, 3.0, bins=3, N_min=2, N_max=20)
    with pytest.raises(rf.DomainError):
        rf.g_curve(cantor13, 3.0, bins=8, N_min=1, N_max=20)
    with pytest.raises(rf.DomainError):
        # less than two octaves of N
        rf.g_curve(cantor13, 3.0, bins=8, N_min=4, N_max=15)
    with pytest.raises(rf.HypothesisError):
        rf.g_curve(mixed_fractal, 3.0, bins=8, N_min=2, N_max=20)


# --------------------------------------------------------------- cell counts

def test_cell_measure_uniform_anchors(cantor13):
    cfg = rf.Configuration(rf.anchor_cloud(cantor13, 4))
    rep = rf.empirical_cell_measure(cantor13, cfg, depth=2)
    assert rep.max_abs_dev == 0.0
    assert rep.counts == {"1.1": 4, "1.2": 4, "2.1": 4, "2.2": 4}
    assert all(t == pytest.approx(0.25, rel=1e-12) for t in rep.target.values())


def test_cell_measure_endpoints(cantor13):
    rep = rf.empirical_cell_measure(
        cantor13, rf.Configuration(np.array([0.0, 1.0])), depth=1)
    assert rep.empirical == {"1": 0.5, "2": 0.5}
    assert rep.max_abs_dev == 0.0


def test_cell_measure_prefers_addresses(cantor13):
    # both points carry depth-2 addresses, so geometry is ignored
    cfg = rf.Configuration(np.array([0.0, 1.0]), addresses=((1, 1), (2, 2)))
    rep = rf.empirical_cell_measure(cantor13, cfg, depth=2)
    assert rep.counts["1.1"] == 1 and rep.counts["2.2"] == 1
    assert rep.counts["1.2"] == 0 and rep.counts["2.1"] == 0


def test_cell_measure_unequal_targets(mixed_fractal):
    # weights r_m^d for ratios (1/2, 1/4) are the golden section x and x^2
    x = (math.sqrt(5.0) - 1.0) / 2.0
    rep = rf.empirical_cell_measure(
        mixed_fractal, rf.Configuration(np.array([0.0])), depth=1)
    assert rep.target["1"] == pytest.approx(x, abs=1e-12)
    assert rep.target["2"] == pytest.approx(x * x, abs=1e-12)
    assert sum(rep.target.values()) == pytest.approx(1.0, rel=1e-12)


def test_cell_measure_target_is_product(mixed_fractal):
    rep1 = rf.empirical_cell_measure(
        mixed_fractal, rf.Configuration(np.array([0.0])), depth=1)
    rep2 = rf.empirical_cell_measure(
        mixed_fractal, rf.Configuration(np.array([0.0])), depth=2)
    for key, tgt in rep2.target.items():
        a, b = key.split(".")
        assert tgt == pytest.approx(rep1.target[a] * rep1.target[b], rel=1e-12)


def test_cell_measure_minimizers_near_uniform(cantor_minimizers, cantor13):
    rep = rf.empirical_cell_measure(
        cantor13, cantor_minimizers[64].config, depth=2)
    assert rep.max_abs_dev <= 0.02


def test_cell_measure_off_fractal_point_rejected(cantor13):
    cfg = rf.Configuration(np.array([0.5, 1.0]))
    with pytest.raises(rf.ClassificationError):
        rf.empirical_cell_measure(cantor13, cfg, depth=2)


def test_cell_measure_validation(cantor13):
    with pytest.raises(rf.DomainError):
        rf.empirical_cell_measure(
            cantor13, rf.Configuration(np.array([0.0])), depth=0)


def test_g_curve_runs_one_lift_chain_per_n0(monkeypatch, cantor13):
    # N = 2..96 under lift-seeded: the N = n0 * 2**k of one n0 read one chain,
    # 48 chains (n0 = 2 and every odd n0), each with one stage-0 search; the
    # 24 of n0 = 2 and the odd n0 up to 47 lift, the odd n0 from 49 on are
    # chains with k = 0; one chain per N would run 95 chains and 95 searches
    chains, searches = [], []
    lift_chain, search = rf.minimize.lift_chain, rf.minimize._local_search_state

    def counted_chain(fractal, s, n0, k, *args, **kwargs):
        chains.append((n0, k))
        return lift_chain(fractal, s, n0, k, *args, **kwargs)

    def counted_search(*args, **kwargs):
        searches.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(rf.minimize, "lift_chain", counted_chain)
    monkeypatch.setattr(rf.minimize, "_local_search_state", counted_search)
    opts = rf.SearchOptions(strategy="lift-seeded", seed=1)
    points = rf.g_curve(cantor13, 3.0, 16, 2, 96, opts)
    assert sorted(n for p in points for n in p.N_list) == list(range(2, 97))
    top = {n0: max(k for k in range(7) if n0 * 2 ** k <= 96) for n0 in [2, *range(3, 97, 2)]}
    assert (len(chains), len(searches)) == (48, 48)
    assert sum(k >= 1 for _, k in chains) == 24
    assert dict(chains) == top and sorted(searches) == sorted(top)


@pytest.mark.parametrize("fractal, s, n_max", [(rf.cantor("1/3"), 3.0, 24),
                                               (rf.cantor_dust_2d("1/4"), 4.0, 32)],
                         ids=["cantor", "dust"])
def test_multi_n_results_are_the_per_n_results(fractal, s, n_max):
    # reading N = n0 * M**k from one chain per n0 changes no bit of any N
    opts = rf.SearchOptions(strategy="lift-seeded", seed=1, restarts=2)
    N_values = range(2, n_max + 1)
    alone = {N: rf.local_search_minimize(fractal, N, s, opts) for N in N_values}
    for N, got in rf.minimize._minima(fractal, s, N_values, opts).items():
        want = alone[N]
        assert got.record.energy.hex() == want.record.energy.hex(), N
        assert got.points.tobytes() == want.points.tobytes(), N
        assert (got.words, got.strategy, got.depth, got.iterations, got.min_distance) == \
            (want.words, want.strategy, want.depth, want.iterations, want.min_distance), N
    curve = rf.g_curve(fractal, s, 4, 2, n_max, opts)
    assert {N: v.hex() for p in curve for N, v in zip(p.N_list, p.normalized_values)} == \
        {N: r.record.normalized.hex() for N, r in alone.items()}
    report = rf.monotonicity_check(fractal, s, N_values, opts)
    assert [e.hex() for e in report.energies] == [alone[N].record.energy.hex() for N in N_values]


def test_g_curve_and_monotonicity_search_one_exhaustive_mesh(cantor13):
    # no depth: one mesh for the range, the least depth holding N = 8 anchors,
    # so both experiments report the same minimum at every N
    opts = rf.SearchOptions(strategy="exhaustive")
    N_values = range(2, 9)
    curve = rf.g_curve(cantor13, 3.0, 4, 2, 8, opts)
    report = rf.monotonicity_check(cantor13, 3.0, N_values, opts)
    d = cantor13.dimension
    assert {N: v.hex() for p in curve for N, v in zip(p.N_list, p.normalized_values)} == \
        {N: rf.normalized_energy(e, N, 3.0, d).hex() for N, e in zip(N_values, report.energies)}
    for N, e in zip(N_values, report.energies):
        assert e.hex() == rf.exhaustive_minimize(cantor13, N, 3.0, 3).record.energy.hex(), N


# -------------------------------------------------------------- monotonicity

def test_monotonicity_cantor(cantor13):
    rep = rf.monotonicity_check(cantor13, 3.0, range(2, 8))
    assert rep.violations == ()
    assert all(inc > 0.0 for inc in rep.increments)
    assert all(c > 0.0 for c in rep.c_values)
    assert rep.fitted_C == max(rep.c_values)
    assert len(rep.energies) == 6 and len(rep.increments) == 5


def test_monotonicity_validation(cantor13):
    with pytest.raises(rf.DomainError):
        rf.monotonicity_check(cantor13, 3.0, [2, 4, 5])
    with pytest.raises(rf.DomainError):
        rf.monotonicity_check(cantor13, 3.0, [2])
    with pytest.raises(rf.DomainError):
        rf.monotonicity_check(cantor13, 3.0, [1, 2, 3])


# --------------------------------------------------------------- scaling fit

def test_scaling_fit_exact_power_law():
    samples = [(n, 2.5 * n ** -1.7) for n in (2, 4, 8, 16, 32)]
    slope, intercept, rms = rf.scaling_exponent_fit(samples)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(2.5, rel=1e-12)
    assert rms < 1e-12


def test_scaling_fit_constant():
    slope, _, rms = rf.scaling_exponent_fit([(n, 7.0) for n in (2, 3, 4, 5)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert rms < 1e-12


def test_scaling_fit_validation():
    with pytest.raises(rf.DomainError):
        rf.scaling_exponent_fit([(2, 1.0), (3, 1.0)])
    with pytest.raises(rf.DomainError):
        rf.scaling_exponent_fit([(2, 1.0), (3, -1.0), (4, 1.0), (5, 1.0)])


def test_separation_samples(cantor13):
    chain = rf.lift_chain(cantor13, 3.0, n0=1, k=3, polish=False)
    samples = rf.separation_samples(chain)
    # only the points are read: no stage built its config
    assert all("config" not in vars(stage) for stage in chain)
    # the 1-point stage is skipped; later stages shrink by the map ratio
    assert [n for n, _ in samples] == [2, 4, 8]
    dists = [dval for _, dval in samples]
    assert all(a > b for a, b in zip(dists, dists[1:]))
