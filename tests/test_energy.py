"""Energy kernel tests: worked examples first, then invariance properties."""

import math

import numpy as np
import pytest

import rieszfrac as rf


# ---------------------------------------------------------------- riesz_energy

def test_energy_two_points_unit_gap():
    # ordered pairs: (0,1) and (1,0) each contribute 1**-2
    assert rf.riesz_energy([0.0, 1.0], s=2.0) == 2.0


def test_energy_three_collinear():
    # gaps 1, 1, 2 at s=1: unordered sum 1 + 1 + 1/2, doubled
    assert rf.riesz_energy([0.0, 1.0, 2.0], s=1.0) == 5.0


def test_energy_cantor_endpoints_closed_form():
    # |0 - 1/3|**-s = 3**s; at s = log_3 8 the ordered sum is 2 * 8
    s = math.log(8.0) / math.log(3.0)
    val = rf.riesz_energy([0.0, 1.0 / 3.0], s)
    assert val == pytest.approx(16.0, rel=1e-12)


def test_energy_unit_square_corners():
    # 4 edges at distance 1 and 2 diagonals at sqrt(2), ordered convention
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    assert rf.riesz_energy(pts, s=2.0) == pytest.approx(10.0, rel=1e-14)


def test_energy_single_point_is_zero():
    assert rf.riesz_energy([0.7], s=3.0) == 0.0


def test_energy_accepts_configuration_objects():
    cfg = rf.Configuration(np.array([0.0, 1.0]))
    assert rf.riesz_energy(cfg, s=2.0) == 2.0


def test_energy_scaling_law(rng):
    # E(c x) = c**-s E(x)
    for _ in range(20):
        pts = rng.random((6, 2))
        s = float(rng.uniform(0.5, 5.0))
        c = float(rng.uniform(0.1, 10.0))
        base = rf.riesz_energy(pts, s)
        scaled = rf.riesz_energy(c * pts, s)
        assert scaled == pytest.approx(base * c ** (-s), rel=1e-10)


def test_energy_isometry_invariance(rng):
    for _ in range(20):
        pts = rng.random((7, 2))
        s = float(rng.uniform(0.5, 4.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + rng.normal(size=2)
        assert rf.riesz_energy(moved, s) == pytest.approx(
            rf.riesz_energy(pts, s), rel=1e-9)


def test_energy_permutation_invariance(rng):
    pts = rng.random((9, 3))
    perm = rng.permutation(9)
    assert rf.riesz_energy(pts[perm], 2.5) == pytest.approx(
        rf.riesz_energy(pts, 2.5), rel=1e-12)


def test_energy_monotone_in_s_when_distances_below_one(rng):
    # every pair distance < 1 so each kernel term grows with s
    for _ in range(10):
        pts = rng.random((5, 2)) * 0.4
        s_lo = float(rng.uniform(0.5, 2.0))
        s_hi = s_lo + float(rng.uniform(0.1, 2.0))
        assert rf.riesz_energy(pts, s_hi) > rf.riesz_energy(pts, s_lo)


def test_energy_positive(rng):
    for _ in range(10):
        pts = rng.random((4, 2)) * 100.0
        assert rf.riesz_energy(pts, 3.0) > 0.0


def test_energy_coincident_points_raise():
    with pytest.raises(rf.SingularConfigurationError):
        rf.riesz_energy([0.0, 0.0], s=2.0)
    with pytest.raises(rf.SingularConfigurationError):
        rf.riesz_energy(np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]]), s=1.0)


def test_energy_overflow_is_inf_not_error():
    # distinct points whose kernel term overflows double range
    assert rf.riesz_energy([0.0, 1e-100], s=4.0) == math.inf
    assert rf.riesz_energy([0.0, 1e-100], s=1.0) == 2e100
    # finite terms of 1e308 in two row blocks: each block sum is finite,
    # their total is not
    pts = np.column_stack([np.arange(2.0 * B), np.full(2 * B, 5.0)])
    pts[[0, 1, B, B + 1]] = [[0.0, 0.0], [1e-77, 0.0], [0.0, 1.0], [1e-77, 1.0]]
    assert rf.riesz_energy(pts, s=4.0) == math.inf


def test_energy_rejects_nonpositive_s():
    with pytest.raises(rf.DomainError):
        rf.riesz_energy([0.0, 1.0], s=0.0)
    with pytest.raises(rf.DomainError):
        rf.riesz_energy([0.0, 1.0], s=-2.0)


# ------------------------------------------------------------ row blocks

B = rf.energy.PAIR_BLOCK


def _brute_sq_dists(pts):
    """Squared distance of every pair i < j, summed coordinate by coordinate."""
    rows = pts.tolist()
    return [sum((a - b) ** 2 for a, b in zip(p, q))
            for i, p in enumerate(rows) for q in rows[i + 1 :]]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 5])
def test_blocked_pair_kernels_match_brute_force(rng, n, dim):
    pts = rng.random((n, dim))
    # closest pair: straddles the first block boundary whenever there is one
    i = B - 1 if n > B else n - 2
    pts[i + 1] = pts[i] + 1e-9
    d2 = _brute_sq_dists(pts)
    s = 3.0
    expected = 2.0 * math.fsum(x ** (-0.5 * s) for x in d2)
    assert rf.riesz_energy(pts, s) == pytest.approx(expected, rel=1e-13)
    assert rf.min_pairwise_distance(pts) == math.sqrt(min(d2))


@pytest.mark.parametrize("dim", [1, 2])
def test_coincident_pair_across_blocks_raises(rng, dim):
    pts = rng.random((2 * B + 3, dim))
    pts[2 * B + 1] = pts[1]
    with pytest.raises(rf.SingularConfigurationError):
        rf.riesz_energy(pts, s=2.0)
    with pytest.raises(rf.SingularConfigurationError):
        rf.cross_energy(pts[: B + 2], pts[B + 2 :], s=2.0)


def test_blocked_cross_energy_and_covering_radius(rng):
    a = rng.random((B + 3, 2))
    b = rng.random((2 * B + 1, 2)) + 2.0
    s = 2.5
    pairs = [math.fsum((x - y) ** 2 for x, y in zip(p, q)) for p in a for q in b]
    assert rf.cross_energy(a, b, s) == pytest.approx(
        2.0 * math.fsum(x ** (-0.5 * s) for x in pairs), rel=1e-13)
    radius, _ = rf.covering_radius(a, b)
    expected = max(min(np.linalg.norm(q - p) for p in a) for q in b)
    assert radius == pytest.approx(expected, rel=1e-14)


def test_unpolished_lift_chain_uses_the_self_similar_recursion(monkeypatch, cantor13):
    # raw stages come from the previous stage: no pair pass on any of them
    calls = []
    for name in ("riesz_energy", "min_pairwise_distance", "_pair_pass"):
        fn = getattr(rf.energy, name)

        def counted(config, *args, _fn=fn, _name=name):
            calls.append((_name, rf.energy._as_points(config).shape[0]))
            return _fn(config, *args)

        for module in (rf.energy, rf.minimize, rf.asymptotics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    opts = rf.SearchOptions(seed=0, restarts=1)
    stages = rf.lift_chain(cantor13, 3.0, 2, 4, opts=opts, polish=False)
    raw_sizes = {st.record.N for st in stages[1:]}
    assert [n for _, n in calls if n in raw_sizes] == []


@pytest.mark.parametrize("case", ["cantor", "dust", "two-scale"])
def test_lift_recursion_matches_direct_evaluation(case, cantor13, mixed_fractal):
    fractal, s, n0, k = {
        "cantor": (cantor13, 3.0, 2, 12),
        "dust": (rf.cantor_dust_2d("1/4"), 4.0, 4, 5),
        "two-scale": (mixed_fractal, 3.0, 2, 8),
    }[case]
    opts = rf.SearchOptions(seed=0, restarts=1)
    stages = rf.lift_chain(fractal, s, n0, k, opts=opts, polish=False)
    assert len(stages) == k + 1
    for st in stages:
        direct = rf.riesz_energy(st.config, s)
        assert abs(st.record.energy - direct) <= 1e-12 * direct
        assert st.record.normalized == rf.normalized_energy(
            st.record.energy, st.record.N, s, fractal.dimension)
        assert st.min_distance == pytest.approx(rf.min_pairwise_distance(st.config), rel=1e-9)


def test_lift_cross_sums_ordered_pairs_and_finds_least_distance(rng):
    parts = [rng.random((B + 5, 2)) + 3.0 * m for m in range(3)]
    s = 2.5
    cross, least = rf.energy._lift_cross(parts, s)
    whole = np.concatenate(parts)
    inner = sum(rf.riesz_energy(p, s) for p in parts)
    assert cross == pytest.approx(rf.riesz_energy(whole, s) - inner, rel=1e-12)
    expected = min(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2).min()
                   for a, p in enumerate(parts) for q in parts[a + 1:])
    assert least == expected


def test_lift_recursion_rejects_images_that_share_a_point():
    # x/2 and the reflection 1/2 - x/2 meet at 1/4; a declared sigma lets the
    # chain start from {0}, and its second lift puts 1/4 in both images
    maps = (rf.Similitude(0.5, np.array([[1.0]]), np.array([0.0])),
            rf.Similitude(0.5, np.array([[-1.0]]), np.array([0.5])))
    touching = rf.make_fractal(maps, label="touching", diameter=0.5, sigma=0.1)
    with pytest.raises(rf.SingularConfigurationError):
        rf.energy._lift_cross([np.array([[0.0], [0.5]]), np.array([[0.5], [1.0]])], 3.0)
    assert rf.lift_chain(touching, 3.0, 1, 1, polish=False)[-1].config.n == 2
    with pytest.raises(rf.SingularConfigurationError, match="images of the lift"):
        rf.lift_chain(touching, 3.0, 1, 2, polish=False)
    # a polished stage forms no cross term: its one pair pass finds the point
    with pytest.raises(rf.SingularConfigurationError, match="coincident points"):
        rf.lift_chain(touching, 3.0, 1, 2, polish=True)


# ---------------------------------------------------------- normalized energy

def test_normalized_energy_value():
    # 2 / 2**(1 + 2/1) = 0.25
    assert rf.normalized_energy(2.0, n=2, s=2.0, d=1.0) == 0.25


def test_normalized_energy_validation():
    with pytest.raises(rf.DomainError):
        rf.normalized_energy(1.0, n=1, s=2.0, d=1.0)
    with pytest.raises(rf.DomainError):
        rf.normalized_energy(1.0, n=2, s=2.0, d=0.0)
    with pytest.raises(rf.DomainError):
        rf.normalized_energy(1.0, n=2, s=0.0, d=1.0)


def test_energy_record_fields():
    rec = rf.EnergyRecord.from_energy(rf.riesz_energy([0.0, 1.0], 2.0), 2, s=2.0, d=1.0)
    assert rec.N == 2
    assert rec.energy == 2.0
    assert rec.normalized == 0.25
    assert rec.s == 2.0 and rec.d == 1.0


# -------------------------------------------------------------- cross energy

def test_cross_energy_two_singletons():
    assert rf.cross_energy([0.0], [1.0], s=2.0) == 2.0


def test_cross_energy_split_identity(rng):
    # E(A u B) = E(A) + E(B) + cross(A, B), up to float summation order
    for _ in range(25):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        a = rng.random((n1, 2))
        b = rng.random((n2, 2)) + 3.0
        s = float(rng.uniform(0.5, 4.0))
        whole = rf.riesz_energy(np.vstack([a, b]), s)
        parts = rf.riesz_energy(a, s) + rf.riesz_energy(b, s) + rf.cross_energy(a, b, s)
        assert parts == pytest.approx(whole, rel=1e-12)


def test_cross_energy_separated_cells_bound(cantor13, rng):
    # parts in distinct first-level cells sit >= sigma apart, so each of the
    # 2 n1 n2 ordered terms is at most sigma**-s
    s = 3.0
    sigma = cantor13.sigma
    for _ in range(10):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        a = rng.random(n1) / 3.0
        b = 1.0 - rng.random(n2) / 3.0
        cross = rf.cross_energy(a, b, s)
        assert cross <= 2.0 * n1 * n2 * sigma ** (-s) * (1.0 + 1e-12)


def test_cross_energy_shared_point_raises():
    with pytest.raises(rf.SingularConfigurationError):
        rf.cross_energy([0.0, 1.0], [1.0, 2.0], s=2.0)


# --------------------------------------------------------- point energy sums

def test_point_energy_sums_basic():
    vals = rf.point_energy_sums([0.5], [0.0, 1.0], s=1.0)
    assert vals.shape == (1,)
    assert vals[0] == 4.0


def test_point_energy_sums_skip_index():
    # skipping column j removes x_j from every candidate's sum
    vals = rf.point_energy_sums([0.5], [0.0, 1.0], s=1.0, skip_index=1)
    assert vals[0] == 2.0


def test_point_energy_sums_coincident_candidate_is_inf():
    vals = rf.point_energy_sums([0.0, 0.5], [0.0, 1.0], s=2.0)
    assert math.isinf(vals[0])
    assert vals[1] == 8.0


# ----------------------------------------------------- distances and covering

def test_min_pairwise_distance():
    assert rf.min_pairwise_distance([0.0, 1.0 / 3.0, 1.0]) == pytest.approx(
        1.0 / 3.0, rel=1e-15)


def test_min_pairwise_distance_needs_two_points():
    with pytest.raises(rf.DomainError):
        rf.min_pairwise_distance([0.5])


def test_covering_radius_line():
    radius, slack = rf.covering_radius([0.0, 1.0], [0.0, 0.5, 1.0])
    assert radius == 0.5
    assert slack == 0.0


def test_covering_radius_empty_mesh_raises():
    with pytest.raises(rf.DomainError):
        rf.covering_radius([0.0, 1.0], np.empty((0, 1)))


def test_fractal_covering_radius_endpoints(cantor13):
    # deepest anchor from {0, 1} is the middle-gap edge at distance ~ 1/3
    radius, slack = rf.fractal_covering_radius(cantor13, [0.0, 1.0], depth=6)
    assert radius == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert slack == pytest.approx((1.0 / 3.0) ** 6, rel=1e-12)


# --------------------------------------------------------------- Configuration

def test_configuration_promotes_1d():
    cfg = rf.Configuration(np.array([0.0, 0.5, 1.0]))
    assert cfg.points.shape == (3, 1)
    assert cfg.n == 3 and cfg.dim == 1


def test_configuration_rejects_nonfinite():
    with pytest.raises(rf.DomainError):
        rf.Configuration(np.array([0.0, math.nan]))
    with pytest.raises(rf.DomainError):
        rf.Configuration(np.array([0.0, math.inf]))


def test_configuration_points_are_readonly():
    cfg = rf.Configuration(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        cfg.points[0] = 5.0


def test_configuration_address_count_must_match():
    with pytest.raises(rf.DomainError):
        rf.Configuration(np.array([0.0, 1.0]),
                         addresses=((1,),))


@pytest.mark.parametrize("word", ["12", "1.2", "", (1.5,), (1, 2.0)])
def test_configuration_rejects_addresses_of_no_integers(word):
    # a string used to be read letter by letter: "12" became the word (1, 2)
    with pytest.raises(rf.DomainError, match="integer map indices"):
        rf.Configuration(np.array([0.0]), addresses=[word])


def test_configuration_reads_numpy_integer_words():
    cfg = rf.Configuration(np.array([0.0, 1.0]),
                           addresses=[np.array([1, 2]), (np.int64(2),)])
    assert cfg.addresses == ((1, 2), (2,))
    assert all(type(m) is int for word in cfg.addresses for m in word)


def test_validate_cells(cantor13):
    addr1, addr2 = (1,), (2,)
    good = rf.Configuration(np.array([0.0, 1.0]), addresses=(addr1, addr2))
    assert good.validate_cells(cantor13)
    # 0.5 sits in the middle gap, far outside cell 1 (= [0, 1/3])
    bad = rf.Configuration(np.array([0.5, 1.0]), addresses=(addr1, addr2))
    assert not bad.validate_cells(cantor13)


def test_validate_cells_requires_addresses(cantor13):
    cfg = rf.Configuration(np.array([0.0, 1.0]))
    with pytest.raises(rf.DomainError):
        cfg.validate_cells(cantor13)


# ------------------------------------------------------------------ CSV cycle

def test_configuration_csv_round_trip(tmp_path, rng):
    pts = rng.random((6, 2))
    addrs = [(1, 2)] * 5 + [()]
    cfg = rf.Configuration(pts, addresses=addrs, fractal_label="demo")
    path = tmp_path / "cfg.csv"
    rf.configuration_to_csv(cfg, path)
    header, rows = rf.serialize.read_table(path)
    assert header == ["x1", "x2", "address"]
    # 17 significant digits reload every double bit-exactly
    assert np.array_equal([[float(v) for v in row[:2]] for row in rows], cfg.points)
    assert [row[2] for row in rows] == ["1.2"] * 5 + [""]


def test_configuration_csv_without_addresses(tmp_path):
    cfg = rf.Configuration(np.array([0.0, 1.0 / 3.0, 1.0]))
    path = tmp_path / "plain.csv"
    rf.configuration_to_csv(cfg, path)
    header, rows = rf.serialize.read_table(path)
    assert header == ["x1"]
    assert np.array_equal([[float(v) for v in row] for row in rows], cfg.points)
