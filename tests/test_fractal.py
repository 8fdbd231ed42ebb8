import json
import math
import warnings

import numpy as np
import pytest

import rieszfrac as rf
from rieszfrac import (
    DegenerateFractalWarning,
    DomainError,
    SeparationWarning,
    Similitude,
)


def test_similitude_scales_distances(rng):
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    sim = Similitude(0.4, rot, np.array([1.0, -2.0]))
    for _ in range(20):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        lhs = np.linalg.norm(sim.apply(x[None, :]) - sim.apply(y[None, :]))
        rhs = 0.4 * np.linalg.norm(x - y)
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)


def test_similitude_rejects_bad_inputs():
    eye = np.array([[1.0]])
    with pytest.raises(DomainError):
        Similitude(0.0, eye, np.array([0.0]))
    with pytest.raises(DomainError):
        Similitude(1.0, eye, np.array([0.0]))
    with pytest.raises(DomainError):
        Similitude(0.5, np.array([[2.0]]), np.array([0.0]))
    with pytest.raises(DomainError):
        Similitude(0.5, eye, np.array([0.0, 1.0]))


@pytest.mark.parametrize("rotation, translation", [
    ([[1.0]], [np.inf]),
    ([[np.nan]], [0.0]),  # nan passes the Gram check: nan > tol is False
    ([[1.0, 0.0], [0.0, np.inf]], [0.0, 0.0]),
    ([[1.0, 0.0], [0.0, 1.0]], [-np.inf, np.nan]),
])
def test_similitude_rejects_non_finite_maps(rotation, translation):
    with pytest.raises(DomainError, match="finite"):
        Similitude(0.3, rotation, translation)


def test_similitude_fixed_point():
    sim = Similitude(1.0 / 3.0, np.array([[1.0]]), np.array([2.0 / 3.0]))
    fp = sim.fixed_point()
    assert abs(fp[0] - 1.0) < 1e-14


def test_moran_dimension_examples():
    d = rf.moran_dimension([1.0 / 3.0, 1.0 / 3.0])
    assert abs(d - math.log(2) / math.log(3)) < 1e-12

    assert abs(rf.moran_dimension([0.5, 0.5]) - 1.0) < 1e-12

    # x = (1/2)^d solves x + x^2 = 1, so d = log2((sqrt(5)+1)/2)
    d_mixed = rf.moran_dimension([0.5, 0.25])
    closed = math.log2((math.sqrt(5.0) + 1.0) / 2.0)
    assert abs(d_mixed - closed) < 1e-12


def test_moran_dimension_residual_small():
    for ratios in ([0.3, 0.3, 0.2], [0.9, 0.05], [0.45, 0.45]):
        d = rf.moran_dimension(ratios)
        assert abs(sum(r ** d for r in ratios) - 1.0) < 1e-13


def test_moran_dimension_equal_ratio_closed_form(rng):
    for _ in range(20):
        M = int(rng.integers(2, 6))
        r = float(rng.uniform(0.05, 1.0 / M - 1e-3))
        d = rf.moran_dimension([r] * M)
        assert abs(d - math.log(M) / math.log(1.0 / r)) < 1e-12


def test_moran_dimension_monotone_in_maps(rng):
    for _ in range(10):
        base = list(rng.uniform(0.05, 0.3, size=3))
        d1 = rf.moran_dimension(base)
        d2 = rf.moran_dimension(base + [0.1])
        assert d2 > d1


def test_moran_dimension_degenerate_and_errors():
    with pytest.warns(DegenerateFractalWarning):
        assert rf.moran_dimension([0.5]) == 0.0
    with pytest.raises(DomainError):
        rf.moran_dimension([])
    with pytest.raises(DomainError):
        rf.moran_dimension([1.2, 0.3])
    with pytest.raises(DomainError):
        rf.moran_dimension([-0.1, 0.5])


def test_cell_anchor_examples(cantor13):
    a1 = rf.cell_anchor(cantor13, (1,))
    assert abs(a1[0]) < 1e-15

    a2 = rf.cell_anchor(cantor13, (2,))
    assert abs(a2[0] - 2.0 / 3.0) < 1e-15

    deep = rf.cell_anchor(cantor13, (2,) * 10)
    assert abs(deep[0] - 1.0) < 3.0 ** (-10)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "1/0", "0/0", "nan/2",
                                  float("nan"), float("inf")])
def test_parse_number_rejects_non_finite(text):
    with pytest.raises(DomainError):
        rf.parse_number(text)
    if isinstance(text, str):
        with pytest.raises(DomainError):
            rf.from_catalog(f"cantor({text})")


def test_cell_anchor_ternary_digit_oracle(cantor13):
    # anchor of word (m1..ml) on the ternary Cantor set is sum of 2*3^-i over
    # positions with digit 2; independent of the library's map composition
    for word in [(1, 2, 2), (2, 1, 2, 1), (2, 2, 2, 2, 2), (1, 1, 1)]:
        expect = sum(2.0 * 3.0 ** -(i + 1) for i, m in enumerate(word) if m == 2)
        got = rf.cell_anchor(cantor13, word)[0]
        assert abs(got - expect) < 1e-14


def test_cell_anchor_rejects_bad_word(cantor13):
    with pytest.raises(DomainError):
        rf.cell_anchor(cantor13, (3,))
    with pytest.raises(DomainError):
        rf.cell_anchor(cantor13, (0,))


@pytest.mark.parametrize("word", [(1.5,), (1, 2.0), "12", "1.2", ""])
def test_cell_anchor_and_diameter_reject_words_of_no_integers(cantor13, word):
    # 1.5 lies in 1..2 but is no map index; a string is no word
    for cell_function in (rf.cell_anchor, rf.cell_diameter):
        with pytest.raises(DomainError, match="integer map indices"):
            cell_function(cantor13, word)


def test_cell_words_may_hold_numpy_integers(cantor13):
    word = np.array([2, 1], dtype=np.int64)
    assert np.array_equal(rf.cell_anchor(cantor13, word), rf.cell_anchor(cantor13, (2, 1)))
    assert rf.cell_diameter(cantor13, (np.int32(2), 1)) == rf.cell_diameter(cantor13, (2, 1))


def test_cell_diameter_examples(cantor13, mixed_fractal):
    assert rf.cell_diameter(cantor13, (1, 2)) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert rf.cell_diameter(cantor13, ()) == cantor13.diameter
    assert rf.cell_diameter(mixed_fractal, (2, 1)) == pytest.approx(1.0 / 8.0, abs=1e-15)


def test_cell_diameter_multiplicative(cantor13, mixed_fractal):
    for f in (cantor13, mixed_fractal):
        w1, w2 = (1, 2), (2, 2, 1)
        lhs = rf.cell_diameter(f, w1 + w2) * f.diameter
        rhs = rf.cell_diameter(f, w1) * rf.cell_diameter(f, w2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cell_words_as_addresses():
    assert rf.fractal._word_text((2, 1, 2)) == "2.1.2"
    assert rf.fractal._word_text(()) == ""
    cfg = rf.Configuration(np.array([0.0, 1.0]), addresses=[[np.int64(2), 1], ()])
    assert cfg.addresses == ((2, 1), ())
    assert all(type(m) is int for m in cfg.addresses[0])


def test_estimate_diameter_cantor(cantor13):
    est, upper = rf.estimate_diameter(cantor13, depth=4)
    assert est >= 80.0 / 81.0 - 1e-12
    assert est <= 1.0 + 1e-12
    assert upper <= est / (1.0 - 2.0 * 3.0 ** -4) + 1e-12
    assert upper >= 1.0 - 1e-12  # true diameter is covered


def test_estimate_diameter_dyadic_interval():
    maps = (
        Similitude(0.5, np.array([[1.0]]), np.array([0.0])),
        Similitude(0.5, np.array([[1.0]]), np.array([0.5])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = rf.make_fractal(maps, label="interval", diameter=1.0, sigma=0.0)
    est, upper = rf.estimate_diameter(f, depth=5)
    assert est == pytest.approx(31.0 / 32.0, abs=1e-12)
    assert upper >= 1.0


def test_estimate_diameter_single_map():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = rf.make_fractal((Similitude(0.5, np.array([[1.0]]), np.array([1.0])),),
                            label="point", diameter=1.0, sigma=0.0)
    est, upper = rf.estimate_diameter(f, depth=3)
    assert est == 0.0


def test_estimate_diameter_infinite_flag():
    maps = (
        Similitude(0.6, np.array([[1.0]]), np.array([0.0])),
        Similitude(0.6, np.array([[1.0]]), np.array([0.4])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = rf.make_fractal(maps, label="fat", diameter=2.0, sigma=0.0)
    est, upper = rf.estimate_diameter(f, depth=1)
    assert math.isinf(upper)


def test_separation_sigma_examples(cantor13):
    val = rf.separation_sigma(cantor13, depth=6)
    assert 1.0 / 3.0 - 2.0 * 3.0 ** -6 < val <= 1.0 / 3.0 + 1e-12

    thin = rf.cantor(0.1)
    val = rf.separation_sigma(thin, depth=4)
    assert 0.8 - 2.0 * 0.1 ** 4 * 1.0 < val <= 0.8 + 1e-12


def test_separation_sigma_overlap_warns():
    maps = (
        Similitude(0.5, np.array([[1.0]]), np.array([0.0])),
        Similitude(0.5, np.array([[1.0]]), np.array([0.25])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = rf.make_fractal(maps, label="overlap", diameter=0.5, sigma=0.0)
    with pytest.warns(SeparationWarning):
        assert rf.separation_sigma(f, depth=4) == 0.0


def test_sigma_below_first_level_cloud_distance(cantor13, mixed_fractal, thin_uniform):
    for f in (cantor13, mixed_fractal, thin_uniform):
        assert f.sigma <= rf.first_level_cloud_distance(f, depth=6) + 1e-12


def test_deeper_cell_separation_scales(cantor13):
    # cells differing first at position k are at least (prod of first k-1
    # ratios) * sigma apart; spot-check depth-3 anchor clouds
    pts = rf.anchor_cloud(cantor13, 3)
    words = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if i == j:
                continue
            k = next(t for t in range(3) if wi[t] != wj[t])
            scale = cantor13.ratios[0] ** k
            assert abs(pts[i, 0] - pts[j, 0]) >= scale * cantor13.sigma - 1e-12


def test_moran_invariant_on_fractal(cantor13, mixed_fractal):
    for f in (cantor13, mixed_fractal):
        assert abs(sum(r ** f.dimension for r in f.ratios) - 1.0) < 1e-12
        assert 0.0 < f.dimension <= f.ambient_dim


def test_catalog_parsing():
    f = rf.from_catalog("cantor(1/3)")
    assert len(f.maps) == 2
    assert f.sigma == pytest.approx(1.0 / 3.0, abs=1e-15)

    g = rf.from_catalog("uniform(3, 0.2)")
    assert len(g.maps) == 3
    assert g.sigma == pytest.approx(0.2, abs=1e-15)

    h = rf.from_catalog("cantor-dust-2d(0.25)")
    assert h.ambient_dim == 2
    assert len(h.maps) == 4
    assert h.dimension == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(DomainError):
        rf.from_catalog("mystery(1)")
    with pytest.raises(DomainError):
        rf.from_catalog("cantor(0.6)")


def test_uniform_overlap_warns():
    # overlap triggers the degenerate warning, and the resulting sigma = 0
    # triggers the separation one
    with pytest.warns((DegenerateFractalWarning, rf.SeparationWarning)):
        f = rf.uniform_line(3, 0.5)
    assert f.sigma == 0.0


def test_fractal_from_json_document(tmp_path):
    doc = {
        "label": "two-scale",
        "ambient_dim": 1,
        "maps": [
            {"ratio": 0.5, "translation": [0.0]},
            {"ratio": 0.25, "rotation": [1.0], "translation": [0.75]},
        ],
        "diameter": 1.0,
        "sigma": 0.25,
    }
    f = rf.fractal_from_spec(doc)
    assert f.dimension == pytest.approx(math.log2((math.sqrt(5) + 1) / 2), abs=1e-12)

    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    g = rf.load_fractal(str(path))
    assert g.dimension == f.dimension
    assert rf.load_fractal(f) is f
    assert rf.load_fractal("cantor(1/3)").sigma == pytest.approx(1.0 / 3.0)


def _spec_of(f):
    return (f.ambient_dim, f.dimension, f.diameter, f.sigma, f.label,
            [(m.ratio, m.rotation.tolist(), m.translation.tolist()) for m in f.maps])


@pytest.mark.parametrize("source", [
    "cantor(1/3)",
    {"label": "loaded-twice", "ambient_dim": 1,
     "maps": [{"ratio": 0.25, "translation": [0.0]}, {"ratio": 0.25, "translation": [0.75]}]},
])
def test_two_loads_of_one_fractal_are_equal(source):
    assert _spec_of(rf.load_fractal(source)) == _spec_of(rf.load_fractal(source))


@pytest.mark.parametrize("source", [
    "uniform(3, 1/2)",
    {"label": "warns-every-load", "ambient_dim": 1, "diameter": 1.0, "sigma": 0.1,
     "maps": [{"ratio": 0.5, "translation": [0.0]}]},
])
def test_a_fractal_that_warns_warns_on_every_load(source):
    loaded, raised = [], []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded.append(rf.load_fractal(source))
        raised.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert _spec_of(loaded[0]) == _spec_of(loaded[1])
    assert DegenerateFractalWarning in {category for category, *_ in raised[0]}
    assert raised[0] == raised[1]


def test_derived_diameter_and_sigma(cantor13):
    # same maps, nothing declared: derived values must bracket the truth
    f = rf.make_fractal(cantor13.maps, label="derived")
    assert f.diameter >= 1.0 - 1e-12
    assert f.diameter <= 1.03
    assert 0.30 < f.sigma <= 1.0 / 3.0 + 1e-12


@pytest.mark.parametrize("M, r, depth", [(5, 0.15, 5), (9, 0.08, 4)])
def test_derived_bounds_with_many_maps(M, r, depth):
    # M**6 anchors exceed DEFAULT_SCAN_BUDGET, so the bounds are derived at
    # the deepest depth within it
    doc = {"label": f"line-{M}", "ambient_dim": 1,
           "maps": [{"ratio": r, "translation": [i * (1.0 - r) / (M - 1)]} for i in range(M)]}
    f = rf.load_fractal(doc)
    assert 0.0 < f.sigma <= (1.0 - M * r) / (M - 1)
    assert f.sigma == rf.separation_sigma(f, depth)
    assert 1.0 <= f.diameter < 1.01


def _rotating_ifs():
    # three maps of the unit square, two of them rotated (by 90 and 30 degrees)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    maps = (
        Similitude(0.3, np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.3, 0.0])),
        Similitude(0.3, np.eye(2), np.array([0.7, 0.0])),
        Similitude(0.3, np.array([[c, -s], [s, c]]), np.array([0.2, 0.6])),
    )
    return rf.make_fractal(maps, label="rotating")


@pytest.mark.parametrize("name", ["rotating", "two-scale"])
def test_blocked_distance_scans_match_a_full_matrix_bitwise(name, mixed_fractal):
    fractal = {"rotating": _rotating_ifs(), "two-scale": mixed_fractal}[name]
    M = len(fractal.maps)
    for depth in range(1, 7):
        pts = rf.anchor_cloud(fractal, depth)
        full = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        estimate, upper = rf.estimate_diameter(fractal, depth)
        assert estimate == math.sqrt(max(float(full.max()), 0.0))
        shrink = fractal.r_max ** depth
        assert upper == (math.inf if shrink >= 0.5 else estimate / (1.0 - 2.0 * shrink))
        block = M ** (depth - 1)
        cross = min(float(full[i * block : (i + 1) * block, j * block : (j + 1) * block].min())
                    for i in range(M) for j in range(i + 1, M))
        assert rf.first_level_cloud_distance(fractal, depth) == math.sqrt(max(cross, 0.0))


def test_anchor_cloud_budget(cantor13):
    with pytest.raises(rf.ResourceBudgetError):
        rf.anchor_cloud(cantor13, depth=40)
    pts = rf.anchor_cloud(cantor13, depth=3)
    assert pts.shape == (8, 1)
    # lexicographic word order: first anchor is cell 1.1.1, last is 2.2.2
    assert pts[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert pts[-1, 0] == pytest.approx(26.0 / 27.0, abs=1e-14)
