"""Limit experiments and analytic certificates for normalized Riesz energies.

Normalized energy means E_s(omega_N) / N^(1+s/d) throughout, with the
ordered-pair energy convention.  Certificates (gap_certificate,
cantor_gap_check, pigeonhole_bound) are closed-form evaluations with a
directed-rounding slack of 1e-12 on strict comparisons; experiment runners
(geometric_limit, g_curve, ...) report heuristic minima plus the analytic
tail bounds that control how far the heuristics can sit above the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import min_pairwise_distance, normalized_energy
from .errors import (
    ClassificationError,
    DomainError,
    HypothesisError,
)
from .fractal import Fractal, _word_text, anchor_cloud, cell_diameter
from .minimize import (
    SearchOptions,
    _level_words,
    _minima,
    lift_chain,
)

_CERT_SLACK = 1e-12
# the search strategy of each experiment when its options name none; the CLI
# reads it here (geometric-limit always runs local search)
_DEFAULT_STRATEGY = {"minimize": SearchOptions.strategy, "g-curve": "lift-seeded",
                     "weakstar": "lift-seeded", "monotonicity": "exhaustive"}


def _require_equal_ratios(fractal: Fractal, what: str):
    if len(fractal.maps) < 2:
        raise HypothesisError(f"{what} needs at least two maps")
    if not fractal.equal_ratios:
        raise HypothesisError(f"{what} assumes equal contraction ratios")


def _require_hypersingular(s: float, d: float):
    if s <= 0.0:
        raise DomainError("exponent s must be positive")
    if s <= d:
        raise HypothesisError(
            f"hypersingular regime only: need s > d, got s={s}, d={d}"
        )


# ---------------------------------------------------------------------------
# gap certificates


@dataclass(frozen=True)
class GapCertificate:
    """Closed-form liminf/limsup gap data for equal-ratio fractals.

    All quantities refer to the fractal rescaled to diameter 1; sigma is the
    rescaled separation.  certified means ratio < 1 (with slack), which
    forces a strict gap between the liminf and limsup of the normalized
    minimal energies once s is at least s_threshold.
    """

    M: int
    r: float
    d: float
    sigma: float
    s: float
    R: float
    s_threshold: float
    threshold_defined: bool
    upper_coeff: float
    lower_coeff: float
    ratio: float
    certified: bool


def gap_certificate(fractal: Fractal, s: float) -> GapCertificate:
    """Evaluate R = (r/sigma)(1+r^d)^(1/d) and the limsup/liminf ratio at s.

    ratio = R^s * M^(s/d-1)/(M^(s/d-1)-1) * M(M+1); the threshold
    max{2d, log_{1/R}(2M(M+1))} is defined only when R < 1.  A power that
    leaves the float range is a DomainError naming s/d.
    """
    if s <= 0.0:
        raise DomainError("exponent s must be positive")
    _require_equal_ratios(fractal, "gap certificate")
    if fractal.sigma <= 0.0:
        raise HypothesisError(
            "gap certificate needs a certified positive separation"
        )
    M = len(fractal.maps)
    r = fractal.ratios[0]
    d = fractal.dimension
    sigma = fractal.sigma / fractal.diameter
    R = (r / sigma) * (1.0 + r ** d) ** (1.0 / d)
    if R < 1.0:
        s_threshold = max(2.0 * d, math.log(2 * M * (M + 1)) / math.log(1.0 / R))
        threshold_defined = True
    else:
        s_threshold = math.nan
        threshold_defined = False
    t = s / d
    try:
        if t > 1.0:
            denom = M ** (t - 1.0) - 1.0
            upper_coeff = sigma ** (-s) / denom
            ratio = (R ** s) * (M ** (t - 1.0) / denom) * M * (M + 1)
        else:
            upper_coeff = math.inf
            ratio = math.inf
        lower_coeff = M ** t
    except OverflowError as exc:
        raise DomainError(f"gap certificate overflows float64 at s/d = {t!r}") from exc
    certified = ratio < 1.0 - _CERT_SLACK
    return GapCertificate(M, r, d, sigma, s, R, s_threshold, threshold_defined,
                          upper_coeff, lower_coeff, ratio, certified)


@dataclass(frozen=True)
class CantorGapReport:
    s: float
    d: float
    s_over_d: float
    defined: bool
    ratio: float
    ordered_ratio: float
    certified: bool


def cantor_gap_check(s: float) -> CantorGapReport:
    """Limsup/liminf ratio certificate specialized to the ternary Cantor set.

    ratio = (3/4)^(s/d) * 2^(s/d-1)/(2^(s/d-1)-1) * 3/2 with d = log2/log3.
    Under the unordered-pair convention the bound chain is seeded with a
    two-point energy of 1; the ordered-pair convention used here doubles both
    that seed and the pigeonhole lower bound, so the ratio is unchanged.
    ordered_ratio recomputes it that way as a check.  A power that leaves
    the float range is a DomainError naming s/d.
    """
    if s <= 0.0:
        raise DomainError("exponent s must be positive")
    d = math.log(2.0) / math.log(3.0)
    t = s / d
    if t <= 1.0:
        return CantorGapReport(s, d, t, False, math.inf, math.inf, False)
    # limsup coefficient U and liminf coefficient L of the normalized
    # energies along N = 2^(k+1) and N = 3*2^k; the seed energy enters U
    # linearly and the pair count enters L linearly
    pair_seed = 2.0
    try:
        ratio = (0.75 ** t) * (2.0 ** (t - 1.0) / (2.0 ** (t - 1.0) - 1.0)) * 1.5
        U = pair_seed / (4.0 * (2.0 ** (t - 1.0) - 1.0))
        L = pair_seed * (2.0 ** t) / (3.0 ** (1.0 + t))
    except OverflowError as exc:
        raise DomainError(f"Cantor gap check overflows float64 at s/d = {t!r}") from exc
    ordered_ratio = U / L
    certified = ratio < 1.0 - _CERT_SLACK
    return CantorGapReport(s, d, t, True, ratio, ordered_ratio, certified)


def pigeonhole_bound(fractal: Fractal, k: int, s: float) -> float:
    """Lower bound M^(s/d) * (M^k)^(1+s/d) on E_s of any M^(k+1)+M^k points.

    Valid after rescaling the fractal to diameter 1; compare against
    riesz_energy * diameter^s.  Two points share a depth-(k+1) cell by
    pigeonhole, contributing one ordered pair at distance <= r^(k+1).
    """
    _require_equal_ratios(fractal, "pigeonhole bound")
    if k < 0:
        raise DomainError("k must be nonnegative")
    d = fractal.dimension
    _require_hypersingular(s, d)
    M = len(fractal.maps)
    t = s / d
    return (M ** t) * float(M ** k) ** (1.0 + t)


def tail_bound(fractal: Fractal, s: float, n: int) -> float:
    """Geometric-series tail n^(1-s/d) * sigma^(-s) / (M^(s/d-1) - 1).

    Bounds the total normalized-energy increase along iterated lifts started
    from an n-point configuration.
    """
    _require_equal_ratios(fractal, "lift tail bound")
    d = fractal.dimension
    _require_hypersingular(s, d)
    if fractal.sigma <= 0.0:
        raise HypothesisError("tail bound needs a certified positive separation")
    if n < 1:
        raise DomainError("n must be positive")
    M = len(fractal.maps)
    t = s / d
    return n ** (1.0 - t) * fractal.sigma ** (-s) / (M ** (t - 1.0) - 1.0)


def iterated_lift_bound(fractal: Fractal, s: float, base_energy: float,
                        n0: int, k: int) -> float:
    """Upper bound (M^k)^(1+s/d) * E0 + tail * (M^k n0)^(1+s/d) on E_s(A, M^k n0)."""
    _require_equal_ratios(fractal, "iterated lift bound")
    d = fractal.dimension
    _require_hypersingular(s, d)
    if k < 0:
        raise DomainError("k must be nonnegative")
    M = len(fractal.maps)
    t = s / d
    growth = float(M ** k) ** (1.0 + t)
    return growth * base_energy + tail_bound(fractal, s, n0) * growth * n0 ** (1.0 + t)


# ---------------------------------------------------------------------------
# the simplex optimization behind the weak* limit


def beta_objective(beta, R_list, s: float, d: float) -> float:
    """sum_m beta_m^(1+s/d) * R_m^(-s/d); equals 1 at beta = R."""
    beta = np.asarray(beta, dtype=float)
    R = np.asarray(R_list, dtype=float)
    t = s / d
    return float(np.sum(beta ** (1.0 + t) * R ** (-t)))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    cond = u + (1.0 - css) / idx > 0.0
    rho = int(np.nonzero(cond)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def beta_optimum(R_list, s: float, d: float):
    """Minimize the cell-fraction objective over the probability simplex.

    Runs projected gradient descent from the uniform vector, then checks the
    stationarity solution beta = R; returns whichever evaluates lower.  The
    minimum is beta = R with value 1, and that is asserted before returning.
    """
    R = np.asarray(R_list, dtype=float)
    if R.ndim != 1 or R.size < 1:
        raise DomainError("R_list must be a nonempty vector")
    if np.any(R <= 0.0):
        raise DomainError("every R_m must be positive")
    if abs(float(np.sum(R)) - 1.0) > 1e-10:
        raise DomainError("R_list must sum to 1 within 1e-10")
    if d <= 0.0 or s <= d:
        raise DomainError("need d > 0 and s > d")
    t = s / d
    beta = np.full(R.size, 1.0 / R.size)
    value = beta_objective(beta, R, s, d)
    step = 0.25
    for _ in range(500):
        grad = (1.0 + t) * (beta / R) ** t
        trial = _project_simplex(beta - step * grad)
        trial_value = beta_objective(trial, R, s, d)
        while trial_value > value and step > 1e-18:
            step *= 0.5
            trial = _project_simplex(beta - step * grad)
            trial_value = beta_objective(trial, R, s, d)
        if trial_value >= value - 1e-16 * (1.0 + abs(value)):
            break
        beta, value = trial, trial_value
    exact = beta_objective(R, R, s, d)
    if exact <= value:
        beta, value = R.copy(), exact
    if abs(value - 1.0) > 1e-9 or float(np.max(np.abs(beta - R))) > 1e-7:
        raise AssertionError(
            "simplex optimum should be beta = R with value 1; "
            f"got value {value!r}"
        )
    return beta, value


# ---------------------------------------------------------------------------
# geometric subsequences


@dataclass(frozen=True, eq=False)
class GeometricLimitReport:
    """Normalized energies along N = n0 * M^k with Cauchy diagnostics.

    normalized[j] is the stage-j value (j = 0 is the n0-point stage);
    deltas[j - 1] is the increase from stage j - 1 to stage j (see
    geometric_limit); tail_bounds[j] bounds the total
    increase achievable by all lifts after stage j; min_distances[j] is
    stages[j].min_distance, the least pair distance of stage j (nan for one
    point).
    """

    limit_estimate: float
    s: float
    d: float
    n_values: tuple
    energies: tuple
    normalized: tuple
    deltas: tuple
    tail_bounds: tuple
    polish: bool
    stages: tuple
    min_distances: tuple


def geometric_limit(fractal: Fractal, s: float, n0: int, k_max: int,
                    opts: SearchOptions = None, polish: bool = True) -> GeometricLimitReport:
    """Estimate the limit of normalized minimal energies along N = n0 * M^k.

    Minimizes at n0 points, lifts k_max times (polishing each stage unless
    polish=False), and reports the last normalized value as the estimate
    together with the analytic tail bounds.  With polish=False the stages
    are the raw iterated lifts.  Their energies and separations come from
    the previous stage by the self-similar recursion, so a raw stage
    describes the exact images of the previous stage.  With equal ratios
    M * r**(-s) = M**(s/d) and the normalized value grows by exactly the
    normalized cross energy between those images, cross_j / N_j**(1+s/d),
    which is what a raw delta reports: it keeps full relative precision
    where the difference of two normalized values would be rounding
    (one ulp from N = 32,768 on cantor(1/3)), and it obeys the tail bound
    with no roundoff allowance.  When the maps share one linear part the
    cross terms come from translation-difference clouds, O(n0**2 * T**k)
    kernel terms for T distinct translation differences instead of O(N**2),
    with the clouds set up once per chain and advanced stage by stage (see
    lift_chain).  A raw stage carries its cross term as `cross`.
    Polished stages are evaluated directly and their delta is the absolute
    difference of the normalized values.  lift_chain checks the separation
    and n0.
    """
    _require_equal_ratios(fractal, "geometric limit")
    d = fractal.dimension
    _require_hypersingular(s, d)
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    stages = tuple(lift_chain(fractal, s, n0, k_max, opts, polish))
    n_values = tuple(st.record.N for st in stages)
    energies = tuple(st.record.energy for st in stages)
    normalized = tuple(st.record.normalized for st in stages)
    deltas = tuple(abs(normalized[j] - normalized[j - 1]) if st.cross is None
                   else normalized_energy(st.cross, st.record.N, s, d)
                   for j, st in enumerate(stages[1:], 1))
    tails = tuple(tail_bound(fractal, s, n) for n in n_values)
    return GeometricLimitReport(normalized[-1], s, d, n_values, energies,
                                normalized, deltas, tails, polish, stages,
                                tuple(st.min_distance for st in stages))


# ---------------------------------------------------------------------------
# the theta curve


@dataclass(frozen=True, eq=False)
class GCurvePoint:
    """One bin of the curve theta -> normalized minimal energy.

    theta is the bin center; N_list collects the sampled N whose fractional
    part {log_M N} falls in the half-open bin; estimate is the value at the
    largest such N and spread the within-bin max minus min.
    """

    theta: float
    N_list: tuple
    normalized_values: tuple
    estimate: float
    spread: float


def _log_frac(N: int, M: int) -> float:
    # exact zero on powers of M; plain fmod otherwise
    k = round(math.log(N) / math.log(M))
    if k >= 0 and M ** k == N:
        return 0.0
    return math.log(N) / math.log(M) % 1.0


def g_curve(fractal: Fractal, s: float, bins: int, N_min: int, N_max: int,
            opts: SearchOptions = None):
    """Normalized minimized energies grouped by {log_M N} into equal bins.

    Every N is searched by _minima, so under "lift-seeded" the N = n0 * M**k
    of one n0 are the stages of one lift chain.
    """
    _require_equal_ratios(fractal, "g-curve")
    d = fractal.dimension
    _require_hypersingular(s, d)
    if bins < 4:
        raise DomainError("need at least 4 bins")
    if N_min < 2:
        raise DomainError("N_min must be at least 2")
    M = len(fractal.maps)
    if N_max < N_min * M * M:
        raise DomainError("need N_max/N_min >= M^2 to span two octaves")
    if opts is None:
        opts = SearchOptions(strategy=_DEFAULT_STRATEGY["g-curve"])
    by_bin = [[] for _ in range(bins)]
    for N, result in _minima(fractal, s, range(N_min, N_max + 1), opts).items():
        by_bin[min(int(_log_frac(N, M) * bins), bins - 1)].append((N, result.record.normalized))
    points = []
    for i, rows in enumerate(by_bin):
        center = (i + 0.5) / bins
        if rows:
            ns = tuple(n for n, _ in rows)
            vals = tuple(v for _, v in rows)
            points.append(GCurvePoint(center, ns, vals, vals[-1],
                                      max(vals) - min(vals)))
        else:
            points.append(GCurvePoint(center, (), (), math.nan, math.nan))
    return points


# ---------------------------------------------------------------------------
# weak* convergence via cell counts


@dataclass(frozen=True, eq=False)
class CellMeasureReport:
    depth: int
    counts: dict
    empirical: dict
    target: dict
    max_abs_dev: float


def empirical_cell_measure(fractal: Fractal, config, depth: int) -> CellMeasureReport:
    """Fraction of configuration points per depth-l cell vs the target prod r^d.

    Points carrying addresses of length >= depth are classified by prefix;
    the rest by nearest depth-l anchor, accepted only when the distance is
    within the cell diameter (anchors of distinct cells are separated, so
    on-fractal points classify correctly; ties break lexicographically).
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    M = len(fractal.maps)
    # anchor_cloud's rows: depth lifts of the one base anchor
    words = _level_words(range(M ** depth), M, depth, ((),))
    anchors = None
    counts = {w: 0 for w in words}
    pts = config.points
    addrs = config.addresses
    for i in range(config.n):
        if addrs is not None and len(addrs[i]) >= depth:
            counts[addrs[i][:depth]] += 1
            continue
        if anchors is None:
            anchors = anchor_cloud(fractal, depth)
        dist = np.sqrt(np.sum((anchors - pts[i]) ** 2, axis=1))
        j = int(np.argmin(dist))
        w = words[j]
        if dist[j] > cell_diameter(fractal, w) * (1.0 + 1e-9) + 1e-12:
            raise ClassificationError(
                f"point {pts[i].tolist()} is not within any depth-{depth} cell"
            )
        counts[w] += 1
    d = fractal.dimension
    counted, empirical, target = {}, {}, {}
    for w in words:
        tgt = 1.0
        for m in w:
            tgt *= fractal.ratios[m - 1] ** d
        key = _word_text(w)
        counted[key], empirical[key], target[key] = counts[w], counts[w] / config.n, tgt
    max_dev = max(abs(empirical[key] - target[key]) for key in target)
    return CellMeasureReport(depth, counted, empirical, target, max_dev)


# ---------------------------------------------------------------------------
# perturbation monotonicity


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Minimized energies over consecutive N with increment diagnostics.

    violations lists N where the estimate at N+1 fell below the one at N
    (a search failure, not a property of the true minima); c_values are the
    increments divided by N^(s/d) and fitted_C their maximum.
    """

    N_values: tuple
    energies: tuple
    violations: tuple
    increments: tuple
    c_values: tuple
    fitted_C: float


def monotonicity_check(fractal: Fractal, s: float, N_range,
                       opts: SearchOptions = None) -> MonotonicityReport:
    """Minimized energies over consecutive N, by default certified exhaustive.

    The whole range is searched by one _minima call under opts as given,
    as in g_curve, so the exhaustive route searches every N on one mesh.
    """
    N_values = [int(n) for n in N_range]
    if len(N_values) < 2:
        raise DomainError("need at least two values of N")
    for a, b in zip(N_values, N_values[1:]):
        if b != a + 1:
            raise DomainError("N_range must be consecutive integers")
    if N_values[0] < 2:
        raise DomainError("N must start at 2 or above")
    if opts is None:
        opts = SearchOptions(strategy=_DEFAULT_STRATEGY["monotonicity"])
    energies = [result.record.energy for result in _minima(fractal, s, N_values, opts).values()]
    t = s / fractal.dimension
    violations = []
    increments = []
    c_values = []
    for j in range(len(N_values) - 1):
        inc = energies[j + 1] - energies[j]
        increments.append(inc)
        c_values.append(inc / N_values[j] ** t)
        if energies[j + 1] < energies[j] * (1.0 - 1e-12):
            violations.append(N_values[j + 1])
    fitted = max(c_values) if c_values else math.nan
    return MonotonicityReport(tuple(N_values), tuple(energies),
                              tuple(violations), tuple(increments),
                              tuple(c_values), fitted)


def scaling_exponent_fit(samples):
    """Least-squares slope/intercept of log(value) against log(N).

    Returns (slope, intercept, residual) with residual the RMS misfit.
    """
    rows = [(float(n), float(v)) for n, v in samples]
    if len(rows) < 4:
        raise DomainError("need at least 4 samples")
    for n, v in rows:
        if n <= 0.0 or v <= 0.0:
            raise DomainError("samples must be positive")
    logn = np.log([n for n, _ in rows])
    logv = np.log([v for _, v in rows])
    slope, intercept = np.polyfit(logn, logv, 1)
    resid = logv - (slope * logn + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return float(slope), float(intercept), rms


def separation_samples(stages) -> list:
    """(N, min pairwise distance) pairs from minimize results or configurations.

    Only the points are read, so a result builds no config.
    """
    out = []
    for st in stages:
        if st.points.shape[0] >= 2:
            out.append((st.points.shape[0], min_pairwise_distance(st.points)))
    return out
