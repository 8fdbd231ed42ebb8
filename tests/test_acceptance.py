"""Acceptance suite: one test per shipped claim, run with pytest -v to get
one pass/fail line each.

Tolerances are pinned in the asserts; runtime limits use wall-clock
perf_counter around the measured computation only.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

import rieszfrac as rf

D_CANTOR = math.log(2.0) / math.log(3.0)


def test_criterion_01_moran_dimension():
    t0 = time.perf_counter()
    d1 = rf.cantor("1/3").dimension
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # uniform(3, 1/2) overlaps
        d2 = rf.from_catalog("uniform(3, 1/2)").dimension
    elapsed = time.perf_counter() - t0
    assert abs(d1 - math.log(2.0) / math.log(3.0)) < 1e-12
    assert abs(d2 - math.log(3.0) / math.log(2.0)) < 1e-12
    assert elapsed < 1.0
    print(f"C1 PASS: d(cantor)={d1!r}, d(uniform(3,1/2))={d2!r}, {elapsed:.3f}s")


def test_criterion_02_beta_optimization():
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        R = rng.dirichlet(np.ones(m))
        while R.min() < 1e-6:
            R = rng.dirichlet(np.ones(m))
        R = R / R.sum()
        for s_over_d in (1.5, 3.0):
            beta, value = rf.beta_optimum(R, s=s_over_d, d=1.0)
            assert abs(value - 1.0) <= 1e-9
            assert float(np.max(np.abs(beta - R))) <= 1e-7
            # random feasible points never beat the optimum
            probe = rng.dirichlet(np.ones(m))
            probe = probe / probe.sum()
            if probe.min() > 0.0:
                assert rf.beta_objective(probe, R, s=s_over_d, d=1.0) >= 1.0 - 1e-12
        checked += 1
    assert checked == 100
    print("C2 PASS: 100 simplex vectors x s/d in {1.5, 3}, value within 1e-9, "
          "beta within 1e-7, probes >= 1")


def test_criterion_03_gap_certificate():
    t0 = time.perf_counter()
    thin = rf.uniform_line(2, "0.1")
    cert = rf.gap_certificate(thin, s=4.0)
    tern = rf.gap_certificate(rf.cantor("1/3"), s=4.0)
    elapsed = time.perf_counter() - t0
    assert abs(cert.R - 0.48071) < 1e-3
    assert abs(cert.s_threshold - 3.392) < 1e-3
    with mp.workdps(50):
        r = mp.mpf(1) / 10
        d = mp.log(2) / mp.log(10)
        sigma = mp.mpf(8) / 10
        R_hp = (r / sigma) * (1 + r ** d) ** (1 / d)
        thr_hp = max(2 * d, mp.log(12) / mp.log(1 / R_hp))
    assert abs(cert.R - float(R_hp)) < 1e-3
    assert abs(cert.s_threshold - float(thr_hp)) < 1e-3
    assert tern.R > 1.0
    assert tern.certified is False
    assert elapsed < 1.0
    print(f"C3 PASS: R={cert.R!r}, s_threshold={cert.s_threshold!r}, "
          f"ternary R={tern.R!r} uncertified, {elapsed:.3f}s")


def test_criterion_04_ternary_ratio_grid():
    mult = 3.0
    while mult <= 10.0 + 1e-9:
        rep = rf.cantor_gap_check(mult * D_CANTOR)
        assert rep.ratio < 1.0, f"ratio at {mult}d should certify"
        mult += 0.5
    assert rf.cantor_gap_check(1.1 * D_CANTOR).ratio > 1.0
    at3 = rf.cantor_gap_check(3.0 * D_CANTOR)
    assert abs(at3.ratio - 0.84375) < 1e-12
    print(f"C4 PASS: grid 3d..10d certified, 1.1d not, ratio(3d)={at3.ratio!r}")


def test_criterion_05_oracle_equivalence(cantor13):
    t0 = time.perf_counter()
    worst = 0.0
    for N in (2, 3, 4, 5):
        for s in (2.0, 4.0):
            cert = rf.exhaustive_minimize(cantor13, N, s, depth=4)
            loc = rf.local_search_minimize(cantor13, N, s,
                                           rf.SearchOptions(seed=0))
            assert loc.record.energy <= cert.record.energy * (1.0 + 1e-9), (N, s)
            worst = max(worst, loc.record.energy / cert.record.energy)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"C5 PASS: 8 (N, s) combos, worst local/exhaustive={worst:.6f}, "
          f"{elapsed:.1f}s")


def test_criterion_06_pigeonhole_lower_bound(cantor13):
    s = 3.0 * D_CANTOR
    violations = 0
    checked = 0
    for k in range(0, 7):
        N = 2 ** (k + 1) + 2 ** k
        bound = rf.pigeonhole_bound(cantor13, k, s)
        for strategy in ("lift-seeded", "local-search"):
            for seed in (0, 1):
                opts = rf.SearchOptions(seed=seed, restarts=2, strategy=strategy)
                res = rf.local_search_minimize(cantor13, N, s, opts)
                checked += 1
                if res.record.energy < bound:
                    violations += 1
        # non-vacuity: a deliberately clustered configuration also obeys it
        crowded = rf.anchor_cloud(cantor13, 9)[:N] / 3.0
        checked += 1
        if rf.riesz_energy(crowded, s) < bound:
            violations += 1
    assert violations == 0
    print(f"C6 PASS: {checked} configurations at sizes 3*2^k (k<=6), "
          "zero bound violations")


def test_criterion_07_lift_bound_chain(cantor13):
    t0 = time.perf_counter()
    s = 3.0
    M = 2
    chain = rf.lift_chain(cantor13, s, n0=2, k=10, polish=False)
    base = chain[0].record.energy
    assert base == pytest.approx(2.0, rel=1e-12)   # {0, 1} ordered pair
    for k, stage in enumerate(chain):
        bound = rf.iterated_lift_bound(cantor13, s, base, 2, k)
        assert stage.record.energy <= bound * (1.0 + 1e-9), k
    # Cauchy part: pick n0 with tail(n0) < 0.05 * a_k, then the last delta
    # along N = n0 * 2^k must fall below that analytic tail
    rep = rf.geometric_limit(cantor13, s, n0=8, k_max=7, polish=False)
    tail0 = rf.tail_bound(cantor13, s, 8)
    assert tail0 < 0.05 * rep.limit_estimate
    assert rep.deltas[-1] < tail0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"C7 PASS: bound chain holds k<=10, tail(8)={tail0!r} < "
          f"0.05*a={0.05 * rep.limit_estimate!r}, last delta={rep.deltas[-1]!r}, "
          f"{elapsed:.1f}s")


def test_criterion_08_weakstar_cell_counts(cantor13, cantor_minimizers):
    worst = 0.0
    for k in range(6, 10):
        N = 2 ** k
        rep = rf.empirical_cell_measure(
            cantor13, cantor_minimizers[N].config, depth=2)
        assert all(abs(t - 0.25) < 1e-12 for t in rep.target.values())
        assert rep.max_abs_dev <= 0.02, (N, rep.max_abs_dev)
        worst = max(worst, rep.max_abs_dev)
    print(f"C8 PASS: N=2^6..2^9 depth-2 cell measures, worst |dev|={worst!r}")


def test_criterion_09_separation_exponent(cantor_minimizers):
    stages = [cantor_minimizers[2 ** k] for k in range(2, 9)]   # N = 4..256
    samples = rf.separation_samples(stages)
    assert [n for n, _ in samples] == [2 ** k for k in range(2, 9)]
    slope, _, _ = rf.scaling_exponent_fit(samples)
    target = -1.0 / D_CANTOR
    assert abs(slope - target) < 0.15
    print(f"C9 PASS: slope={slope!r} vs -1/d={target!r}, "
          f"|diff|={abs(slope - target):.3g}")


def test_criterion_10_decomposition_identity(cantor13):
    rng = np.random.default_rng(515)
    s_sigma = cantor13.sigma
    for trial in range(1000):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        s = float(rng.uniform(1.0, 4.0))
        # generic split: identity must hold to 1e-10 relative
        a = rng.random((n1, 2))
        b = rng.random((n2, 2)) + np.array([2.0, 0.0])
        whole = rf.riesz_energy(np.vstack([a, b]), s)
        parts = (rf.riesz_energy(a, s) + rf.riesz_energy(b, s)
                 + rf.cross_energy(a, b, s))
        assert abs(whole - parts) <= 1e-10 * max(abs(whole), 1.0), trial
        # parts in distinct first-level cells: cross bounded via sigma
        left = rng.random(n1) / 3.0
        right = 1.0 - rng.random(n2) / 3.0
        cross = rf.cross_energy(left, right, s)
        assert cross <= 2.0 * n1 * n2 * s_sigma ** (-s) * (1.0 + 1e-12), trial
    print("C10 PASS: 1000 splits, identity within 1e-10 relative, "
          "cell-separated cross within 2*n1*n2*sigma^-s")


def test_criterion_11_thread_count_reproducibility(tmp_path):
    limit = {"fractal": "cantor(1/3)", "s": 3.0, "experiment": "geometric-limit",
             "n0": 2, "k_max": 5, "seed": 0, "restarts": 4}
    # N K = 256 * 512 reaches minimize._FAN_OUT_MIN, so the restarts of this
    # search run on one forked worker per usable core
    search = {"fractal": "cantor(1/3)", "s": 3.0, "experiment": "minimize",
              "n": 256, "seed": 0, "restarts": 3}

    # the thread pools numpy's BLAS and any OpenMP code could size from the
    # environment; the package itself reads no environment variable
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def run_with(cfg, out, threads=None, one_cpu=False):
        cfg_path = tmp_path / f"{out}.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ)
        if threads is not None:
            env.update({var: str(threads) for var in thread_vars})
        pin = None
        # without sched_setaffinity the library sees one usable core anyway
        if one_cpu and hasattr(os, "sched_setaffinity"):
            def pin():
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        proc = subprocess.run(
            [sys.executable, "-m", "rieszfrac", "run",
             "--config", str(cfg_path), "--out", str(tmp_path / out)],
            capture_output=True, text=True, env=env, timeout=300, preexec_fn=pin)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        files = {name: (tmp_path / out / name).read_bytes()
                 for name in sorted(os.listdir(tmp_path / out))}
        assert files
        return dict(files, stdout=proc.stdout)

    files_1 = run_with(limit, "t1", threads=1)
    files_8 = run_with(limit, "t8", threads=8)
    files_1b = run_with(limit, "t1b", threads=1)
    assert files_1.keys() == files_8.keys() == files_1b.keys()
    for name in files_1:
        assert files_1[name] == files_8[name], f"{name} differs across threads"
        assert files_1[name] == files_1b[name], f"{name} differs across reruns"
    one_cpu = run_with(search, "one_cpu", one_cpu=True)
    all_cpus = run_with(search, "all_cpus")
    assert one_cpu.keys() == all_cpus.keys()
    for name in one_cpu:
        assert one_cpu[name] == all_cpus[name], f"{name} differs across CPU affinity"
    print(f"C11 PASS: {len(files_1)} outputs byte-identical for "
          f"BLAS/OpenMP threads 1 vs 8 and across reruns, {len(one_cpu)} for one CPU "
          "vs all CPUs")
