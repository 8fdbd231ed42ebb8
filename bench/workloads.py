"""The benchmark's workloads: each is a list of `rieszfrac run` experiment configs.

A config list is a pure function of (workload, seed, size).  The seed picks
each task's search seed and, where the cost of a task does not depend on it,
a contraction ratio jittered by at most JITTER relative to the nominal one.
Task sizes never depend on the seed, so neither does the length of a run.
The jitter is kept small because normalized energies move with the ratio
(about 6e-3 per 1e-3 relative change of the Cantor ratio) and the reported
energy must repeat closely across seeds.  Why each workload exists is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import random

WORKLOADS = ("search", "gcurve", "lift", "certify")

JITTER = 1e-5

# ratios 1/2 and 1/4 on [0, 1]; images [0, 1/2] and [3/4, 1]
TWO_SCALE = {
    "label": "two-scale",
    "ambient_dim": 1,
    "diameter": 1.0,
    "sigma": 0.25,
    "maps": [
        {"ratio": 0.5, "translation": [0.0]},
        {"ratio": 0.25, "translation": [0.75]},
    ],
}

# Sizes per workload.  "full" is what the benchmark measures; "tiny" keeps
# every task type and code path cheap enough for the benchmark's own tests.
SIZES = {
    "full": {
        "search": {"cantor_n": (256, 1024), "dust_n": 256, "two_scale_n": 128},
        "gcurve": {"n_max": 96},
        "lift": {"cantor_k": 12, "dust_k": 5},
        "certify": {"cantor_n_max": 10, "two_scale_n_max": 5, "two_scale_depth": 5,
                    "pack_n": 5, "pack_depth": 4},
    },
    "tiny": {
        "search": {"cantor_n": (16, 64), "dust_n": 16, "two_scale_n": 16},
        "gcurve": {"n_max": 12},
        "lift": {"cantor_k": 4, "dust_k": 2},
        "certify": {"cantor_n_max": 4, "two_scale_n_max": 3, "two_scale_depth": 3,
                    "pack_n": 3, "pack_depth": 2},
    },
}


def _jittered(rng: random.Random, nominal: float) -> str:
    return repr(nominal * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def configs(workload: str, seed: int, size: str = "full") -> list:
    """The experiment documents one pass of `workload` runs, in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    z = SIZES[size][workload]

    def task_seed():
        return rng.randrange(1 << 31)

    if workload == "search":
        out = [
            {"experiment": "minimize", "fractal": "cantor(1/3)", "s": 3, "n": n,
             "restarts": 3, "seed": task_seed()}
            for n in z["cantor_n"]
        ]
        out.append({"experiment": "minimize", "fractal": "cantor-dust-2d(1/4)", "s": 4,
                    "n": z["dust_n"], "restarts": 3, "seed": task_seed()})
        out.append({"experiment": "minimize", "fractal": TWO_SCALE, "s": 3,
                    "n": z["two_scale_n"], "restarts": 3, "seed": task_seed()})
        return out
    if workload == "gcurve":
        return [{"experiment": "g-curve", "fractal": "cantor(1/3)", "s": 3, "bins": 16,
                 "n_min": 2, "n_max": z["n_max"], "strategy": "lift-seeded",
                 "seed": task_seed()}]
    if workload == "lift":
        return [
            {"experiment": "geometric-limit", "fractal": f"cantor({_jittered(rng, 1 / 3)})",
             "s": 3, "n0": 2, "k_max": z["cantor_k"], "polish": False, "seed": task_seed()},
            {"experiment": "geometric-limit",
             "fractal": f"cantor-dust-2d({_jittered(rng, 0.25)})",
             "s": 4, "n0": 4, "k_max": z["dust_k"], "polish": False, "seed": task_seed()},
        ]
    cantor = f"cantor({_jittered(rng, 1 / 3)})"
    return [
        {"experiment": "monotonicity", "fractal": cantor, "s": 3, "n_min": 2,
         "n_max": z["cantor_n_max"], "strategy": "exhaustive", "seed": task_seed()},
        {"experiment": "monotonicity", "fractal": TWO_SCALE, "s": 3, "n_min": 2,
         "n_max": z["two_scale_n_max"], "depth": z["two_scale_depth"],
         "strategy": "exhaustive", "seed": task_seed()},
        {"experiment": "packing", "fractal": cantor, "s": 3, "n": z["pack_n"],
         "depth": z["pack_depth"], "seed": task_seed()},
    ]
