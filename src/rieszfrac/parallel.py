"""Deterministic per-task randomness.

Multi-start searches run their restarts in order, one after another, in
one thread.  Every restart draws randomness from its own spawned
generator, a pure function of (seed, index).
"""

from __future__ import annotations

import numpy as np


def spawned_rngs(seed: int, count: int):
    """Independent generators; child i is a pure function of (seed, i)."""
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.default_rng(child) for child in children]
