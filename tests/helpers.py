"""Shared test utilities: brute-force oracles and random mass generators.

The oracles here compute over dense vectors indexed by subset bitmask and
never touch the library's sparse paths, so they stay independent of what
they check.
"""

from __future__ import annotations

import numpy as np

from evifuse import Frame, MassFunction


def dense_from_mass(m: MassFunction) -> np.ndarray:
    """Dense mass vector indexed by subset bitmask."""
    vec = np.zeros(1 << m.frame.n)
    for fs, value in m.items():
        vec[fs.bits] = value
    return vec


def brute_combine(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Double loop over every pair of subsets, intersecting bitmasks."""
    size = v1.shape[0]
    out = np.zeros(size)
    for b1 in range(size):
        if v1[b1] == 0.0:
            continue
        for b2 in range(size):
            if v2[b2] == 0.0:
                continue
            out[b1 & b2] += v1[b1] * v2[b2]
    return out


def brute_belief(vec: np.ndarray, a: int) -> float:
    return sum(
        vec[b] for b in range(vec.shape[0]) if b != 0 and b | a == a
    )


def brute_plausibility(vec: np.ndarray, a: int) -> float:
    return sum(vec[b] for b in range(vec.shape[0]) if b & a)


def brute_pignistic(vec: np.ndarray, n: int) -> np.ndarray:
    scale = 1.0 - vec[0]
    out = np.zeros(n)
    for b in range(1, vec.shape[0]):
        if vec[b] == 0.0:
            continue
        members = [k for k in range(n) if b >> k & 1]
        for k in members:
            out[k] += vec[b] / len(members)
    return out / scale


def random_mass(
    rng: np.random.Generator,
    frame: Frame,
    max_focals: int | None = None,
    allow_empty: bool = True,
) -> MassFunction:
    """Random sparse mass: a few focal subsets with Dirichlet-ish weights.

    Weights are at least 0.05 before normalization, so no focal set is
    negligible.
    """
    size = 1 << frame.n
    lo = 0 if allow_empty else 1
    pool = np.arange(lo, size)
    count = int(rng.integers(1, (max_focals or min(6, size - lo)) + 1))
    count = min(count, pool.shape[0])
    chosen = rng.choice(pool, size=count, replace=False)
    weights = rng.uniform(0.05, 1.0, size=count)
    weights /= weights.sum()
    subsets = list(frame.subsets())
    return MassFunction(frame, [(subsets[b], w) for b, w in zip(chosen, weights)])
