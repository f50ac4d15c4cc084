"""Shared test utilities: brute-force oracles and random mass generators.

The mass oracles here compute over dense vectors indexed by subset bitmask
and never touch the library's sparse paths, so they stay independent of
what they check. The dataset CSV oracle formats each row with Python's '%'.
"""

from __future__ import annotations

import csv
from types import SimpleNamespace

import numpy as np

from evifuse import Dataset, Frame, MassFunction
from evifuse.experiment import TABLE


def fit_decide(name, ds, settings, calib, rows):
    """Method ``name`` fitted on the calibration rows, as the protocol does
    once per trial (never for a row-wise method), then deciding ``rows`` in
    one call: (decided, conflict_mass)."""
    fit, decide, _ = TABLE[name]
    model = None if fit is None else fit(ds, settings, calib)
    return decide(ds, settings, model, rows)


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


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """save_dataset's oracle: one '%' format per row, names quoted as
    csv.writer quotes a field and each score as '%.9f' writes it.

        PYTHONPATH=src python tests/helpers.py <scenario.json> <out.csv>

    writes the scenario's simulated dataset."""
    ds = dataset.checked()
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    names = [line(["", c])[1:-1] for c in ds.frame.labels]
    sources = [line(["", s])[1:-1] for s in ds.source_ids]
    row = "%d,%s,%s,%s," + ",".join(["%.9f"] * ds.frame.n) + "\n"
    header = ["sample_id", "true_class", "source_id", "label"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line(header + [f"score_{c}" for c in ds.frame.labels]))
        columns = (ds.sample_ids, ds.truth, ds.labels, ds.scores)
        for i, t, labels, scores in zip(*(a.tolist() for a in columns)):
            for s, c, x in zip(sources, labels, scores):
                fh.write(row % (i, names[t], s, names[c], *x))


if __name__ == "__main__":
    import sys

    from evifuse import load_config, simulate

    write_dataset_csv(simulate(load_config(sys.argv[1])), sys.argv[2])
