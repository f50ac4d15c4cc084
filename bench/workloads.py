"""Benchmark workloads: scenarios, the package under test, and shared helpers.

Nothing here imports evifuse at module level, so a caller can time the
import itself. ``use_checkout_src`` points ``sys.path`` at the checkout's
``src`` directory; the package is never taken from anywhere else.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".bench_work"

# The scenario seed is the benchmark seed modulo this count; a reference
# report exists for each scenario seed (see make_reference.py).
SCENARIO_SEEDS = 32

WORKLOADS = ("paper_default", "csv_pipeline")
IN_PROCESS = ("paper_default",)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count, for this process and its children.

    Must run before numpy is imported.
    """
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def use_checkout_src() -> None:
    """Import evifuse from the checkout's src only; exit non-zero without it."""
    if not (SRC / "evifuse" / "__init__.py").is_file():
        sys.exit(f"error: evifuse sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for CLI subprocesses: the checkout's src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def scenario_seed(seed: int) -> int:
    return seed % SCENARIO_SEEDS


def scenario(workload: str, seed: int):
    """The workload's SimConfig for a benchmark seed."""
    import evifuse as ev

    s = scenario_seed(seed)
    if workload == "paper_default":
        # The ROADMAP's reference run: 2400 samples, 4 sources, 6 classes,
        # 10 trials.
        return ev.default_config(seed=s)
    if workload == "csv_pipeline":
        # Few classes and sources but many samples: the calibration split
        # holds 4000 prototypes, and the dataset CSV has 36k rows.
        reliabilities = ((0.80, 0.75, 0.70), (0.70, 0.65, 0.60), (0.60, 0.55, 0.50))
        return ev.SimConfig(
            classes=("a", "b", "c"),
            priors=(0.5, 0.3, 0.2),
            sources=tuple(
                ev.SourceProfile(id=f"s{j + 1}", reliability=r, temperature=0.35)
                for j, r in enumerate(reliabilities)
            ),
            n_samples=12000,
            n_trials=2,
            seed=s,
        )
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def dataset_digest(ds) -> str:
    """SHA-256 over a dataset's arrays, in a fixed order and dtype."""
    import numpy as np

    h = hashlib.sha256()
    h.update("\x1f".join(ds.frame.labels + ds.source_ids).encode())
    for arr, dtype in (
        (ds.sample_ids, np.int64),
        (ds.truth, np.int64),
        (ds.labels, np.int64),
        (ds.scores, np.float64),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
