"""Regenerate the reference outputs that the benchmark checks against.

    python3 bench/make_reference.py [--workload NAME ...]

For every scenario seed it records a digest of the workload's dataset and
the protocol report computed in-process. For csv_pipeline the digest is of
the dataset CSV and the report is computed from that CSV as loaded, which
is what ``evifuse eval`` must reproduce. Run it only on a clean, committed
tree: the commit is stored with the outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import (
    REFERENCE_DIR,
    ROOT,
    SCENARIO_SEEDS,
    WORK_DIR,
    WORKLOADS,
    cap_blas_threads,
    dataset_digest,
    file_digest,
    scenario,
    use_checkout_src,
)


def git_commit() -> str:
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    if dirty.strip():
        sys.exit("error: src/ has uncommitted changes; commit before regenerating")
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def reference_entry(workload: str, seed: int, tmp: Path) -> dict:
    import evifuse as ev
    from evifuse.experiment import METHODS
    from evifuse.io import report_to_dict

    config = scenario(workload, seed)
    ds = ev.simulate(config)
    if workload != "csv_pipeline":
        report = ev.run_experiment(config, METHODS)
        return {"dataset_sha256": dataset_digest(ds), "report": report_to_dict(report)}
    csv_path = tmp / "data.csv"
    ev.save_dataset(ds, str(csv_path))
    report = ev.evaluate_dataset(
        ev.load_dataset(str(csv_path)),
        METHODS,
        settings=config.fusion,
        n_trials=config.n_trials,
        seed=config.seed,
    )
    return {"dataset_sha256": file_digest(csv_path), "report": report_to_dict(report)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    cap_blas_threads()
    use_checkout_src()
    commit = git_commit()
    REFERENCE_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            entries = {}
            for seed in range(SCENARIO_SEEDS):
                entries[str(seed)] = reference_entry(workload, seed, Path(tmp))
                print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        out = {"commit": commit, "scenario_seeds": SCENARIO_SEEDS, "seeds": entries}
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(out, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
