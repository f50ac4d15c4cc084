"""SHA-256 of each seeded report that a refactor must keep byte for byte.

Prints one ``workload seed variant sha256`` line per ``save_report`` file,
192 in all: ``run_experiment(scenario(workload, seed), METHODS)`` for both
benchmark workloads at seeds 0-31, each in three variants:

* ``default``: the scenario as it is;
* ``as_printed``: with ``appriou_as_printed=True``;
* ``crisp``: with every source at temperature 0 (one-hot scores).

The scenarios come from ``bench/workloads.py``, read only. evifuse comes
from ``PYTHONPATH``, so the same script checks any checkout's sources:

    PYTHONPATH=src python tests/report_digests.py > after.txt
    PYTHONPATH=../parent/src python tests/report_digests.py > before.txt
    cmp before.txt after.txt

Pytest does not collect this file, since its name does not start with test_.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import evifuse as ev  # noqa: E402
from workloads import SCENARIO_SEEDS, WORKLOADS, scenario  # noqa: E402

VARIANTS = {
    "default": lambda cfg: cfg,
    "as_printed": lambda cfg: replace(
        cfg, fusion=replace(cfg.fusion, appriou_as_printed=True)
    ),
    "crisp": lambda cfg: replace(
        cfg, sources=tuple(replace(s, temperature=0.0) for s in cfg.sources)
    ),
}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for workload in WORKLOADS:
            for seed in range(SCENARIO_SEEDS):
                for variant, change in VARIANTS.items():
                    config = change(scenario(workload, seed))
                    ev.save_report(ev.run_experiment(config, ev.METHODS), str(path))
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(workload, seed, variant, digest, flush=True)


if __name__ == "__main__":
    main()
