"""Time ``import evifuse`` plus ``simulate`` in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Prints one JSON line with the seconds taken and the dataset's digest.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import cap_blas_threads, dataset_digest, scenario, use_checkout_src


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    cap_blas_threads()
    use_checkout_src()
    start = time.perf_counter()
    import evifuse

    ds = evifuse.simulate(scenario(workload, seed))
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "digest": dataset_digest(ds)}))


if __name__ == "__main__":
    main()
