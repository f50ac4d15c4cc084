"""Output checks: protocol reports against the stored reference.

Accuracy, per-class accuracy and conflict rate must match the reference
exactly. ``mean_conflict_mass`` and the per-source accuracies may differ by
``SUM_TOL``, because a batch kernel may sum in another order.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import REFERENCE_DIR, scenario_seed

SUM_TOL = 1e-9


def load_reference(workload: str, seed: int) -> tuple[str, dict]:
    """The reference commit and the entry for the seed's scenario.

    Exits non-zero when there is none.
    """
    path = REFERENCE_DIR / f"{workload}.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return data["commit"], data["seeds"][str(scenario_seed(seed))]
    except (OSError, KeyError, ValueError) as exc:
        raise SystemExit(f"error: no reference for {workload} seed {seed}: {exc}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SUM_TOL


def report_mismatches(got: dict, ref: dict) -> list[str]:
    """Differences between a report dict and the reference report dict."""
    out = []
    for key in ("seed", "n_trials"):
        if got.get(key) != ref[key]:
            out.append(f"{key}: {got.get(key)!r} != {ref[key]!r}")
    if set(got.get("methods", {})) != set(ref["methods"]):
        return out + [f"methods: {sorted(got.get('methods', {}))}"]
    for name, want in ref["methods"].items():
        have = got["methods"][name]
        for key in ("accuracy", "per_class", "conflict_rate"):
            if have[key] != want[key]:
                out.append(f"{name}.{key}: {have[key]!r} != {want[key]!r}")
        if not _close(have["mean_conflict_mass"], want["mean_conflict_mass"]):
            out.append(
                f"{name}.mean_conflict_mass: {have['mean_conflict_mass']!r}"
                f" != {want['mean_conflict_mass']!r}"
            )
    src_got, src_ref = got.get("source_accuracy", {}), ref["source_accuracy"]
    if set(src_got) != set(src_ref) or not all(
        _close(src_got[k], src_ref[k]) for k in src_ref
    ):
        out.append(f"source_accuracy: {src_got!r} != {src_ref!r}")
    return out


def report_file_mismatches(path: Path, ref: dict) -> list[str]:
    try:
        got = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable report: {exc}"]
    return report_mismatches(got, ref)
