"""Readers and writers for dataset CSV, scenario JSON, and report JSON.

All writers are canonical: saving what was just loaded reproduces the file
byte for byte. Validation failures raise ValidationError with the
offending line where one exists.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, fields
from typing import Any

import numpy as np

from .experiment import ExperimentReport, MethodResult
from .frame import make_frame
from .simulate import Dataset, FusionSettings, SimConfig, SourceProfile

_SCORE_FORMAT = "{:.9f}"


class ValidationError(ValueError):
    """A file or configuration failed validation."""


# ---------------------------------------------------------------------------
# dataset CSV: one row per (sample, source)


def save_dataset(dataset: Dataset, path: str) -> None:
    labels = dataset.frame.labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["sample_id", "true_class", "source_id", "label"]
            + [f"score_{c}" for c in labels]
        )
        for i in range(dataset.n_samples):
            truth = labels[dataset.truth[i]]
            for j, sid in enumerate(dataset.source_ids):
                writer.writerow(
                    [
                        int(dataset.sample_ids[i]),
                        truth,
                        sid,
                        labels[dataset.labels[i, j]],
                        *(_SCORE_FORMAT.format(s) for s in dataset.scores[i, j]),
                    ]
                )


def load_dataset(path: str, truth_col: str = "true_class") -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = rows[0]
    prefix = ["sample_id", truth_col, "source_id", "label"]
    if header[: len(prefix)] != prefix:
        raise ValidationError(
            f"{path}: line 1: header must start with {','.join(prefix)}"
        )
    score_cols = header[len(prefix) :]
    if not score_cols or any(not c.startswith("score_") for c in score_cols):
        raise ValidationError(f"{path}: line 1: expected score_<class> columns")
    class_names = [c.removeprefix("score_") for c in score_cols]
    try:
        frame = make_frame(class_names)
    except ValueError as exc:
        raise ValidationError(f"{path}: line 1: {exc}") from None
    class_index = {name: k for k, name in enumerate(class_names)}

    if len(rows) == 1:
        raise ValidationError(f"{path}: no data rows")

    # keyed by the parsed id, so "0" and "00" name the same sample
    samples: dict[int, dict[str, Any]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        sid_raw, truth_name, source_id, label_name = row[: len(prefix)]
        try:
            sample_id = int(sid_raw)
        except ValueError:
            raise ValidationError(
                f"{path}: line {lineno}: sample_id {sid_raw!r} is not an integer"
            ) from None
        for name in (truth_name, label_name):
            if name not in class_index:
                raise ValidationError(
                    f"{path}: line {lineno}: unknown class name {name!r}"
                )
        scores = []
        for col, text in zip(score_cols, row[len(prefix) :]):
            try:
                value = float(text)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: {col} value {text!r} is not a number"
                ) from None
            if not np.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{path}: line {lineno}: {col} value {text} outside [0, 1]"
                )
            scores.append(value)

        entry = samples.setdefault(sample_id, {"truth": truth_name, "sources": {}})
        if entry["truth"] != truth_name:
            raise ValidationError(
                f"{path}: line {lineno}: sample {sample_id} has inconsistent true class"
            )
        if source_id in entry["sources"]:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate source {source_id!r} "
                f"for sample {sample_id}"
            )
        entry["sources"][source_id] = (label_name, scores)

    source_ids = tuple(next(iter(samples.values()))["sources"].keys())
    for key, entry in samples.items():
        if tuple(entry["sources"].keys()) != source_ids:
            raise ValidationError(
                f"{path}: sample {key} does not cover sources {list(source_ids)}"
            )

    n, m = len(samples), len(source_ids)
    sample_ids = np.empty(n, dtype=np.int64)
    truth = np.empty(n, dtype=np.int64)
    labels = np.empty((n, m), dtype=np.int64)
    scores = np.empty((n, m, frame.n))
    for i, (key, entry) in enumerate(samples.items()):
        sample_ids[i] = key
        truth[i] = class_index[entry["truth"]]
        for j, sid in enumerate(source_ids):
            label_name, score_row = entry["sources"][sid]
            labels[i, j] = class_index[label_name]
            scores[i, j] = score_row
    return Dataset(frame, source_ids, sample_ids, truth, labels, scores)


# ---------------------------------------------------------------------------
# scenario config JSON


# Method parameters in the scenario JSON: (block, key, FusionSettings field).
# Both directions read this table; absent keys take FusionSettings' defaults.
_FUSION_KEYS = (
    ("vote", "c", "vote_c"),
    ("vote", "b", "vote_b"),
    ("possibility", "operator", "possibility_operator"),
    ("denoeux", "k", "denoeux_k"),
    ("denoeux", "alpha", "denoeux_alpha"),
    ("appriou", "as_printed", "appriou_as_printed"),
)
# Top-level keys: SimConfig's fields, with "fusion" spread over the blocks.
_KNOWN_KEYS = {f.name for f in fields(SimConfig)} - {"fusion"} | {
    block for block, _, _ in _FUSION_KEYS
}
_REQUIRED_KEYS = tuple(
    f.name
    for f in fields(SimConfig)
    if f.default is MISSING and f.default_factory is MISSING
)


def config_to_dict(config: SimConfig) -> dict[str, Any]:
    data: dict[str, Any] = {
        "classes": list(config.classes),
        "priors": list(config.priors),
        "sources": [
            {
                "id": s.id,
                "reliability": list(s.reliability),
                "temperature": s.temperature,
            }
            for s in config.sources
        ],
        "n_samples": config.n_samples,
        "n_trials": config.n_trials,
        "seed": config.seed,
    }
    for block, key, name in _FUSION_KEYS:
        data.setdefault(block, {})[key] = getattr(config.fusion, name)
    return data


def _fusion_from_dict(data: dict[str, Any]) -> FusionSettings:
    """FusionSettings from the method blocks; absent keys keep the defaults,
    and each value is converted to its default's type."""
    defaults = FusionSettings()
    values: dict[str, Any] = {}
    for block in dict.fromkeys(b for b, _, _ in _FUSION_KEYS):
        given = data.get(block, {})
        if not isinstance(given, dict):
            raise ValidationError(f"config block {block!r} must be a JSON object")
        names = {key: name for b, key, name in _FUSION_KEYS if b == block}
        unknown = set(given) - set(names)
        if unknown:
            raise ValidationError(
                f"unknown keys in config block {block!r}: {sorted(unknown)}"
            )
        for key, value in given.items():
            kind = type(getattr(defaults, names[key]))
            if kind is bool and not isinstance(value, bool):
                raise ValidationError(f"config key {block}.{key} must be a boolean")
            values[names[key]] = kind(value)
    return FusionSettings(**values)


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ValidationError(f"config key {key!r} is required")
    try:
        sources = tuple(
            SourceProfile(
                id=str(s["id"]),
                reliability=tuple(s["reliability"]),
                temperature=float(s.get("temperature", 0.0)),
            )
            for s in data["sources"]
        )
        # n_trials and seed may be left out: SimConfig's defaults apply
        optional = {key: int(data[key]) for key in ("n_trials", "seed") if key in data}
        return SimConfig(
            classes=tuple(data["classes"]),
            priors=tuple(data["priors"]),
            sources=sources,
            n_samples=int(data["n_samples"]),
            fusion=_fusion_from_dict(data),
            **optional,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config: {exc}") from exc


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(config: SimConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report JSON


def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    return {
        "seed": report.seed,
        "n_trials": report.n_trials,
        "methods": {
            name: {
                "accuracy": res.accuracy,
                "per_class": dict(res.per_class),
                "conflict_rate": res.conflict_rate,
                "mean_conflict_mass": res.mean_conflict_mass,
            }
            for name, res in report.methods.items()
        },
        "source_accuracy": dict(report.source_accuracy),
    }


def report_from_dict(data: dict[str, Any]) -> ExperimentReport:
    try:
        methods = {
            name: MethodResult(
                accuracy=float(entry["accuracy"]),
                per_class={k: float(v) for k, v in entry["per_class"].items()},
                conflict_rate=float(entry["conflict_rate"]),
                mean_conflict_mass=float(entry["mean_conflict_mass"]),
            )
            for name, entry in data["methods"].items()
        }
        return ExperimentReport(
            seed=int(data["seed"]),
            n_trials=int(data["n_trials"]),
            methods=methods,
            source_accuracy={
                k: float(v) for k, v in data.get("source_accuracy", {}).items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"invalid report: {exc}") from exc


def save_report(report: ExperimentReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> ExperimentReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return report_from_dict(data)
