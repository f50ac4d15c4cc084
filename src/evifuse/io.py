"""Readers and writers for dataset CSV, scenario JSON, and report JSON.

All writers are canonical: saving what was just loaded reproduces the file
byte for byte. Validation failures raise ValidationError with the
offending line where one exists.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from dataclasses import MISSING, asdict, fields, is_dataclass
from types import SimpleNamespace
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .experiment import ExperimentReport
from .frame import make_frame
from .simulate import Dataset, FusionSettings, SimConfig, SourceProfile


class ValidationError(ValueError):
    """A file or configuration failed validation."""


# ---------------------------------------------------------------------------
# dataset CSV: one row per (sample, source)


def save_dataset(dataset: Dataset, path: str) -> None:
    labels = dataset.frame.labels
    # writerow returns what the file's write() returns, here the line itself;
    # a name is quoted as the second of two fields, as in a data row
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    names = np.array([line(["", c])[1:-1] for c in labels], dtype=object)
    n, m, k = dataset.n_samples, dataset.m_sources, dataset.frame.n
    row = "%d,%s,%s,%s," + ",".join(["%.9f"] * k) + "\n"
    rows = zip(
        np.repeat(dataset.sample_ids, m).tolist(),
        names[np.repeat(dataset.truth, m)].tolist(),
        [line(["", s])[1:-1] for s in dataset.source_ids] * n,
        names[dataset.labels.ravel()].tolist(),
        dataset.scores.reshape(n * m, k).tolist(),
    )
    header = ["sample_id", "true_class", "source_id", "label"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line(header + [f"score_{c}" for c in labels]))
        fh.write("".join(row % (i, t, s, c, *x) for i, t, s, c, x in rows))


def _parse(cells: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Strings as ``dtype`` with int()/float() semantics, and per string 0 if
    it parsed, 1 if it is not a number, 2 if it does not fit (value 0)."""
    bad = np.zeros(cells.shape, np.int8)
    try:
        return cells.astype(dtype), bad
    except (ValueError, OverflowError):
        for i, text in np.ndenumerate(cells):
            try:
                np.array(text, dtype=object).astype(dtype)
            except (ValueError, OverflowError) as exc:
                bad[i] = 1 + isinstance(exc, OverflowError)
        return np.where(bad > 0, 0, cells).astype(dtype), bad


def load_dataset(path: str, truth_col: str = "true_class") -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
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
    # A row with a wrong field count is parsed as a row of zeros; its error
    # is the first check of its row.
    width, zeros = len(header), ["0"] * len(header)
    cells = np.array([r if len(r) == width else zeros for r in rows[1:]], dtype=object)
    ids, bad_id = _parse(cells[:, 0], np.int64)
    # class indices, -1 for an unknown name
    codes = np.frompyfunc(class_index.get, 2, 1)(cells[:, [1, 3]], -1)
    truth, label = codes.astype(np.int64).T
    index: dict[str, int] = {}
    source = np.array([index.setdefault(s, len(index)) for s in cells[:, 2]], np.int64)
    scores, unparsed = _parse(cells[:, len(prefix) :], np.float64)
    # each row's sample as the row it first appears on; keyed by the parsed
    # id, so "0" and "00" name the same sample
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    first = first[inverse]
    key = first * len(index) + source
    _, pair_first, pair_inverse = np.unique(key, return_index=True, return_inverse=True)
    duplicate = pair_first[pair_inverse] != np.arange(len(cells))
    checks = [  # (rows that fail, message), in the order each row is checked
        ([len(r) != width for r in rows[1:]], f"expected {width} fields, got {{n}}"),
        (bad_id == 1, "sample_id {0!r} is not an integer"),
        (bad_id == 2, "sample_id {0!r} does not fit in 64 bits"),
        (truth < 0, "unknown class name {1!r}"),
        (label < 0, "unknown class name {3!r}"),
        *(
            (failed, message % (j, j))
            for j, text, x in zip(range(len(prefix), width), unparsed.T, scores.T)
            for failed, message in (
                (text > 0, "{h[%d]} value {%d!r} is not a number"),
                (~((x >= 0.0) & (x <= 1.0)), "{h[%d]} value {%d} outside [0, 1]"),
            )
        ),
        (truth != truth[first], "sample {id} has inconsistent true class"),
        (duplicate, "duplicate source {2!r} for sample {id}"),
    ]
    failed = np.array([rows_failed for rows_failed, _ in checks], dtype=bool)
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        r, fields = bad[0], rows[bad[0] + 1]
        problem = checks[np.argmax(failed[:, r])][1]
        problem = problem.format(*fields, h=header, id=ids[r], n=len(fields))
        raise ValidationError(f"{path}: line {r + 2}: {problem}")

    # Samples in first-appearance order, each one's rows in file order. Those
    # before the first sample with a wrong row count form a grid of row indices.
    order = np.argsort(first, kind="stable")
    firsts, counts = np.unique(first, return_counts=True)
    n, m = len(counts), counts[0]
    k = np.append(np.flatnonzero(counts != m), n)[0]
    grid = order[: k * m].reshape(k, m)
    uncovered = np.append(np.flatnonzero((source[grid] != source[grid[0]]).any(1)), k)
    source_ids = tuple(cells[grid[0], 2])
    if uncovered[0] < n:
        raise ValidationError(
            f"{path}: sample {ids[firsts[uncovered[0]]]} "
            f"does not cover sources {list(source_ids)}"
        )
    return Dataset(
        frame, source_ids, ids[firsts], truth[firsts], label[grid], scores[grid]
    )


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
_SOURCE_KEYS = {f.name for f in fields(SourceProfile)}
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


_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object",
}


def _typed(
    value: Any, kind: type | list[type], key: str, source: str = "config"
) -> Any:
    """A scenario (or report) JSON value as ``kind``, never truncated or
    coerced: a boolean is not a number, and an int key takes only integral
    numbers. ``[kind]`` takes a JSON array of such values and gives a tuple."""
    if isinstance(kind, list):
        items = _typed(value, list, key, source)
        return tuple(_typed(v, kind[0], key, source) for v in items)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) is not (kind is bool):
        raise ValidationError(f"{source} key {key} must be {_TYPE_NAMES[kind]}")
    return kind(value)


def _reject_unknown(given: dict[str, Any], known: Iterable[str], where: str) -> None:
    unknown = set(given) - set(known)
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _fusion_from_dict(data: dict[str, Any]) -> FusionSettings:
    """FusionSettings from the method blocks; absent keys keep the defaults,
    and each value must have its default's type."""
    defaults = FusionSettings()
    values: dict[str, Any] = {}
    for block in dict.fromkeys(b for b, _, _ in _FUSION_KEYS):
        given = data.get(block, {})
        if not isinstance(given, dict):
            raise ValidationError(f"config block {block!r} must be a JSON object")
        names = {key: name for b, key, name in _FUSION_KEYS if b == block}
        _reject_unknown(given, names, f"config block {block!r}")
        for key, value in given.items():
            kind = type(getattr(defaults, names[key]))
            values[names[key]] = _typed(value, kind, f"{block}.{key}")
    return FusionSettings(**values)


def _source_from_dict(s: dict[str, Any]) -> SourceProfile:
    _reject_unknown(s, _SOURCE_KEYS, "a config sources entry")
    return SourceProfile(
        id=_typed(s["id"], str, "sources.id"),
        reliability=_typed(s["reliability"], [float], "reliability"),
        temperature=_typed(s.get("temperature", 0.0), float, "temperature"),
    )


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(data, _KNOWN_KEYS, "config")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ValidationError(f"config key {key!r} is required")
    try:
        entries = _typed(data["sources"], [dict], "sources")
        sources = tuple(map(_source_from_dict, entries))
        return SimConfig(
            classes=_typed(data["classes"], [str], "classes"),
            priors=_typed(data["priors"], [float], "priors"),
            sources=sources,
            n_samples=_typed(data["n_samples"], int, "n_samples"),
            # n_trials and seed may be left out: SimConfig's defaults apply
            n_trials=_typed(data.get("n_trials", SimConfig.n_trials), int, "n_trials"),
            seed=_typed(data.get("seed", SimConfig.seed), int, "seed"),
            fusion=_fusion_from_dict(data),
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


# The report JSON is the ExperimentReport and MethodResult fields, as
# dataclasses.asdict writes them.
def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    return asdict(report)


def _from_report(value: Any, kind: Any, key: str) -> Any:
    """A report JSON value as ``kind``: a dataclass from an object with all
    of its fields, a dict[str, X] from an object of X values, a scalar
    checked by _typed, so never coerced. ``key`` is the value's dotted path."""
    if not (is_dataclass(kind) or get_origin(kind) is dict):
        return _typed(value, kind, key, "report")
    value = _typed(value, dict, key, "report")
    if get_origin(kind) is dict:
        item = get_args(kind)[1]
        return {k: _from_report(v, item, f"{key}.{k}") for k, v in value.items()}
    hints = get_type_hints(kind)
    paths = {f.name: f"{key}.{f.name}".lstrip(".") for f in fields(kind)}
    return kind(**{k: _from_report(value[k], hints[k], paths[k]) for k in paths})


def report_from_dict(data: dict[str, Any]) -> ExperimentReport:
    if not isinstance(data, dict):
        raise ValidationError("report must be a JSON object")
    try:
        return _from_report(data, ExperimentReport, "")
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
