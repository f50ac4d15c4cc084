"""Readers and writers for dataset CSV, scenario JSON, and report JSON.

All writers are canonical: saving what was just loaded reproduces the file
byte for byte. Validation failures raise ValidationError with the
offending line where one exists.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, get_args, get_origin, get_type_hints

import numpy as np

from .frame import make_frame
from .simulate import Dataset, FusionSettings, SimConfig

if TYPE_CHECKING:  # imported where reports are read, so datasets load without it
    from .experiment import ExperimentReport


class ValidationError(ValueError):
    """A file or configuration failed validation."""


# ---------------------------------------------------------------------------
# dataset CSV: one row per (sample, source)

# The leading columns, then one score_<class> column per class.
_COLUMNS = ("sample_id", "true_class", "source_id", "label")

# Data rows read or written at a time: a file's fields are Python objects (when
# read) or byte arrays (when written) for one block only, so memory follows the
# dataset's arrays, not the field count.
_BLOCK_ROWS = 4096


def _words(texts: Iterable[str]) -> np.ndarray:
    """ASCII texts of four characters each as native uint32 words."""
    return np.frombuffer("".join(texts).encode(), np.uint32)


# A score in [0, 1] as '%.9f' writes it, plus its separator, is three words
# "d.dd" "dddd" "ddd," looked up by q // 10**7, q // 1000 % 10**4 and
# q % 1000, where q is the score times 1e9 rounded to an integer.
_SCORE_WORDS = (
    _words("%d.%02d" % divmod(i, 100) for i in range(101)),
    _words("%04d" % i for i in range(10000)),
    _words("%03d," % i for i in range(1000)),
)


def _texts(texts: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 texts as the rows of a uint8 array padded to one width, and a
    mask of each row's bytes without the padding."""
    raw = [text.encode() for text in texts]
    width = max(map(len, raw))
    table = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in raw), np.uint8)
    lengths = np.array([len(b) for b in raw])
    return table.reshape(len(raw), width), np.arange(width) < lengths[:, None]


def _score_texts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of scores in [0, 1] as '%.9f' writes them, each followed by a comma
    and the last by a newline: (rows, 13 * columns) bytes, where each score's
    13 start with a sign byte, and the mask of the bytes to write. The sign
    is kept for -0.0 only, which '%.9f' writes as -0.000000000.

    q = rint(x * 1e9) gives the digits '%.9f' rounds to, unless x * 1e9 lies
    within 2**-20 of a half-integer: the float product errs by less than
    2**-23 and may sit on the other side of a tie. Those go through '%.9f'."""
    y = x * 1e9
    q = np.rint(y).astype(np.int64)
    keys = (q // 10**7, q // 1000 % 10**4, q % 1000)
    words = np.stack([table[key] for table, key in zip(_SCORE_WORDS, keys)], axis=-1)
    text = np.empty((*x.shape, 13), np.uint8)
    text[..., 0] = ord("-")
    text[..., 1:] = words.view(np.uint8).reshape(*x.shape, 12)
    tie = np.abs(y - np.floor(y) - 0.5) <= 2.0**-20
    if tie.any():
        fields = "".join("%.9f," % v for v in x[tie].tolist()).encode()
        text[tie, 1:] = np.frombuffer(fields, np.uint8).reshape(-1, 12)
    text[:, -1, -1] = ord("\n")
    keep = np.ones(text.shape, bool)
    keep[..., 0] = np.signbit(x)
    return text.reshape(len(x), -1), keep.reshape(len(x), -1)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write the dataset CSV from Dataset.checked(): a dataset it refuses,
    which load_dataset would reject, is refused before the file is opened.
    Whole-float ids and classes are written as integers, scores as '%.9f'
    writes them. Each block of rows is assembled as one byte array, from the
    padded bytes of its fields and a mask that drops the padding."""
    try:
        dataset = dataset.checked()
    except ValueError as exc:
        raise ValidationError(f"{path}: cannot write: {exc}") from None
    labels = dataset.frame.labels
    # writerow returns what the file's write() returns, here the line itself;
    # a name is quoted as the second of two fields, as in a data row
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    quoted = [line(["", c])[1:-1] for c in labels]
    truths, names = _texts(f",{c}," for c in quoted), _texts(f"{c}," for c in quoted)
    sources = _texts(line(["", s])[1:-1] + "," for s in dataset.source_ids)
    m, k = dataset.m_sources, dataset.frame.n
    step = max(1, _BLOCK_ROWS // m)  # samples per block
    with open(path, "wb") as fh:
        fh.write(line([*_COLUMNS, *(f"score_{c}" for c in labels)]).encode())
        for block in (slice(i, i + step) for i in range(0, dataset.n_samples, step)):
            ids = dataset.sample_ids[block].astype("S20").view(np.uint8)
            ids = np.repeat(ids.reshape(-1, 20), m, axis=0)  # an int64 is 20 chars at most
            truth = np.repeat(dataset.truth[block], m)
            source = np.tile(np.arange(m), len(ids) // m)
            label = dataset.labels[block].ravel()
            fields = [
                (ids, ids != 0),  # padded with NUL, which no digit or sign is
                (truths[0][truth], truths[1][truth]),
                (sources[0][source], sources[1][source]),
                (names[0][label], names[1][label]),
                _score_texts(dataset.scores[block].reshape(len(ids), k)),
            ]
            text, keep = (np.concatenate(parts, axis=1) for parts in zip(*fields))
            fh.write(text[keep].tobytes())


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


def _read_block(
    rows: list[list[str]], header: list, classes: dict[str, int], index: dict[str, int]
) -> tuple[Any, ...]:
    """Data rows before the first that fails a row-local check, as sample ids,
    class indices of true class and label, source codes (``index`` numbers
    each new source id) and scores; and that row's problem, or None."""
    width = len(header)
    n = next((r for r, row in enumerate(rows) if len(row) != width), len(rows))
    cells = np.array(rows[:n], dtype=object).reshape(n, width)
    ids, bad_id = _parse(cells[:, 0], np.int64)
    codes = np.frompyfunc(classes.get, 2, 1)(cells[:, [1, 3]], -1)
    truth, label = codes.astype(np.int64).T
    source = np.array([index.setdefault(s, len(index)) for s in cells[:, 2]], np.int64)
    scores, unparsed = _parse(cells[:, len(_COLUMNS) :], np.float64)
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    checks = [  # each check of a row, in order, and its message
        (bad_id == 1, "sample_id {0!r} is not an integer"),
        (bad_id == 2, "sample_id {0!r} does not fit in 64 bits"),
        (truth < 0, "unknown class name {1!r}"),
        (label < 0, "unknown class name {3!r}"),
    ]
    for j, c in enumerate(range(len(_COLUMNS), width)):
        checks += [
            (unparsed[:, j] > 0, "{h[%d]} value {%d!r} is not a number" % (c, c)),
            (outside[:, j], "{h[%d]} value {%d} outside [0, 1]" % (c, c)),
        ]
    failed = np.column_stack([mask for mask, _ in checks])
    r = np.append(np.flatnonzero(failed.any(1)), n)[0]
    problem = f"expected {width} fields, got {len(rows[r])}" if r < len(rows) else None
    if r < n:
        problem = checks[failed[r].argmax()][1].format(*rows[r], h=header)
    return ids[:r], truth[:r], label[:r], source[:r], scores[:r], problem


def load_dataset(path: str, truth_col: str = "true_class") -> Dataset:
    """Read a dataset CSV as save_dataset writes it, with the true class in
    column ``truth_col``. Samples keep the order of their first row and
    sources the order of the first sample's rows. A malformed header or row,
    an unknown class name, a score that is not a number in [0, 1], a sample
    whose rows disagree on its true class or repeat a source, or a sample
    that does not cover the first sample's sources raises ValidationError
    with its line where it has one."""
    prefix = [_COLUMNS[0], truth_col, *_COLUMNS[2:]]
    index: dict[str, int] = {}
    blocks, problem = [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            score_cols = (header or [])[len(prefix) :]
            classes = {c.removeprefix("score_"): k for k, c in enumerate(score_cols)}
            # after a bad header or row, read on for a csv.Error, which wins
            for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
                if problem is None and header[: len(prefix)] == prefix:
                    *columns, problem = _read_block(rows, header, classes, index)
                    blocks.append(columns)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded ahead of the reader: no line
            raise ValidationError(f"{path}: not valid UTF-8: {exc.reason}") from None
    if header is None:
        raise ValidationError(f"{path}: empty file")
    if header[: len(prefix)] != prefix:
        raise ValidationError(
            f"{path}: line 1: header must start with {','.join(prefix)}"
        )
    if not score_cols or any(not c.startswith("score_") for c in score_cols):
        raise ValidationError(f"{path}: line 1: expected score_<class> columns")
    try:
        frame = make_frame(c.removeprefix("score_") for c in score_cols)
    except ValueError as exc:
        raise ValidationError(f"{path}: line 1: {exc}") from None

    if not blocks:
        raise ValidationError(f"{path}: no data rows")
    ids, truth, label, source, scores = map(np.concatenate, zip(*blocks))
    del blocks  # now copied into the columns
    # each row's sample as the row it first appears on; keyed by the parsed id,
    # so "0" and "00" name the same sample. Only rows before a bad one are here.
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    first = first[inverse]
    key = first * len(index) + source
    _, pair_first, pair_inverse = np.unique(key, return_index=True, return_inverse=True)
    inconsistent = truth != truth[first]
    duplicate = pair_first[pair_inverse] != np.arange(len(ids))
    # the first row failing either, or else len(ids): the row of a block's problem
    r = np.append(np.flatnonzero(inconsistent | duplicate), len(ids))[0]
    if r < len(ids) and inconsistent[r]:
        problem = f"sample {ids[r]} has inconsistent true class"
    elif r < len(ids):
        problem = f"duplicate source {list(index)[source[r]]!r} for sample {ids[r]}"
    if problem is not None:
        raise ValidationError(f"{path}: line {r + 2}: {problem}")

    # Samples in first-appearance order, each one's rows in file order. Those
    # before the first sample with a wrong row count form a grid of row indices.
    order = np.argsort(first, kind="stable")
    firsts, counts = np.unique(first, return_counts=True)
    n, m = len(counts), counts[0]
    k = np.append(np.flatnonzero(counts != m), n)[0]
    grid = order[: k * m].reshape(k, m)
    uncovered = np.append(np.flatnonzero((source[grid] != source[grid[0]]).any(1)), k)
    source_ids = tuple(np.array(list(index), dtype=object)[source[grid[0]]])
    if uncovered[0] < n:
        raise ValidationError(
            f"{path}: sample {ids[firsts[uncovered[0]]]} "
            f"does not cover sources {list(source_ids)}"
        )
    return Dataset(
        frame, source_ids, ids[firsts], truth[firsts], label[grid], scores[grid]
    )


# ---------------------------------------------------------------------------
# scenario and report JSON: dataclass fields, written by asdict and read back
# by _from_json from the same fields and their type hints


def _save_json(data: dict[str, Any], path: str) -> None:
    # SimConfig and ExperimentReport refuse non-finite numbers; this is a last guard
    text = json.dumps(data, allow_nan=False, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _load_json(path: str) -> Any:
    def finite(text: str) -> float:
        """A JSON number, or Python's NaN/Infinity literals, as a finite float."""
        value = float(text)
        if not math.isfinite(value):
            raise ValidationError(
                f"{path}: invalid JSON: {text} is not a finite number"
            )
        return value

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=finite, parse_constant=finite)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8: {exc.reason}") from None


_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object",
}


def _name(key: str, source: str) -> str:
    """The value at dotted path ``key`` of a ``source`` file, in messages."""
    return f"{source} key {key}" if key else source


def _at(key: str, child: Any) -> str:
    return f"{key}.{child}" if key else str(child)


def _typed(value: Any, kind: type, key: str, source: str) -> Any:
    """A JSON value as the scalar, list or dict ``kind``, never truncated or
    coerced: a boolean is not a number, and an int key takes only integral
    numbers."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) is not (kind is bool):
        raise ValidationError(f"{_name(key, source)} must be {_TYPE_NAMES[kind]}")
    try:
        return kind(value)
    except OverflowError:  # an int beyond the largest float
        raise ValidationError(f"{_name(key, source)} does not fit in a float") from None


def _reject_unknown(
    given: dict[str, Any], known: Iterable[str], key: str, source: str
) -> None:
    unknown = set(given) - set(known)
    if unknown:
        where = _name(key, source)
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _from_json(value: Any, kind: Any, key: str, source: str) -> Any:
    """A scenario or report JSON value as ``kind``; ``key`` is its dotted path.
    A tuple[X, ...] is read from an array, a dict[str, X] from an object, and
    a dataclass from an object of its fields: unknown keys are rejected, a
    field without a default is required, and an absent one takes its
    default. Scalars are checked by _typed."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        items = enumerate(_typed(value, list, key, source))
        return tuple(_from_json(v, args[0], _at(key, i), source) for i, v in items)
    if origin is not dict and not is_dataclass(kind):
        return _typed(value, kind, key, source)
    value = _typed(value, dict, key, source)
    if origin is dict:
        items = value.items()
        return {k: _from_json(v, args[1], _at(key, k), source) for k, v in items}
    hints = get_type_hints(kind)
    _reject_unknown(value, hints, key, source)
    for f in fields(kind):
        if f.name not in value and f.default is f.default_factory is MISSING:
            raise ValidationError(f"{_name(_at(key, f.name), source)} is required")
    items = value.items()
    return kind(**{k: _from_json(v, hints[k], _at(key, k), source) for k, v in items})


# The scenario JSON is SimConfig's fields with "fusion" spread over one object
# per method: FusionSettings field <block>_<key> is key <key> of the object
# <block>, so vote_c is vote.c and appriou_as_printed is appriou.as_printed.
def config_to_dict(config: SimConfig) -> dict[str, Any]:
    data = json.loads(json.dumps(asdict(config)))  # tuples as lists
    for name, value in data.pop("fusion").items():
        block, _, key = name.partition("_")
        data.setdefault(block, {})[key] = value
    return data


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    try:
        data = _typed(data, dict, "", "config")
        hints, fusion = get_type_hints(FusionSettings), {}
        spread = [name.partition("_")[::2] for name in hints]
        blocks = {block for block, _ in spread}
        top = set(get_type_hints(SimConfig)) - {"fusion"} | blocks
        _reject_unknown(data, top, "", "config")
        for block in sorted(blocks & data.keys()):
            given = _typed(data.pop(block), dict, block, "config")
            keys = [k for b, k in spread if b == block]
            _reject_unknown(given, keys, block, "config")
            for key, value in given.items():
                name, path = f"{block}_{key}", _at(block, key)
                fusion[name] = _from_json(value, hints[name], path, "config")
        config = _from_json(data, SimConfig, "", "config")
        return replace(config, fusion=FusionSettings(**fusion))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config: {exc}") from exc


def load_config(path: str) -> SimConfig:
    return config_from_dict(_load_json(path))


def save_config(config: SimConfig, path: str) -> None:
    _save_json(config_to_dict(config), path)


# The report JSON: ExperimentReport and MethodResult fields, checked on construction.
def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    return asdict(report)


def report_from_dict(data: dict[str, Any]) -> ExperimentReport:
    """The report, typed by _from_json and checked by its constructor."""
    from .experiment import ExperimentReport

    try:
        return _from_json(data, ExperimentReport, "", "report")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid report: {exc}") from exc


def save_report(report: ExperimentReport, path: str) -> None:
    _save_json(report_to_dict(report), path)


def load_report(path: str) -> ExperimentReport:
    return report_from_dict(_load_json(path))
