"""Readers and writers for dataset CSV, scenario JSON, and report JSON.

All writers are canonical: saving what was just loaded reproduces the file
byte for byte. Validation failures raise ValidationError with the
offending line where one exists.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from functools import cache
from io import StringIO
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, BinaryIO, get_args, get_origin, get_type_hints

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

# Data rows read at a time, each block as one byte array, so that memory
# follows the dataset's arrays, not the field count. csv_pipeline's 36k rows
# load at a traced peak of 2.2, 2.9 and 4.3 MB, in 25, 20 and 19 ms, with
# 1024, 2048 and 4096 rows a block.
_BLOCK_ROWS = 2048

# Bytes of padded row text written at a time. Each of a block's temporaries
# stays below glibc's default mmap threshold of 128 KiB, so they reuse the
# same heap memory block after block. csv_pipeline's dataset saves in 23.5,
# 20.7 and 20.7 ms at a traced peak of 0.29, 0.44 and 0.74 MB with blocks of
# 32, 64 and 128 KiB.
_WRITE_BYTES = 1 << 16


def _words(texts: Iterable[str]) -> np.ndarray:
    """ASCII texts of four characters each as native uint32 words."""
    return np.frombuffer("".join(texts).encode(), np.uint32)


@cache
def _score_words() -> tuple[np.ndarray, ...]:
    """A score in [0, 1] as '%.9f' writes it, plus its separator, is three
    words "d.dd" "dddd" "ddd," looked up by q // 10**7, q // 1000 % 10**4 and
    q % 1000, where q is the score times 1e9 rounded to an integer. Built on
    the first save, so reading a dataset does not pay for it."""
    return (
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


def _score_texts(x: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Write scores x in [0, 1] as '%.9f' writes them, each followed by a comma
    and the last of a row by a newline, into ``text``, 13 bytes a score of
    which the first is a sign byte, and set ``keep`` to the bytes to write:
    the sign is kept for -0.0 only, which '%.9f' writes as -0.000000000.

    q = rint(x * 1e9) gives the digits '%.9f' rounds to, unless x * 1e9 lies
    within 2**-20 of a half-integer: the float product errs by less than
    2**-23 and may sit on the other side of a tie. Those go through '%.9f'."""
    text, keep = text.reshape(*x.shape, 13), keep.reshape(*x.shape, 13)  # views
    y = np.ascontiguousarray(x) * 1e9  # so that the words below are C-ordered
    q = np.rint(y).astype(np.int64)
    keys = (q // 10**7, q // 1000 % 10**4, q % 1000)
    text[..., 0] = ord("-")
    for at, table, key in zip(range(1, 13, 4), _score_words(), keys):
        text[..., at : at + 4] = table[key].view(np.uint8).reshape(*x.shape, 4)
    tie = np.abs(y - np.floor(y) - 0.5) <= 2.0**-20
    if tie.any():
        fields = "".join("%.9f," % v for v in x[tie].tolist()).encode()
        text[tie, 1:] = np.frombuffer(fields, np.uint8).reshape(-1, 12)
    text[..., -1, -1] = ord("\n")
    keep[...] = True
    keep[..., 0] = np.signbit(x)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write the dataset CSV from Dataset.checked(): a dataset it refuses,
    which load_dataset would reject, is refused before the file is opened.
    Whole-float ids and classes are written as integers, scores as '%.9f'
    writes them. Each block of rows is assembled as one byte array of about
    _WRITE_BYTES, from the padded bytes of its fields and a mask that drops
    the padding, so memory beyond the dataset does not grow with it."""
    try:
        dataset = dataset.checked()
    except ValueError as exc:
        raise ValidationError(f"{path}: cannot write: {exc}") from None
    labels = dataset.frame.labels
    # writerow returns what the file's write() returns, here the line itself;
    # a name is quoted as the second of two fields, as in a data row
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    quoted = [line(["", c])[1:-1] for c in labels]
    # the true class, source and label fields as padded bytes and their masks
    tables = [
        _texts(f",{c}," for c in quoted),
        _texts(line(["", s])[1:-1] + "," for s in dataset.source_ids),
        _texts(f"{c}," for c in quoted),
    ]
    m, k = dataset.m_sources, dataset.frame.n
    # each row's byte offsets: its sample id (an int64 is 20 bytes at most),
    # the three fields above, then its scores
    ends = np.cumsum([20, *(table.shape[1] for table, _ in tables), 13 * k]).tolist()
    step = max(1, _WRITE_BYTES // (m * ends[-1]))  # samples per block
    with open(path, "wb") as fh:
        fh.write(line([*_COLUMNS, *(f"score_{c}" for c in labels)]).encode())
        for block in (slice(i, i + step) for i in range(0, dataset.n_samples, step)):
            ids = dataset.sample_ids[block].astype("S20").view(np.uint8)
            shape = (len(ids) // 20, m, ends[-1])  # (samples, sources, bytes)
            text, keep = np.empty(shape, np.uint8), np.empty(shape, bool)
            text[..., :20] = ids.reshape(-1, 1, 20)
            keep[..., :20] = text[..., :20] != 0  # padded with NUL, unlike a digit
            # each field's table rows, broadcast to (samples, sources)
            keys = (dataset.truth[block, None], slice(None), dataset.labels[block])
            for a, b, (table, mask), key in zip(ends, ends[1:], tables, keys):
                text[..., a:b], keep[..., a:b] = table[key], mask[key]
            scores = ends[-2]
            _score_texts(dataset.scores[block], text[..., scores:], keep[..., scores:])
            fh.write(text[keep])


# Bytes that csv.reader treats specially: a quote may open a field holding
# commas and line ends, a carriage return ends a line as a newline does, and
# Python before 3.11 refuses NUL. The block that first holds one, once each
# CRLF is read as LF, and the rest of the file, are read by csv.reader.
_CSV_ONLY = (b'"', b"\r", b"\0")

# Bytes read from the file at a time, joined and cut into blocks of whole
# lines. With glibc, a freed buffer of 1 MiB raised malloc's mmap threshold
# above the blocks' temporaries, which then stayed resident: 5 MB more after
# loading the csv_pipeline benchmark's file than with reads of 64 KiB.
_READ_BYTES = 1 << 16

# The longest field that _cast hands to numpy's bytes-to-number cast.
_CAST_BYTES = 32

# NUL bytes before and after each block's fields, so that the 16 bytes that
# end a field and the _CAST_BYTES that start one can be read as they are.
_PAD = bytes(_CAST_BYTES)

# Masks keeping the first i bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * i) - 1 for i in range(9)], np.uint64)

# Steps that turn four digit bytes of a little-endian 32-bit word into their
# number: multiply by 10 and 100, add the next byte or pair shifted down by 8
# or 16 bits, and mask each merged group.
_STEPS = [tuple(map(np.uint32, s)) for s in [(10, 8, 0xFF00FF), (100, 16, 0xFFFF)]]
# A 32-bit word times _ONES holds the sum of its bytes in its top byte (while
# that sum is below 256); for each of 16 bytes, how many follow it, as four
# words; 10**f for each f such a sum can reach.
_ONES = np.uint32(0x01010101)
_AFTER = np.arange(15, -1, -1, dtype=np.uint8).view(np.uint32)
_POW10 = 10.0 ** np.arange(256)

# Row i of 16 bytes: 0xFF where the last i are a field's bytes; and row i of
# _CAST_BYTES bytes: 0xFF where the first i are.
_KEEP = np.tri(17, 16, -1, np.uint8)[:, ::-1].ravel() * np.uint8(0xFF)
_HEAD = np.tri(_CAST_BYTES + 1, _CAST_BYTES, -1, np.uint8).ravel() * np.uint8(0xFF)


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of binary file ``fh`` in blocks of _BLOCK_ROWS lines, each
    ending in a newline but the file's last."""
    pending, lines = [], 0  # the chunks read since the last block, and their lines
    while chunk := fh.read(_READ_BYTES):
        n = chunk.count(b"\n")
        if lines + n < _BLOCK_ROWS:
            pending.append(chunk)
            lines += n
            continue
        # the newlines of this chunk that end a block
        newlines = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        cuts = (newlines[_BLOCK_ROWS - lines - 1 :: _BLOCK_ROWS] + 1).tolist()
        yield b"".join([*pending, chunk[: cuts[0]]])
        yield from (chunk[a:b] for a, b in zip(cuts, cuts[1:]))
        pending, lines = [chunk[cuts[-1] :]], (lines + n) % _BLOCK_ROWS
    if any(pending):
        yield b"".join(pending)


def _split(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A block of whole lines as csv.reader splits it on commas and newlines:
    (its bytes between two _PADs, the position there of the separator after
    each field, each line's field count, 0 for a blank line). None if the
    block holds a byte in _CSV_ONLY or a field over csv.field_size_limit()
    bytes, which only csv.reader can read or refuse."""
    if any(c in raw for c in _CSV_ONLY):
        return None
    data = _padded(raw)
    newline = data == ord("\n")
    seps = np.flatnonzero(newline | (data == ord(",")))
    ends = newline[seps]
    if not raw.endswith(b"\n"):  # the file's last line
        seps = np.append(seps, len(_PAD) + len(raw))
        ends = np.append(ends, True)
    start = len(_PAD) - 1  # where the separator before the first field would be
    last = np.flatnonzero(ends)  # each line's last separator, in seps
    lines = np.diff(seps[last], prepend=start)  # each line's length and newline
    limit = csv.field_size_limit() + 1  # no field is longer than its line
    if lines.max() > limit and np.diff(seps, prepend=start).max() > limit:
        return None
    counts = np.diff(last, prepend=-1)
    counts[lines == 1] = 0  # a blank line
    return data, seps, counts


def _padded(raw: bytes) -> np.ndarray:
    """``raw`` between two _PADs, as uint8."""
    return np.frombuffer(_PAD + raw + _PAD, np.uint8)


def _gather(data: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each position ``at``, one row per
    position; gathered as a void dtype, several times faster than from a view
    of words with a stride of one byte."""
    view = np.ndarray((len(data) - width + 1,), f"V{width}", data, strides=(1,))
    return view[at].view(np.uint8).reshape(*np.shape(at), width)


def _rows(fh: BinaryIO) -> Iterator[Any]:
    """Binary file ``fh`` as its header row (None if the file is empty), then
    blocks of data rows as _split gives them, each CRLF read as LF. From the
    first block that _split cannot read, csv.reader reads the rest of the
    file as it is. A csv.Error names its line; invalid UTF-8 raises
    UnicodeDecodeError."""
    head = fh.readline()
    if not head:
        yield None
        return
    raws, lines = chain([head], _line_blocks(fh)), 0  # lines before the block
    for raw in raws:
        # Outside quotes, which csv.reader reads, a CRLF ends a line as LF does.
        plain = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw
        block = _split(plain)
        if block is None:
            yield from _csv_rows(chain([raw], raws), lines)
            return
        raw = plain
        if not raw.isascii():
            raw.decode()  # invalid UTF-8 raises here, before any row is checked
        if lines == 0:
            text = raw.decode().removesuffix("\n")
            yield text.split(",") if text else []
        else:
            yield block
        lines += len(block[2])


def _csv_rows(raws: Iterable[bytes], lines: int) -> Iterator[Any]:
    """_rows for blocks ``raws`` of whole lines, which follow ``lines`` lines
    of the file, read by csv.reader: the header row if ``lines`` is 0, then
    blocks of _BLOCK_ROWS rows laid out as _split lays them out, each field
    as its UTF-8 bytes and a comma."""
    # each block decoded whole and split into lines as open(newline="") splits
    lines_of = (StringIO(raw.decode(), newline="") for raw in raws)
    reader = csv.reader(chain.from_iterable(lines_of))
    try:
        if lines == 0:
            yield next(reader, None)
        for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            fields = list(chain.from_iterable(rows))
            text = ",".join(fields) + ","
            sizes = map(len, fields if text.isascii() else map(str.encode, fields))
            seps = np.cumsum(np.fromiter(sizes, np.int64, len(fields)) + 1)
            data = _padded(text.encode())
            yield data, seps + (len(_PAD) - 1), np.fromiter(map(len, rows), np.int64)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise csv.Error(f"line {lines + reader.line_num}: {exc}") from None


def _codes(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray, code: Callable[[str], int]
) -> np.ndarray:
    """code(text) of each field of _padded ``data``, called once per distinct
    field in the order of first appearance. A field's equals are found by its
    length and first 8 bytes, then a word at a time."""
    shape, starts, lengths = starts.shape, starts.ravel(), (ends - starts).ravel()
    head = _gather(data, starts, 8).view("<u8")[:, 0] & _MASKS[np.minimum(lengths, 8)]
    key = head ^ lengths.astype(np.uint64) << np.uint64(56)  # exact below 8 bytes
    short = lengths.max(initial=0) < 8
    codes = np.empty(len(starts), np.int64)
    todo = np.ones(len(starts), bool)
    while todo.any():
        r = todo.argmax()
        a, n = starts[r], lengths[r]
        same = key == key[r]
        if not short:
            same &= lengths == n
        for at in range(8, n, 8):  # the rest of a longer field
            (i,) = np.nonzero(same)
            words = _gather(data, np.append(starts[i], a) + at, 8).view("<u8")[:, 0]
            same[i] = (words[:-1] ^ words[-1]) & _MASKS[min(n - at, 8)] == 0
        np.putmask(codes, same, code(data[a : a + n].tobytes().decode()))
        todo ^= same  # same holds no field seen before
    return codes.reshape(shape)


def _byte_sums(words: np.ndarray) -> np.ndarray:
    """Per column of 32-bit ``words``, the sum of their bytes, which must be
    below 256: the words are added, then their bytes."""
    return (sum(words[1:], words[0]) * _ONES) >> np.uint32(24)


def _numbers(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray, kind: type
) -> tuple[np.ndarray, np.ndarray]:
    """Fields of _padded ``data`` as int64 (``kind`` int) or float64 (float)
    by int()/float() rules, and per field 0 if it parsed, 1 if it is not a
    number, 2 if it does not fit (value 0).

    A plain decimal, [-]digits[.digits] in at most 16 bytes, is read from its
    last 4, 8, 12 or 16 bytes as 32-bit words: v, its digits with the point
    read as a 0, is one 4-digit number per word, each parsed by two
    multiply-shift-mask steps. The digits q and the count f of them after
    the point follow, and q / 10**f is exactly float()'s result while
    q < 2**53. Other fields, such as nan, exponents, '_' and whitespace, go
    to _cast."""
    shape, starts, ends = starts.shape, starts.ravel(), ends.ravel()
    lengths = ends - starts
    width = min(-(-lengths.max(initial=1) // 4) * 4, 16)  # bytes read, in words
    # each field's last width bytes, NUL before it, as one row per word; rows
    # keep the ufuncs' inner loops long
    text = _gather(data, ends - width, width).view(np.uint32).T.copy()
    at = np.minimum(lengths, width) * 16 + 16 - width  # each field's row of _KEEP
    if (lengths == lengths[:1]).all():  # one length, as '%.9f' writes scores
        at = at[:1]
    keep = _gather(_KEEP, at, width).view(np.uint32).T
    chars = text.view(np.uint8)
    digit = chars - np.uint8(ord("0"))  # a byte below '0' wraps past 9
    is_digit = (digit < 10).view(np.uint32)
    is_digit &= keep  # words of 0/1 bytes
    digit *= is_digit.view(np.uint8)
    words = digit.view(np.uint32)
    for scale, shift, mask in _STEPS:  # pairs, then groups of 4 digits
        high = words >> shift
        words *= scale
        words += high
        words &= mask
    v = words[0].astype(np.int64)
    for w in words[1:]:
        v *= 10**4
        v += w
    points = (chars == ord(".")).view(np.uint32)
    points &= keep
    n_points, n_digits = _byte_sums(points), _byte_sums(is_digit)
    negative = data[starts] == ord("-")
    plain = (n_digits + n_points + negative == lengths) & (n_digits >= 1)
    if kind is float:
        plain &= (n_points <= 1) & (v < 2**53)
        v = v.astype(np.float64)  # exact below 2**53
        places = _AFTER[4 - len(text) :, None]
        after = _byte_sums(points * np.uint32(0xFF) & places)  # bytes after the point
        scale = _POW10[after]  # 10**f
        low = v - np.floor(v / scale) * scale  # the digits after the point
        values = ((v - low) / _POW10[n_points] + low) / scale
    else:
        plain &= n_points == 0
        values = v
    np.negative(values, out=values, where=negative)
    bad = np.zeros(len(starts), np.int8)
    rest = np.flatnonzero(~plain)
    if len(rest):
        values[rest], bad[rest] = _cast(data, starts[rest], ends[rest], kind)
    return values.reshape(shape), bad.reshape(shape)


def _cast(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray, kind: type
) -> tuple[np.ndarray, np.ndarray]:
    """Fields as _numbers gives them, by numpy's bytes-to-number cast, which
    reads ASCII as int() and float() read it. A field the bytes dtype cannot
    hold as it is (over _CAST_BYTES, not ASCII, or holding a NUL, which it
    would drop at the end), and every field if the cast fails, goes through
    int() or float() alone."""
    lengths = ends - starts
    width = max(min(lengths.max(), _CAST_BYTES), 1)
    size = np.minimum(lengths, width)  # bytes read of each field, then NUL
    text = _gather(data, starts, width) & _gather(_HEAD, size * _CAST_BYTES, width)
    ok = lengths <= width
    if text.max() >= 128 or np.count_nonzero(text) < size.sum():  # not ASCII, a NUL
        ok &= (text < 128).all(axis=1) & (np.count_nonzero(text, axis=1) == size)
    values = np.zeros(len(starts), np.int64 if kind is int else np.float64)
    try:
        values[ok] = text[ok].view(f"S{width}")[:, 0].astype(values.dtype)
    except (ValueError, OverflowError):
        ok[:] = False
    bad = np.zeros(len(starts), np.int8)
    for i in np.flatnonzero(~ok).tolist():
        try:
            value = kind(data[starts[i] : ends[i]].tobytes().decode())
        except ValueError:
            bad[i] = 1
            continue
        if kind is int and not -(2**63) <= value < 2**63:
            bad[i] = 2
        else:
            values[i] = value
    return values, bad


def _read_block(
    block: tuple[np.ndarray, ...],
    header: list[str],
    classes: dict[str, int],
    index: dict[str, int],
) -> tuple[Any, ...]:
    """Data rows of a block from _rows before the first that fails a
    row-local check, as sample ids, true class indices, source codes
    (``index`` numbers each new source id), label class indices and scores,
    the codes and indices in small integer types; and that row's problem, or
    None."""
    data, seps, counts = block
    width = len(header)
    n = np.append(np.flatnonzero(counts != width), len(counts))[0]
    # each field's separator and first byte, the one after the separator
    # before it, one row per column
    ends = seps[: n * width].reshape(n, width).T.copy()
    starts = np.empty_like(ends)
    starts[0, :1], starts[0, 1:] = len(_PAD), ends[-1, :-1] + 1
    np.add(ends[:-1], 1, out=starts[1:])
    ids, bad_id = _numbers(data, starts[0], ends[0], int)
    names = starts[[1, 3]], ends[[1, 3]]
    truth, label = _codes(data, *names, lambda t: classes.get(t, -1))
    sources = starts[2], ends[2]
    source = _codes(data, *sources, lambda t: index.setdefault(t, len(index)))
    cols = slice(len(_COLUMNS), width)
    scores, unparsed = _numbers(data, starts[cols], ends[cols], float)
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    checks = [  # each check of a row, in order, and its message
        (bad_id == 1, "sample_id {0!r} is not an integer"),
        (bad_id == 2, "sample_id {0!r} does not fit in 64 bits"),
        (truth < 0, "unknown class name {1!r}"),
        (label < 0, "unknown class name {3!r}"),
    ]
    for j, c in enumerate(range(len(_COLUMNS), width)):
        checks += [
            (unparsed[j] > 0, "{h[%d]} value {%d!r} is not a number" % (c, c)),
            (outside[j], "{h[%d]} value {%d} outside [0, 1]" % (c, c)),
        ]
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    r = np.append(np.flatnonzero(failed), n)[0]
    problem = f"expected {width} fields, got {counts[r]}" if r < len(counts) else None
    if r < n:
        row = [data[a:b].tobytes().decode() for a, b in zip(starts[:, r], ends[:, r])]
        message = next(message for mask, message in checks if mask[r])
        problem = message.format(*row, h=header)
    # class indices (-1 to 15) as int8 and source codes in the least unsigned
    # type, until the rows are joined; scores C-ordered, as the dataset's are
    codes = truth[:r].astype(np.int8), source[:r].astype(np.min_scalar_type(len(index)))
    return ids[:r], *codes, label[:r].astype(np.int8), scores[:, :r].T.copy(), problem


def load_dataset(path: str, truth_col: str = "true_class") -> Dataset:
    """Read a dataset CSV as save_dataset writes it, with the true class in
    column ``truth_col``. Samples keep the order of their first row and
    sources the order of the first sample's rows. A malformed header or row,
    an unknown class name, a score that is not a number in [0, 1], a sample
    whose rows disagree on its true class or repeat a source, or a sample
    that does not cover the first sample's sources raises ValidationError
    with its line where it has one.

    The file is read once (so a pipe works), in blocks of _BLOCK_ROWS lines,
    and no Python object is made per field: fields end where array compares
    find a comma or newline, class names and source ids are looked up by
    their UTF-8 bytes, and sample ids and scores follow int() and float():
    plain decimals are read from their digits, other ASCII fields by numpy's
    bytes cast, and the rest one at a time. The block that first holds a
    quote, carriage return or NUL, or a field over csv.field_size_limit(),
    and every block after it, go through csv.reader, whose rows feed the
    same checks. A csv.Error or invalid UTF-8 anywhere in the file wins over
    a bad row."""
    prefix = [_COLUMNS[0], truth_col, *_COLUMNS[2:]]
    index: dict[str, int] = {}
    blocks, problem = [], None
    with open(path, "rb") as fh:
        rows = _rows(fh)
        try:
            header = next(rows)
            score_cols = (header or [])[len(prefix) :]
            classes = {c.removeprefix("score_"): k for k, c in enumerate(score_cols)}
            # after a bad header or row, read on: a csv.Error or bad UTF-8 wins
            for block in rows:
                if problem is None and header[: len(prefix)] == prefix:
                    *columns, problem = _read_block(block, header, classes, index)
                    blocks.append(columns)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValidationError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
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
    # Each column is joined from its block parts, which are dropped as it is;
    # labels and scores last, after the checks.
    ids, truth, source, labels, scores = map(list, zip(*blocks))
    del blocks
    ids = np.concatenate(ids)
    truth = np.concatenate(truth)
    source = np.concatenate(source)
    if problem is None:  # then there are rows
        m = int(np.argmax(ids != ids[0])) or len(ids)  # the first sample's, if first
        if _grouped(ids, truth, source, m):
            ids, truth = ids[::m].copy(), truth[::m].astype(np.int64)
            del source
            labels = np.concatenate(labels).astype(np.int64).reshape(-1, m)
            scores = np.concatenate(scores).reshape(-1, m, frame.n)
            return Dataset(frame, tuple(index), ids, truth, labels, scores)

    # each row's sample as the row it first appears on; keyed by the parsed id,
    # so "0" and "00" name the same sample. Only rows before a bad one are here.
    first = _first_rows(ids)
    inconsistent = truth != truth[first]
    duplicate = _first_rows(first * len(index) + source) != np.arange(len(ids))
    # the first row failing either, or else len(ids): the row of a block's problem
    r = np.append(np.flatnonzero(inconsistent | duplicate), len(ids))[0]
    if r < len(ids) and inconsistent[r]:
        problem = f"sample {ids[r]} has inconsistent true class"
    elif r < len(ids):
        problem = f"duplicate source {list(index)[source[r]]!r} for sample {ids[r]}"
    if problem is not None:
        raise ValidationError(f"{path}: line {r + 2}: {problem}")
    del inconsistent, duplicate

    # Samples in first-appearance order, each one's rows in file order. Those
    # before the first sample with a wrong row count form a grid of row indices.
    order = np.argsort(first, kind="stable")
    counts = np.bincount(first)  # rows per sample, at the sample's first row
    del first
    firsts = np.flatnonzero(counts)
    counts = counts[firsts]
    n, m = len(counts), counts[0]
    k = np.append(np.flatnonzero(counts != m), n)[0]
    grid = order[: k * m].reshape(k, m)
    del order
    uncovered = np.append(np.flatnonzero((source[grid] != source[grid[0]]).any(1)), k)
    source_ids = tuple(np.array(list(index), dtype=object)[source[grid[0]]])
    if uncovered[0] < n:
        raise ValidationError(
            f"{path}: sample {ids[firsts[uncovered[0]]]} "
            f"does not cover sources {list(source_ids)}"
        )
    ids, truth = ids[firsts], truth[firsts].astype(np.int64)
    del source
    labels = np.concatenate(labels)[grid].astype(np.int64)
    scores = np.concatenate(scores)[grid]
    return Dataset(frame, source_ids, ids, truth, labels, scores)


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """For each key, the index of the first key equal to it: what np.unique
    gives through its return_index and return_inverse, in fewer arrays."""
    order = np.argsort(keys, kind="stable")  # equal keys in index order
    ordered = keys[order]
    at = np.arange(len(keys))
    at[1:][ordered[1:] == ordered[:-1]] = 0  # a run's first place, else 0
    del ordered
    np.maximum.accumulate(at, out=at)
    first = np.empty_like(order)
    first[order] = order[at]
    return first


def _grouped(ids: np.ndarray, truth: np.ndarray, source: np.ndarray, m: int) -> bool:
    """Whether the rows come in runs of m, each the rows of one sample, with
    sample ids increasing from run to run, one true class per run and the
    sources of the first run, each once, in its order. Such rows are valid
    and form the dataset's arrays as they are."""
    if len(ids) % m:
        return False
    runs = (-1, m)
    return bool(
        (ids.reshape(runs) == ids[::m, None]).all()
        and (ids[m::m] > ids[:-m:m]).all()
        and (truth.reshape(runs) == truth[::m, None]).all()
        and (source.reshape(runs) == np.arange(m)).all()
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
