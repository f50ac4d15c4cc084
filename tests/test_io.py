"""Dataset CSV and config/report JSON round trips plus validation errors."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evifuse.io
from evifuse import (
    MAX_CLASSES,
    Dataset,
    FusionSettings,
    SimConfig,
    SourceProfile,
    ValidationError,
    default_config,
    load_config,
    load_dataset,
    load_report,
    make_frame,
    run_experiment,
    save_config,
    save_dataset,
    save_report,
    simulate,
)
from evifuse.io import (
    config_from_dict,
    config_to_dict,
    report_from_dict,
    report_to_dict,
)
from helpers import write_dataset_csv


@pytest.fixture()
def small_dataset():
    cfg = default_config(n_samples=40, n_trials=1)
    return simulate(cfg)


def test_dataset_round_trip(tmp_path, small_dataset):
    path = tmp_path / "data.csv"
    save_dataset(small_dataset, str(path))
    loaded = load_dataset(str(path))
    assert loaded.frame == small_dataset.frame
    assert loaded.source_ids == small_dataset.source_ids
    assert np.array_equal(loaded.truth, small_dataset.truth)
    assert np.array_equal(loaded.labels, small_dataset.labels)
    # scores survive up to the 9-digit decimal rendering
    assert np.max(np.abs(loaded.scores - small_dataset.scores)) < 5e-10


def test_dataset_save_load_save_byte_identical(tmp_path, small_dataset):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(small_dataset, str(p1))
    save_dataset(load_dataset(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_dataset_rejects_bad_score(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,a,s1,a,0.5,0.5\n"
        "1,b,s1,b,1.2,0.0\n"
    )
    with pytest.raises(ValidationError, match="line 3"):
        load_dataset(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("nan", "score_b value nan outside [0, 1]"),
        ("inf", "score_b value inf outside [0, 1]"),
        ("-0.1", "score_b value -0.1 outside [0, 1]"),
        ("", "score_b value '' is not a number"),
    ],
    ids=["nan", "inf", "negative", "blank"],
)
def test_load_dataset_rejects_non_score_values(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,a,s1,a,0.5,0.5\n"
        f"1,b,s1,b,0.5,{text}\n"
    )
    with pytest.raises(ValidationError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: line 3: {message}"


def test_load_dataset_non_contiguous_ids_round_trip(tmp_path):
    # Samples keep their first-appearance order, not the order of their ids.
    path, again = tmp_path / "data.csv", tmp_path / "again.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "5,a,s1,a,0.750000000,0.250000000\n"
        "5,a,s2,b,0.400000000,0.600000000\n"
        "2,b,s1,b,0.100000000,0.900000000\n"
        "2,b,s2,b,0.000000000,1.000000000\n"
        "9,a,s1,a,1.000000000,0.000000000\n"
        "9,a,s2,a,0.500000000,0.500000000\n"
    )
    ds = load_dataset(str(path))
    assert ds.sample_ids.tolist() == [5, 2, 9]
    assert ds.truth.tolist() == [0, 1, 0]
    assert ds.labels.tolist() == [[0, 1], [1, 1], [0, 0]]
    save_dataset(ds, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_load_dataset_interleaved_samples_load_in_first_appearance_order(tmp_path):
    # A sample's rows need not be adjacent; saving writes them grouped.
    path, again = tmp_path / "data.csv", tmp_path / "again.csv"
    header = "sample_id,true_class,source_id,label,score_a,score_b\n"
    s5_s1 = "5,a,s1,a,0.750000000,0.250000000\n"
    s5_s2 = "5,a,s2,b,0.400000000,0.600000000\n"
    s2_s1 = "2,b,s1,b,0.100000000,0.900000000\n"
    s2_s2 = "2,b,s2,b,0.000000000,1.000000000\n"
    path.write_text(header + s5_s1 + s2_s1 + s5_s2 + s2_s2)
    ds = load_dataset(str(path))
    assert ds.sample_ids.tolist() == [5, 2]
    assert ds.source_ids == ("s1", "s2")
    assert ds.truth.tolist() == [0, 1]
    assert ds.labels.tolist() == [[0, 1], [1, 1]]
    assert ds.scores[0].tolist() == [[0.75, 0.25], [0.4, 0.6]]
    save_dataset(ds, str(again))
    assert again.read_text() == header + s5_s1 + s5_s2 + s2_s1 + s2_s2


_HEADER = "sample_id,true_class,source_id,label,score_a,score_b\n"
_HEADER3 = "sample_id,true_class,source_id,label,score_a,score_b,score_c\n"
_OVERSIZED = "1" * (csv.field_size_limit() + 1)  # a field csv.reader rejects


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,0.5\n0,a,s1,b,0.5,0.5\n",
            "line 4: duplicate source 's1' for sample 0",
        ),
        (
            "0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,0.5\n1,b,s1,b,0.5,0.5\n",
            "sample 1 does not cover sources ['s1', 's2']",
        ),
        (
            "0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,0.5\n"
            "1,b,s2,b,0.5,0.5\n1,b,s1,b,0.5,0.5\n",
            "sample 1 does not cover sources ['s1', 's2']",
        ),
        (
            "0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,0.5\n1,b,s1,b,0.5\n",
            "line 4: expected 6 fields, got 5",
        ),
        (
            "0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,x\n1,b,s1,b,0.5\n",
            "line 3: score_b value 'x' is not a number",
        ),
        (
            "0,a,s1,a,0.5,0.5\n1,b,s1,b,0.5,0.5\n1,b,s2,b,0.5,0.5\n0,a,s2,z,0.5,0.5\n",
            "line 5: unknown class name 'z'",
        ),
        ("0,a,s1,a,1.5,x\n", "line 2: score_a value 1.5 outside [0, 1]"),
    ],
    ids=[
        "duplicate_source",
        "missing_source",
        "source_order",
        "later_field_count",
        "earlier_error_first",
        "unknown_label_after_other_sample",
        "score_columns_in_order",
    ],
)
def test_load_dataset_row_errors_exact(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_text(_HEADER + body)
    with pytest.raises(ValidationError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "row, message",
    [
        (
            "0,a,s2,a,0.5," + "1" * (csv.field_size_limit() + 1),
            f"line 3: field larger than field limit ({csv.field_size_limit()})",
        ),
        (
            "99999999999999999999,a,s2,a,0.5,0.5",
            "line 3: sample_id '99999999999999999999' does not fit in 64 bits",
        ),
        (
            "-9223372036854775809,a,s2,a,0.5,0.5",
            "line 3: sample_id '-9223372036854775809' does not fit in 64 bits",
        ),
    ],
    ids=["oversized_field", "id_above_int64", "id_below_int64"],
)
def test_load_dataset_malformed_files_raise_validation_error(tmp_path, row, message):
    path = tmp_path / "data.csv"
    path.write_text(_HEADER + "0,a,s1,a,0.5,0.5\n" + row + "\n")
    with pytest.raises(ValidationError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: {message}"


def test_load_dataset_accepts_int64_extremes(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        _HEADER + "9223372036854775807,a,s1,a,0.5,0.5\n"
        "-9223372036854775808,b,s1,b,0.5,0.5\n"
    )
    assert load_dataset(str(path)).sample_ids.tolist() == [2**63 - 1, -(2**63)]


@pytest.mark.parametrize(
    "edits, message",
    [
        ({-2: "5,c,s2,a,0.5,0.25"}, "expected 7 fields, got 6"),
        ({None: "0,b,s4,a,0.5,0.25,0.25"}, "sample 0 has inconsistent true class"),
        ({None: "1,b,s2,a,0.5,0.25,0.25"}, "duplicate source 's2' for sample 1"),
        (
            {0: "0,a,s1,a,2.0,0.25,0.25", None: "9,a,s1,a,0.5,0.25," + _OVERSIZED},
            f"field larger than field limit ({csv.field_size_limit()})",
        ),
        (
            {-2: "-1,a,s2,a,0.5,1.5,0.25", 5: "1,b,s2,a,0.5,0.25,0.25"},
            "duplicate source 's2' for sample 1",
        ),
        (
            {-1: "1,b,s2,a,0.5,0.25,0.25", 5: "1,b,s3,a,0.5,x,0.25"},
            "score_b value 'x' is not a number",
        ),
    ],
    ids=[
        "field_count",
        "inconsistent_truth",
        "duplicate_source",
        "csv_error_wins",
        "duplicate_before_a_later_bad_score",
        "bad_score_before_a_later_duplicate",
    ],
)
def test_load_dataset_errors_past_the_first_block(tmp_path, edits, message):
    """At the default block size, an edit lies in a later block than sample 0
    and 1's first rows, and the message names the line of the last edit. A
    csv.Error further on wins over an earlier row error, as when the whole
    file was read before any check; of a row error and a duplicate source,
    the earlier row is named, whichever block the other lies in."""
    n = evifuse.io._BLOCK_ROWS // 3 + 10
    rows = [
        f"{i},{'abc'[i % 3]},s{j},a,0.5,0.25,0.25" for i in range(n) for j in (1, 2, 3)
    ]
    placed = []
    for at, row in edits.items():
        at = len(rows) if at is None else at % len(rows)
        rows[at : at + 1] = [row]  # at len(rows), appends
        placed.append(at)
    assert max(placed) + 2 > evifuse.io._BLOCK_ROWS + 1
    path = tmp_path / "data.csv"
    path.write_text(_HEADER3 + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: line {at + 2}: {message}"


@pytest.mark.parametrize(
    "body, message",
    [
        ("1,b,s1,a,0.5,0.5\n1,b,s2,a,0.5,0.5\n", None),
        ("1,b,s1,a,0.5,0.5\n1,b,s2,zz,0.5,0.5\n", "line 5: unknown class name 'zz'"),
        ("1,b,s1,a,0.5,0.5\n1,b,s2,a,0.5\n", "line 5: expected 6 fields, got 5"),
        ("1,a,s1,a,0.5,0.5\n1,b,s2,a,0.5,0.5\n", "line 5: sample 1 has incons"),
        ("1,b,s1,a,0.5,0.5\n1,b,s1,a,0.5,0.5\n", "line 5: duplicate source 's1'"),
        ("1,b,s1,a,0.5,0.5\n", "sample 1 does not cover sources"),
    ],
    ids=["valid", "unknown_class", "field_count", "truth", "duplicate", "coverage"],
)
def test_load_dataset_opens_its_file_once(tmp_path, body, message):
    """In blocks of two rows, the rows of sample 1 lie past the first block:
    the loader reads the file once, on the error paths too, so a pipe works."""
    path = tmp_path / "data.csv"
    path.write_text(_HEADER + "0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,0.5\n" + body)
    with mock.patch.object(evifuse.io, "_BLOCK_ROWS", 2), mock.patch(
        "evifuse.io.open", wraps=open, create=True
    ) as opened:
        if message is None:
            assert load_dataset(str(path)).sample_ids.tolist() == [0, 1]
        else:
            with pytest.raises(ValidationError, match=re.escape(message)):
                load_dataset(str(path))
    opened.assert_called_once()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_cli_eval_reports_a_bad_row_of_piped_input(tmp_path):
    """evifuse eval --dataset /dev/stdin on a pipe: a bad row is a validation
    error, exit 2 with its line, not a traceback from reading the pipe again."""
    env = {**os.environ, "PYTHONPATH": str(Path(evifuse.io.__file__).parents[1])}
    command = [sys.executable, "-m", "evifuse.cli", "eval", "--dataset", "/dev/stdin"]
    command += ["--methods", "vote_majority", "--out", str(tmp_path / "r.json")]
    body = _HEADER + "0,a,s1,a,0.5,0.5\n0,a,s2,zz,0.5,0.5\n"
    result = subprocess.run(command, input=body, capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: /dev/stdin: line 3: unknown class name 'zz'\n"
    assert not (tmp_path / "r.json").exists()


def _traced_peak(function, *args):
    """The peak of memory traced by tracemalloc during function(*args)."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_csv_memory_grows_with_the_arrays_not_the_fields(tmp_path):
    """Peak traced memory per data row, from files of 3,000 and 24,000
    samples shaped like the csv_pipeline benchmark (3 classes, 3 sources).
    Only one block's fields are Python objects at a time: save_dataset needs
    no memory per row, and load_dataset holds the columns it parses, their
    whole-file checks and the loaded dataset."""
    peaks = []
    for n_samples in (3000, 24000):
        ds = simulate(_csv_pipeline_config(n_samples))
        path = str(tmp_path / f"{n_samples}.csv")
        saved = _traced_peak(save_dataset, ds, path)
        peaks.append((saved, _traced_peak(load_dataset, path)))
    rows = (24000 - 3000) * 3
    save, load = ((big - small) / rows for small, big in zip(*peaks))
    assert save <= 16, f"save_dataset peak grows by {save:.1f} B per row"
    assert load <= 256, f"load_dataset peak grows by {load:.1f} B per row"


def _nbytes(ds):
    return sum(a.nbytes for a in (ds.sample_ids, ds.truth, ds.labels, ds.scores))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_load_dataset_peaks_at_most_three_times_the_dataset(tmp_path, newline):
    """On the byte path load_dataset holds one block's parse and the parsed
    columns, which it joins one at a time, beside the dataset it returns: at
    its traced peak, at most three times the dataset's nbytes, for the
    12,000 samples of csv_pipeline with LF or CRLF line ends."""
    path = tmp_path / "data.csv"
    save_dataset(simulate(_csv_pipeline_config(12000)), str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    load_dataset(str(path))  # so that no first-use cost is traced
    tracemalloc.start()
    try:
        ds = load_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _nbytes(ds), f"peak at {peak / _nbytes(ds):.2f} times the dataset"


def test_save_dataset_peak_is_the_same_at_3000_and_12000_samples(tmp_path):
    """save_dataset checks the dataset's arrays without copying them and
    writes blocks of about _WRITE_BYTES of row text, so its traced peak
    above its input does not grow with the dataset."""
    path = str(tmp_path / "data.csv")
    save_dataset(simulate(_csv_pipeline_config(300)), path)  # builds the score tables
    small, big = (
        _traced_peak(save_dataset, simulate(_csv_pipeline_config(n)), path)
        for n in (3000, 12000)
    )
    assert abs(big - small) <= small / 100, f"{small} B at 3,000 samples, {big} B at 12,000"


def test_load_dataset_reads_crlf_lines_on_the_byte_path(tmp_path):
    """A block whose every CR starts a CRLF, and that holds no quote or NUL,
    is read without csv.reader, to the dataset of the same file with LF."""
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    save_dataset(simulate(_csv_pipeline_config(1000)), str(lf))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    with mock.patch.object(evifuse.io, "_csv_rows", side_effect=AssertionError):
        got = load_dataset(str(crlf))
    want = load_dataset(str(lf))
    assert (got.frame, got.source_ids) == (want.frame, want.source_ids)
    for name in ("sample_ids", "truth", "labels", "scores"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _csv_pipeline_config(n_samples):
    reliabilities = ((0.80, 0.75, 0.70), (0.70, 0.65, 0.60), (0.60, 0.55, 0.50))
    sources = tuple(
        SourceProfile(id=f"s{j + 1}", reliability=r, temperature=0.35)
        for j, r in enumerate(reliabilities)
    )
    return SimConfig(
        classes=("a", "b", "c"),
        priors=(0.5, 0.3, 0.2),
        sources=sources,
        n_samples=n_samples,
        seed=3,
    )


def test_load_dataset_rejects_invalid_utf8(tmp_path):
    # The file is decoded ahead of the csv reader, so no line is named.
    path = tmp_path / "data.csv"
    path.write_bytes(_HEADER.encode() + b"0,a,s1,a,0.5,0.5\n0,a,s2,a,0.5,\xff\n")
    with pytest.raises(ValidationError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: not valid UTF-8: invalid start byte"


@pytest.mark.parametrize("block_rows", [2, 4096])
def test_load_dataset_invalid_utf8_after_a_bad_row_wins(tmp_path, block_rows):
    # as a csv.Error does: the rest of the file is read, in this block or later
    path = tmp_path / "data.csv"
    body = "0,a,s1,zz,0.5,0.5\n0,a,s2,a,0.5,0.5\n1,a,s1,a,0.5\n"
    path.write_bytes((_HEADER + body).encode() + b"1,a,s2,\xff\n")
    with mock.patch.object(evifuse.io, "_BLOCK_ROWS", block_rows):
        with pytest.raises(ValidationError) as info:
            load_dataset(str(path))
    assert str(info.value) == f"{path}: not valid UTF-8: invalid start byte"


# Decimals as files write them: plain ones of up to 20 digits, read from
# their digits when they fit in 16 bytes, and forms that only int() and
# float() read (a sign, spaces, '_', exponents, other digits).
_DIGITS = st.text(alphabet="0123456789", max_size=20)
_PLAIN_SCORE = st.builds(
    lambda sign, whole, point, fraction: sign + whole + point + fraction,
    st.sampled_from(["", "-"]),
    st.sampled_from(["", "0", "00", "1"]),
    st.sampled_from([".", ""]),
    _DIGITS,
)
_OTHER_SCORE = st.sampled_from(
    ["+0.5", " 0.25", "0.5 ", "1e-1", "5E-10", "0.1_2", "\u0660.\u0665", "+.5", "1.0e0"]
)
_ID = st.integers(0, 2**63 - 1).map("+{}".format) | st.builds(
    lambda value, zeros, pad: pad % f"{'-' * (value < 0)}{'0' * zeros}{abs(value)}",
    st.integers(-(2**63), 2**63 - 1) | st.integers(-999, 999),
    st.integers(0, 3),
    st.sampled_from(["%s", "%s", " %s", "%s "]),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_dataset_reads_numbers_as_int_and_float_do(tmp_path_factory, data):
    """Sample ids equal int() of their text and scores float() of theirs, bit
    for bit (-0.0 included), whichever path reads them."""
    scores = data.draw(
        st.lists(
            (_PLAIN_SCORE | _OTHER_SCORE).filter(_is_score), min_size=1, max_size=40
        )
    )
    ids = data.draw(st.lists(_ID, min_size=len(scores), max_size=len(scores)))
    ids = list({int(t): t for t in ids}.values())  # one sample per id
    scores = scores[: len(ids)]
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    rows = [f"{i},a,s,a,{x}\n" for i, x in zip(ids, scores)]
    path.write_text("sample_id,true_class,source_id,label,score_a\n" + "".join(rows))
    ds = load_dataset(str(path))
    assert ds.sample_ids.tolist() == [int(t) for t in ids]
    want = np.array([float(x) for x in scores])
    assert ds.scores.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _is_score(text):
    try:
        return 0.0 <= float(text) <= 1.0
    except ValueError:
        return False


@pytest.mark.parametrize(
    "text",
    [
        ".123456789012345",  # 16 bytes, 15 after the point
        "0.12345678901234",
        "-.000000000000000",
        "1.00000000000000",
        "0000000000000001",
        "00000000000000.5",
        "0.000000000000001",  # 17 bytes: read by numpy's bytes cast
        "0.30000000000000004",
        "0" * 30 + ".5",  # 32 bytes, the longest the cast takes
        "0" * 31 + ".5",  # read by float()
        "0." + "0" * 40 + "1",
        "1.",
        ".5",
        "-0",
        "0.5.5",
        "..5",
        "-",
        "5-",
        "0.-5",
        "1e0",
    ],
)
def test_load_dataset_reads_edge_decimals_as_float_does(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(_HEADER + f"0,a,s1,a,0.5,{text}\n")
    try:
        want = float(text)
    except ValueError:
        with pytest.raises(ValidationError, match="is not a number"):
            load_dataset(str(path))
        return
    got = load_dataset(str(path)).scores[0, 0, 1]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_load_dataset_tells_long_names_apart_by_every_byte(tmp_path):
    # Names longer than a word that share their first 8 or 16 bytes, and
    # share them with a shorter name.
    classes = ["category_one", "category_two", "category_", "c" * 17, "c" * 16 + "d"]
    sources = ("source_long_1", "source_long_2", "source_l")
    n, m, k = 10, len(sources), len(classes)
    rng = np.random.default_rng(0)
    ds = Dataset(
        make_frame(classes), sources, np.arange(n), rng.integers(0, k, n),
        rng.integers(0, k, (n, m)), rng.random((n, m, k)),
    )
    path = tmp_path / "data.csv"
    save_dataset(ds, str(path))
    loaded = load_dataset(str(path))
    assert loaded.source_ids == sources
    assert loaded.truth.tolist() == ds.truth.tolist()
    assert loaded.labels.tolist() == ds.labels.tolist()


def test_load_dataset_tells_a_name_from_a_longer_one_with_nul_bytes(tmp_path):
    # csv.reader reads NUL bytes from Python 3.11 on. "abc" and an 8-byte id
    # of "abc", NULs and one more byte share the first 8 bytes once the
    # length is folded into them, so only the length tells them apart.
    path = tmp_path / "data.csv"
    long_id = "abc\0\0\0\0\x0b"
    rows = [f"0,a,{source},a,0.5\n" for source in ("abc", long_id)]
    path.write_text("sample_id,true_class,source_id,label,score_a\n" + "".join(rows))
    if sys.version_info < (3, 11):
        with pytest.raises(ValidationError, match="line 3"):
            load_dataset(str(path))
    else:
        assert load_dataset(str(path)).source_ids == ("abc", long_id)


def test_loading_builds_no_writer_tables(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(_HEADER + "0,a,s1,a,0.5,0.5\n")
    evifuse.io._score_words.cache_clear()
    load_dataset(str(path))
    assert evifuse.io._score_words.cache_info().currsize == 0


# class names and source ids that csv.writer must quote, or that hold spaces
_NAME = st.text(alphabet='ab ,"', min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    classes=st.lists(_NAME, min_size=1, max_size=4, unique=True),
    sources=st.lists(_NAME | st.just(""), min_size=1, max_size=3, unique=True),
    sample_ids=st.lists(
        st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5, unique=True
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_dataset_writes_what_csv_writer_writes(classes, sources, sample_ids, seed):
    rng = np.random.default_rng(seed)
    n, m, k = len(sample_ids), len(sources), len(classes)
    truth, labels = rng.integers(0, k, n), rng.integers(0, k, (n, m))
    scores = rng.random((n, m, k))
    ds = Dataset(
        make_frame(classes), tuple(sources), np.array(sample_ids), truth, labels, scores
    )
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(
        ["sample_id", "true_class", "source_id", "label"]
        + [f"score_{c}" for c in classes]
    )
    for i in range(n):
        for j in range(m):
            writer.writerow(
                [sample_ids[i], classes[truth[i]], sources[j], classes[labels[i, j]]]
                + [f"{x:.9f}" for x in scores[i, j]]
            )
    # in one block, and in blocks of one and of two samples
    for block_rows in (evifuse.io._BLOCK_ROWS, m, 2 * m):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            evifuse.io, "_BLOCK_ROWS", block_rows
        ):
            first, again = Path(tmp, "a.csv"), Path(tmp, "b.csv")
            save_dataset(ds, str(first))
            assert first.read_bytes() == expected.getvalue().encode()
            save_dataset(load_dataset(str(first)), str(again))
            assert again.read_bytes() == first.read_bytes()


# Scores whose '%.9f' the array writer must get right: signed zero, the
# ends of [0, 1], the float below 1, a scaled value of 0.5, the smallest
# subnormal, ties of the rounding (j/1024 * 1e9 is a half-integer for odd j)
# and floats next to q + 1/2 nanounits.
_EDGE_SCORES = [-0.0, 0.0, 1.0, 1 - 2**-53, 5e-10, 5e-324]
_SCORE = (
    st.sampled_from(_EDGE_SCORES)
    | st.integers(0, 1024).map(lambda j: j / 1024)
    | st.integers(0, 10**9 - 1).map(lambda q: (q + 0.5) / 1e9)
    | st.floats(0, 1)
)


@settings(max_examples=80, deadline=None)
@given(
    classes=st.lists(_NAME, min_size=1, max_size=4, unique=True),
    sources=st.lists(_NAME | st.just(""), min_size=1, max_size=3, unique=True),
    sample_ids=st.lists(
        st.integers(-(2**53), 2**53), min_size=1, max_size=5, unique=True
    ),
    whole_floats=st.booleans(),
    data=st.data(),
)
def test_save_dataset_writes_what_the_row_oracle_writes(
    classes, sources, sample_ids, whole_floats, data
):
    n, m, k = len(sample_ids), len(sources), len(classes)
    classes_of = st.integers(0, k - 1)
    truth = data.draw(st.lists(classes_of, min_size=n, max_size=n))
    labels = data.draw(st.lists(classes_of, min_size=n * m, max_size=n * m))
    scores = data.draw(st.lists(_SCORE, min_size=n * m * k, max_size=n * m * k))
    ds = Dataset(
        make_frame(classes),
        tuple(sources),
        np.array(sample_ids, dtype=float if whole_floats else np.int64),
        np.array(truth),
        np.array(labels).reshape(n, m),
        np.array(scores).reshape(n, m, k),
    )
    with tempfile.TemporaryDirectory() as tmp:
        expected, got = Path(tmp, "oracle.csv"), Path(tmp, "saved.csv")
        write_dataset_csv(ds, str(expected))
        for block_rows in (evifuse.io._BLOCK_ROWS, 2, m):
            with mock.patch.object(evifuse.io, "_BLOCK_ROWS", block_rows):
                save_dataset(ds, str(got))
            assert got.read_bytes() == expected.read_bytes()


def test_save_dataset_writes_each_edge_score_as_the_row_oracle_does(tmp_path):
    # every edge score and every j/1024, in one column
    scores = np.array(_EDGE_SCORES + [j / 1024 for j in range(1025)])
    n = len(scores)
    ds = Dataset(
        make_frame(["a"]), ("s",), np.arange(n), np.zeros(n, int),
        np.zeros((n, 1), int), scores.reshape(n, 1, 1),
    )
    save_dataset(ds, str(tmp_path / "saved.csv"))
    write_dataset_csv(ds, str(tmp_path / "oracle.csv"))
    saved = (tmp_path / "saved.csv").read_bytes()
    assert saved == (tmp_path / "oracle.csv").read_bytes()
    assert saved.splitlines()[1:7] == [
        b"0,a,s,a,-0.000000000",
        b"1,a,s,a,0.000000000",
        b"2,a,s,a,1.000000000",
        b"3,a,s,a,1.000000000",
        b"4,a,s,a,0.000000001",
        b"5,a,s,a,0.000000000",
    ]


def _six_class_dataset(**arrays):
    frame = make_frame([f"c{i}" for i in range(6)])
    base = dict(
        sample_ids=np.arange(3),
        truth=np.array([0, 1, 2]),
        labels=np.array([[0, 1], [1, 1], [2, 5]]),
        scores=np.full((3, 2, 6), 0.5),
    )
    return Dataset(frame, ("s1", "s2"), **{**base, **arrays})


def _scores_with(value):
    scores = np.full((3, 2, 6), 0.5)
    scores[1, 0, 3] = value
    return scores


@pytest.mark.parametrize(
    "arrays, message",
    [
        (dict(scores=_scores_with(1.5)), r"scores must lie in \[0, 1\]"),
        (dict(scores=_scores_with(-0.5)), r"scores must lie in \[0, 1\]"),
        (dict(scores=_scores_with(math.nan)), "scores must be finite"),
        (dict(sample_ids=np.array([4, 7, 4])), "sample ids must be unique"),
        (dict(labels=np.array([[0, 1], [9, 1], [2, 5]])), "class index 9 out of"),
        (dict(truth=np.array([0, -1, 2])), "class index -1 out of range"),
        (dict(labels=np.full((3, 2), 1.5)), "class index 1.5 is not an integer"),
        (dict(sample_ids=np.array([0.5, 1.5, 2.5])), "sample id 0.5 is not an integer"),
        (dict(sample_ids=np.array([0, math.nan, 2])), "sample id nan is not an"),
        (
            dict(sample_ids=np.array([0, 2.0**63, 2])),
            "sample id 9.223372036854776e\\+18 does not fit in 64 bits",
        ),
        (
            dict(sample_ids=np.array([0, 2**63, 2], dtype=np.uint64)),
            "sample id 9223372036854775808 does not fit in 64 bits",
        ),
        (dict(sample_ids=np.array(["a", "b", "c"])), "sample ids must be integers"),
    ],
)
def test_save_dataset_refuses_what_load_dataset_rejects(tmp_path, arrays, message):
    # The file is not even created: a score outside [0, 1] or a repeated id
    # would be written and then rejected on load, and a label out of range
    # would fail halfway through the write.
    path = tmp_path / "data.csv"
    with pytest.raises(ValidationError, match=f"data.csv: cannot write: {message}"):
        save_dataset(_six_class_dataset(**arrays), str(path))
    assert not path.exists()
    with pytest.raises(ValueError, match=f"^{message}"):
        _six_class_dataset(**arrays).checked()


def test_save_dataset_writes_whole_float_classes_as_classes(tmp_path):
    ds = _six_class_dataset(truth=np.array([0.0, 1.0, 2.0]))
    path = tmp_path / "data.csv"
    save_dataset(ds, str(path))
    assert load_dataset(str(path)).truth.tolist() == [0, 1, 2]


def test_save_dataset_writes_whole_float_sample_ids_as_integers(tmp_path):
    # Written as load_dataset reads them, and as the same ids in int64 write.
    ids = np.array([-(2.0**63), 7.0, 2.0**62])
    floats, ints = tmp_path / "floats.csv", tmp_path / "ints.csv"
    save_dataset(_six_class_dataset(sample_ids=ids), str(floats))
    save_dataset(_six_class_dataset(sample_ids=ids.astype(np.int64)), str(ints))
    assert floats.read_bytes() == ints.read_bytes()
    assert load_dataset(str(floats)).sample_ids.tolist() == [-(2**63), 7, 2**62]


def _load_row_by_row(path):
    """Reference loader: the checks of load_dataset one row at a time, in
    order. Returns the error message, or the loaded arrays."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header, *body = reader
        except csv.Error as exc:  # a NUL byte before Python 3.11
            return f"line {reader.line_num}: {exc}"
    classes = [c.removeprefix("score_") for c in header[4:]]
    samples = {}
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            return f"line {lineno}: expected {len(header)} fields, got {len(row)}"
        try:
            sample_id = int(row[0])
        except ValueError:
            return f"line {lineno}: sample_id {row[0]!r} is not an integer"
        if not -(2**63) <= sample_id < 2**63:
            return f"line {lineno}: sample_id {row[0]!r} does not fit in 64 bits"
        for name in (row[1], row[3]):
            if name not in classes:
                return f"line {lineno}: unknown class name {name!r}"
        for col, text in zip(header[4:], row[4:]):
            try:
                value = float(text)
            except ValueError:
                return f"line {lineno}: {col} value {text!r} is not a number"
            if not 0.0 <= value <= 1.0:
                return f"line {lineno}: {col} value {text} outside [0, 1]"
        truth, sources = samples.setdefault(sample_id, (row[1], {}))
        if truth != row[1]:
            return f"line {lineno}: sample {sample_id} has inconsistent true class"
        if row[2] in sources:
            return f"line {lineno}: duplicate source {row[2]!r} for sample {sample_id}"
        sources[row[2]] = [classes.index(row[3])] + [float(x) for x in row[4:]]
    source_ids = list(next(iter(samples.values()))[1])
    for sample_id, (_, sources) in samples.items():
        if list(sources) != source_ids:
            return f"sample {sample_id} does not cover sources {source_ids}"
    return (
        source_ids,
        list(samples),
        [classes.index(truth) for truth, _ in samples.values()],
        [[sources[s] for s in source_ids] for _, sources in samples.values()],
    )


_FIELDS = {  # per column kind, valid values first, then ones that fail a check
    "id": ["0", "1", "00", " 2", "1_0", "-3", "x", "", "1.5", "99999999999999999999"],
    "class": ["a", "b", "a", "b", "z", ""],
    "source": ["s1", "s2", "s3"],
    "score": ["0.5", "0", "1", " 0.25", "nan", "inf", "-0.1", "1e999", "x", ""],
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_dataset_matches_row_by_row_reference(tmp_path_factory, data):
    """Whole-column checks name the same first bad line, with the same
    message, as checking row by row; valid files load the same arrays."""
    _check_against_row_by_row_reference(tmp_path_factory, data)


@pytest.mark.parametrize("block_rows", [1, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_dataset_in_small_blocks_matches_row_by_row_reference(
    tmp_path_factory, data, block_rows
):
    """The same, with blocks of one or two rows, so that a sample's rows and
    the rows a check compares lie in different blocks."""
    with mock.patch.object(evifuse.io, "_BLOCK_ROWS", block_rows):
        _check_against_row_by_row_reference(tmp_path_factory, data)


def _check_against_row_by_row_reference(tmp_path_factory, data):
    draw = data.draw
    k, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    sources = draw(st.permutations(_FIELDS["source"]))[: draw(st.integers(1, 3))]
    rows = [
        [str(i), "ab"[i % k], s, "ab"[(i + j) % k]] + ["0.5"] * k
        for i in range(n)
        for j, s in enumerate(sources)
    ]
    rows = draw(st.permutations(rows)) if draw(st.booleans()) else rows
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, 3 + k))
        kind = ["id", "class", "source", "class"][c] if c < 4 else "score"
        rows[r][c] = draw(st.sampled_from(_FIELDS[kind]))
    for _ in range(draw(st.integers(0, 1))):  # a repeated, lost or cut row
        r = draw(st.integers(0, len(rows) - 1))
        cut = draw(st.integers(0, 5 + k))
        rows.insert(draw(st.integers(0, len(rows))), (rows[r] + ["0"])[:cut])
        if draw(st.booleans()):
            del rows[r]
    # Bytes that hand the rest of the file to csv.reader, from a drawn row on:
    # a quoted field (holding a comma, a doubled quote or a newline), a NUL
    # and CRLF line ends; and blank lines and a missing final newline, which
    # both readers take.
    sometimes = st.sampled_from([False, False, True])
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    if cells and draw(sometimes):
        r, c = draw(st.sampled_from(cells))
        inside = draw(st.sampled_from(["", ",x", '""', "\n"]))
        rows[r][c] = f'"{rows[r][c]}{inside}"'
    if cells and draw(sometimes):
        r, c = draw(st.sampled_from(cells))
        rows[r][c] += "\0"
    for _ in range(draw(st.integers(0, 2)) if draw(sometimes) else 0):
        rows.insert(draw(st.integers(0, len(rows))), [])
    crlf_from = draw(st.integers(0, len(rows))) if draw(sometimes) else len(rows) + 1
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    header = "sample_id,true_class,source_id,label," + ",".join(
        f"score_{c}" for c in "ab"[:k]
    )
    lines = [header] + [",".join(row) for row in rows]
    text = "".join(
        line + ("\r\n" if i >= crlf_from else "\n") for i, line in enumerate(lines)
    )
    if lines[-1] and draw(sometimes):  # a blank last line needs its newline
        text = text.removesuffix("\n").removesuffix("\r")
    path.write_bytes(text.encode())
    expected = _load_row_by_row(path)
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}: {expected}"
    else:
        ds = load_dataset(str(path))
        source_ids, sample_ids, truth, rest = expected
        assert (list(ds.source_ids), ds.sample_ids.tolist()) == (source_ids, sample_ids)
        assert ds.truth.tolist() == truth
        assert ds.labels.tolist() == [[row[0] for row in sample] for sample in rest]
        assert ds.scores.tolist() == [[row[1:] for row in sample] for sample in rest]


def test_load_dataset_rejects_unknown_class(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,z,s1,a,0.5,0.5\n"
    )
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(str(path))


def test_load_dataset_rejects_malformed_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,a,s1,a,0.5\n"
    )
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(str(path))


def test_load_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        load_dataset(str(path))
    path.write_text("sample_id,true_class,source_id,label,score_a\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_dataset(str(path))


def test_load_dataset_rejects_inconsistent_truth(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,a,s1,a,0.5,0.5\n"
        "0,b,s2,a,0.5,0.5\n"
    )
    with pytest.raises(ValidationError, match="inconsistent"):
        load_dataset(str(path))


def test_load_dataset_custom_truth_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "sample_id,gt,source_id,label,score_a,score_b\n"
        "0,a,s1,b,0.25,0.75\n"
    )
    ds = load_dataset(str(path), truth_col="gt")
    assert ds.truth.tolist() == [0]
    assert ds.labels.tolist() == [[1]]


def test_load_dataset_keys_samples_by_integer_id(tmp_path):
    """"0" and "00" are one sample, so the file survives load, save, load."""
    path, again = tmp_path / "data.csv", tmp_path / "again.csv"
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,a,s1,a,0.5,0.5\n"
        "00,a,s2,b,0.25,0.75\n"
    )
    ds = load_dataset(str(path))
    assert ds.sample_ids.tolist() == [0]
    assert ds.source_ids == ("s1", "s2")
    save_dataset(ds, str(again))
    loaded = load_dataset(str(again))
    assert loaded.sample_ids.tolist() == [0]
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.scores, ds.scores)
    path.write_text(
        "sample_id,true_class,source_id,label,score_a,score_b\n"
        "0,a,s1,a,0.5,0.5\n"
        "00,b,s1,b,0.25,0.75\n"
    )
    with pytest.raises(ValidationError, match="line 3.*inconsistent"):
        load_dataset(str(path))


@pytest.mark.parametrize(
    "score_cols",
    [
        "score_a,score_a",
        "score_,score_b",
        ",".join(f"score_c{i}" for i in range(MAX_CLASSES + 1)),
    ],
    ids=["duplicate", "empty", "too_many"],
)
def test_load_dataset_header_class_errors_name_line_1(tmp_path, score_cols):
    path = tmp_path / "data.csv"
    n = score_cols.count(",") + 1
    path.write_text(
        f"sample_id,true_class,source_id,label,{score_cols}\n"
        f"0,a,s1,a,{','.join(['0.5'] * n)}\n"
    )
    with pytest.raises(ValidationError, match="line 1"):
        load_dataset(str(path))


def test_config_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "config.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    # and the file itself is stable
    text = path.read_text()
    save_config(load_config(str(path)), str(path))
    assert path.read_text() == text


def test_config_dict_round_trip():
    cfg = default_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_rejects_unknown_keys():
    data = config_to_dict(default_config())
    data["bogus"] = 1
    with pytest.raises(ValidationError):
        config_from_dict(data)


def test_config_rejects_missing_required_keys():
    data = config_to_dict(default_config())
    del data["classes"]
    with pytest.raises(ValidationError):
        config_from_dict(data)


@pytest.mark.parametrize(
    "block, value",
    [
        ("vote", 1),
        ("vote", {"c": 0.0, "bogus": 1}),
        ("appriou", {"as_printed": "false"}),
        ("appriou", {"as_printed": 0}),
    ],
    ids=["non_object_block", "unknown_block_key", "string_bool", "int_bool"],
)
def test_config_rejects_malformed_blocks(block, value):
    data = config_to_dict(default_config())
    data[block] = value
    with pytest.raises(ValidationError):
        config_from_dict(data)


@pytest.mark.parametrize(
    "keys, value",
    [
        (("denoeux", "k"), 2.5),
        (("denoeux", "k"), True),
        (("n_samples",), 2400.9),
        (("n_samples",), True),
        (("n_trials",), 1.5),
        (("seed",), True),
        (("seed",), "3"),
        (("vote", "c"), True),
        (("vote", "b"), False),
        (("denoeux", "alpha"), True),
        (("sources", 0, "temperature"), True),
        (("sources", 0, "reliability", 0), True),
        (("sources", 0, "reliability", 0), "0.5"),
        (("sources", 0, "reliability"), "0.9"),
        (("sources", 0, "id"), 7),
        (("sources", 0), ["s1"]),
        (("sources",), {"id": "s1"}),
        (("priors", 0), "0.5"),
        (("priors",), 1.0),
        (("classes",), "abc"),
        (("classes", 0), 1),
    ],
    ids=lambda v: repr(v) if not isinstance(v, tuple) else ".".join(map(str, v)),
)
def test_config_numbers_are_not_truncated_or_coerced(keys, value):
    data = config_to_dict(default_config())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ValidationError, match=r"config key \S+ must be"):
        config_from_dict(data)


def test_config_rejects_unknown_source_keys():
    data = config_to_dict(default_config())
    data["sources"][0]["temprature"] = data["sources"][0].pop("temperature")
    with pytest.raises(ValidationError, match="temprature"):
        config_from_dict(data)


def test_config_integral_numbers_are_integers():
    data = config_to_dict(default_config())
    data["n_samples"], data["denoeux"]["k"], data["vote"]["c"] = 2400.0, 5.0, 1
    cfg = config_from_dict(data)
    assert (cfg.n_samples, cfg.fusion.denoeux_k, cfg.fusion.vote_c) == (2400, 5, 1.0)
    assert type(cfg.n_samples) is int and type(cfg.fusion.denoeux_k) is int
    assert type(cfg.fusion.vote_c) is float


def test_config_defaults_fill_missing_keys():
    data = config_to_dict(default_config())
    for key in ("n_trials", "seed", "vote", "possibility", "denoeux", "appriou"):
        del data[key]
    data["denoeux"] = {"k": 5}
    cfg = config_from_dict(data)
    assert (cfg.n_trials, cfg.seed) == (SimConfig.n_trials, SimConfig.seed)
    assert cfg.fusion == FusionSettings(denoeux_k=5)


@pytest.mark.parametrize("name", [f.name for f in fields(FusionSettings)])
def test_config_fusion_field_is_a_key_of_its_block(name):
    # FusionSettings field <block>_<key> is key <key> of the object <block>.
    block, _, key = name.partition("_")
    cfg = default_config()
    data = config_to_dict(cfg)
    assert data[block][key] == getattr(cfg.fusion, name)
    assert config_from_dict(data) == cfg
    data[block][key] = []
    with pytest.raises(ValidationError, match=rf"config key {block}\.{key} must be"):
        config_from_dict(data)
    del data[block][key]
    default = FusionSettings()
    assert getattr(config_from_dict(data).fusion, name) == getattr(default, name)


def test_config_rejects_top_level_fusion_key():
    # SimConfig.fusion is spread over the method blocks, so it is not a key.
    data = config_to_dict(default_config())
    data["fusion"] = {"vote_c": 0.5}
    with pytest.raises(ValidationError, match=r"unknown keys in config: \['fusion'\]"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("sources", 0, "id"), None, "config key sources.0.id is required"),
        (
            ("sources", 0, "reliability", 2),
            "0.9",
            "config key sources.0.reliability.2 must be a number",
        ),
    ],
    ids=["missing", "nested"],
)
def test_config_errors_name_the_dotted_path(keys, value, message):
    data = config_to_dict(default_config())
    target = data
    for key in keys[:-1]:
        target = target[key]
    if value is None:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        config_from_dict(data)


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_config(str(path))


def _report_dict():
    cfg = default_config(n_samples=60, n_trials=1)
    return report_to_dict(run_experiment(cfg, ["vote_majority"]))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "make, keys, load",
    [
        (lambda: config_to_dict(default_config()), ("priors", 0), load_config),
        (lambda: config_to_dict(default_config()), ("vote", "b"), load_config),
        (_report_dict, ("methods", "vote_majority", "accuracy"), load_report),
    ],
)
def test_json_rejects_non_finite_numbers(tmp_path, literal, make, keys, load):
    # Python's json reads NaN and Infinity, and 1e999 overflows to inf.
    data = make()
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 0.125  # a number that appears nowhere else
    text = json.dumps(data)
    assert text.count("0.125") == 1
    path = tmp_path / "file.json"
    path.write_text(text.replace("0.125", literal))
    with pytest.raises(ValidationError, match=f"{re.escape(literal)} is not a finite"):
        load(str(path))


@pytest.mark.parametrize(
    "make, load",
    [
        (lambda: config_to_dict(default_config()), load_config),
        (_report_dict, load_report),
    ],
    ids=["config", "report"],
)
def test_json_rejects_invalid_utf8(tmp_path, make, load):
    # As for the dataset CSV, the file is decoded ahead of the parser.
    path = tmp_path / "file.json"
    path.write_bytes(json.dumps(make()).encode().replace(b"}", b', "\xff": 1}', 1))
    with pytest.raises(ValidationError) as info:
        load(str(path))
    assert str(info.value) == f"{path}: not valid UTF-8: invalid start byte"


def test_report_round_trip(tmp_path):
    cfg = default_config(n_samples=120, n_trials=2)
    report = run_experiment(cfg, ["vote_majority", "belief_appriou"])
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(report, str(p1))
    loaded = load_report(str(p1))
    assert loaded == report
    save_report(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_report_json_structure(tmp_path):
    cfg = default_config(n_samples=120, n_trials=2)
    report = run_experiment(cfg, ["vote_majority"])
    path = tmp_path / "report.json"
    save_report(report, str(path))
    data = json.loads(path.read_text())
    assert set(data) == {"seed", "n_trials", "methods", "source_accuracy"}
    entry = data["methods"]["vote_majority"]
    assert set(entry) == {
        "accuracy",
        "per_class",
        "conflict_rate",
        "mean_conflict_mass",
    }
    assert set(entry["per_class"]) == set(cfg.classes)


def small_report_dict():
    cfg = default_config(n_samples=60, n_trials=2)
    return report_to_dict(run_experiment(cfg, ["vote_majority"]))


@pytest.mark.parametrize(
    "keys, value",
    [
        (("methods", "vote_majority", "accuracy"), "0.5"),
        (("methods", "vote_majority", "conflict_rate"), True),
        (("methods", "vote_majority", "per_class", "c1"), True),
        (("methods", "vote_majority", "per_class"), [0.5]),
        (("methods", "vote_majority"), 0.5),
        (("seed",), True),
        (("n_trials",), "2"),
        (("n_trials",), 2.7),
        (("source_accuracy", "s1"), "0.9"),
    ],
    ids=lambda v: repr(v) if not isinstance(v, tuple) else ".".join(map(str, v)),
)
def test_report_numbers_are_not_truncated_or_coerced(keys, value):
    data = small_report_dict()
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ValidationError, match=r"report key \S+ must be"):
        report_from_dict(data)


def test_report_integral_numbers_are_integers():
    data = small_report_dict()
    data["n_trials"], data["methods"]["vote_majority"]["accuracy"] = 2.0, 1
    report = report_from_dict(data)
    assert type(report.n_trials) is int and report.n_trials == 2
    assert type(report.methods["vote_majority"].accuracy) is float


@pytest.mark.parametrize("key", ["methods", "seed", "source_accuracy"])
def test_report_rejects_missing_keys(key):
    data = small_report_dict()
    del data[key]
    with pytest.raises(ValidationError, match="invalid report"):
        report_from_dict(data)


@pytest.mark.parametrize(
    "keys", [("seed",), ("methods", "vote_majority", "accuracy")], ids=".".join
)
def test_report_missing_key_names_its_path(keys):
    data = small_report_dict()
    target = data
    for key in keys[:-1]:
        target = target[key]
    del target[keys[-1]]
    message = f"report key {'.'.join(keys)} is required"
    with pytest.raises(ValidationError, match=re.escape(message)):
        report_from_dict(data)


@pytest.mark.parametrize(
    "keys", [(), ("methods", "vote_majority")], ids=["top", "method"]
)
def test_report_rejects_unknown_keys(keys):
    data = small_report_dict()
    target = data
    for key in keys:
        target = target[key]
    target["bogus"] = 1
    with pytest.raises(ValidationError, match=r"unknown keys in report.*'bogus'"):
        report_from_dict(data)


def test_save_report_refuses_non_finite_numbers_before_opening():
    # load_report rejects NaN and the infinities, so no report holds them:
    # the constructor refuses them, and save_report never sees one.
    report = report_from_dict(small_report_dict())
    for bad in (math.nan, math.inf, -math.inf):
        message = "report key source_accuracy.s1 must be finite"
        with pytest.raises(ValueError, match=message):
            replace(report, source_accuracy={"s1": bad})


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(n_trials=0), "report key n_trials must be at least 1"),
        (dict(seed=-1), "seed must fit in an unsigned 64-bit integer"),
        (dict(seed=2**64), "seed must fit in an unsigned 64-bit integer"),
        (dict(source_accuracy={"s1": 1.5}), "report key source_accuracy.s1 must lie"),
    ],
    ids=["n_trials", "negative seed", "large seed", "rate"],
)
def test_save_report_refuses_what_load_report_rejects(change, message):
    # The constructor runs load_report's checks, so save_report is never
    # handed a report that load_report would reject.
    report = report_from_dict(small_report_dict())
    with pytest.raises(ValueError, match=message):
        replace(report, **change)


def _with_scalars(report, ints, floats):
    """report with ints(value) for the seed and n_trials and floats(value)
    for every rate and mass."""
    def rates(d):
        return {k: floats(v) for k, v in d.items()}

    methods = {
        name: replace(
            r,
            accuracy=floats(r.accuracy),
            per_class=rates(r.per_class),
            conflict_rate=floats(r.conflict_rate),
            mean_conflict_mass=floats(r.mean_conflict_mass),
        )
        for name, r in report.methods.items()
    }
    return replace(
        report,
        seed=ints(report.seed),
        n_trials=ints(report.n_trials),
        methods=methods,
        source_accuracy=rates(report.source_accuracy),
    )


@pytest.mark.parametrize("floats", [np.float32, np.float64])
def test_save_report_writes_numpy_scalars_as_python_numbers(tmp_path, floats):
    # The constructor stores Python ints and floats, so the report has the
    # same bytes as its twin of int() and float() values and reads back equal
    # to it; json.dumps alone raises TypeError on np.int64 and np.float32.
    cfg = default_config(n_samples=120, n_trials=2)
    report = _with_scalars(
        run_experiment(cfg, ["vote_majority", "belief_appriou"]), np.int64, floats
    )
    assert type(report.seed) is type(report.n_trials) is int
    rates = [*report.source_accuracy.values()]
    for r in report.methods.values():
        rates += [r.accuracy, r.conflict_rate, r.mean_conflict_mass]
        rates += r.per_class.values()
    assert {type(x) for x in rates} == {float}
    twin = _with_scalars(report, int, float)
    numpy_path, twin_path = tmp_path / "numpy.json", tmp_path / "twin.json"
    save_report(report, str(numpy_path))
    save_report(twin, str(twin_path))
    assert numpy_path.read_bytes() == twin_path.read_bytes()
    assert load_report(str(numpy_path)) == twin
    for bad, rule in [(floats(math.nan), "be finite"), (floats(1.5), "lie in")]:
        message = f"report key source_accuracy.s1 must {rule}"
        with pytest.raises(ValueError, match=message):
            replace(report, source_accuracy={"s1": bad})


@pytest.mark.parametrize(
    "make, keys, load, message",
    [
        (
            lambda: config_to_dict(default_config()),
            ("vote", "b"),
            load_config,
            "invalid config: config key vote.b does not fit in a float",
        ),
        (
            small_report_dict,
            ("methods", "vote_majority", "accuracy"),
            load_report,
            "invalid report: report key methods.vote_majority.accuracy does not fit",
        ),
    ],
    ids=["config", "report"],
)
def test_json_readers_refuse_an_integer_beyond_the_largest_float(
    tmp_path, make, keys, load, message
):
    data = make()
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 10**400
    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=re.escape(message)):
        load(str(path))


@pytest.mark.parametrize("seed", [-5, 2**64])
def test_report_seed_must_be_a_valid_seed(seed):
    data = small_report_dict()
    data["seed"] = seed
    with pytest.raises(ValidationError, match="invalid report: seed must fit"):
        report_from_dict(data)


@pytest.mark.parametrize("n_trials", [0, -1])
def test_report_needs_at_least_one_trial(n_trials):
    data = small_report_dict()
    data["n_trials"] = n_trials
    with pytest.raises(ValidationError, match="report key n_trials must be at least 1"):
        report_from_dict(data)


@pytest.mark.parametrize(
    "keys",
    [
        ("methods", "vote_majority", "accuracy"),
        ("methods", "vote_majority", "per_class", "c1"),
        ("methods", "vote_majority", "conflict_rate"),
        ("methods", "vote_majority", "mean_conflict_mass"),
        ("source_accuracy", "s1"),
    ],
    ids=".".join,
)
@pytest.mark.parametrize("value", [1.5, -0.25])
def test_report_rates_and_masses_lie_in_the_unit_interval(keys, value):
    data = small_report_dict()
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    message = f"report key {'.'.join(keys)} must lie in [0, 1], got {value}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        report_from_dict(data)
    target[keys[-1]] = 1.0 if value > 1 else 0.0
    report_from_dict(data)
