"""Dataset CSV and config/report JSON round trips plus validation errors."""

import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse import (
    MAX_CLASSES,
    Dataset,
    FusionSettings,
    SimConfig,
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
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        save_dataset(ds, str(first))
        assert first.read_bytes() == expected.getvalue().encode()
        save_dataset(load_dataset(str(first)), str(again))
        assert again.read_bytes() == first.read_bytes()


def _load_row_by_row(path):
    """Reference loader: the checks of load_dataset one row at a time, in
    order. Returns the error message, or the loaded arrays."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *body = csv.reader(fh)
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
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    header = "sample_id,true_class,source_id,label," + ",".join(
        f"score_{c}" for c in "ab"[:k]
    )
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
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


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_config(str(path))


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
