"""Dataset CSV and config/report JSON round trips plus validation errors."""

import json

import numpy as np
import pytest

from evifuse import (
    MAX_CLASSES,
    FusionSettings,
    SimConfig,
    ValidationError,
    default_config,
    load_config,
    load_dataset,
    load_report,
    run_experiment,
    save_config,
    save_dataset,
    save_report,
    simulate,
)
from evifuse.io import config_from_dict, config_to_dict


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
