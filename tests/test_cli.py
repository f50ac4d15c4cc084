"""CLI subcommands, file handling, and exit codes."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from evifuse import (
    FusionSettings,
    SimConfig,
    SourceProfile,
    __version__,
    default_config,
    evaluate_dataset,
    load_dataset,
    save_config,
)
from evifuse.cli import main
from evifuse.io import report_to_dict


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(n_samples=150, n_trials=2), str(path))
    return str(path)


def test_simulate_writes_csv(runner, config_path, tmp_path):
    out = tmp_path / "data.csv"
    result = runner.invoke(
        main, ["simulate", "--config", config_path, "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header = out.read_text().splitlines()[0]
    assert header.startswith("sample_id,true_class,source_id,label,score_")


def test_run_writes_report(runner, config_path, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        [
            "run",
            "--config",
            config_path,
            "--methods",
            "vote_majority,belief_appriou",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    data = json.loads(out.read_text())
    assert set(data["methods"]) == {"vote_majority", "belief_appriou"}


def test_seed_override_changes_report(runner, config_path, tmp_path):
    outs = []
    for seed in ("7", "8"):
        out = tmp_path / f"report{seed}.json"
        result = runner.invoke(
            main,
            [
                "run",
                "--config",
                config_path,
                "--methods",
                "vote_majority",
                "--out",
                str(out),
                "--seed",
                seed,
            ],
        )
        assert result.exit_code == 0, result.output
        outs.append(json.loads(out.read_text()))
    assert outs[0]["seed"] == 7 and outs[1]["seed"] == 8
    assert outs[0] != outs[1]


def test_eval_roundtrip(runner, config_path, tmp_path):
    data_path = tmp_path / "data.csv"
    report_path = tmp_path / "report.json"
    assert (
        runner.invoke(
            main, ["simulate", "--config", config_path, "--out", str(data_path)]
        ).exit_code
        == 0
    )
    result = runner.invoke(
        main,
        [
            "eval",
            "--dataset",
            str(data_path),
            "--truth-col",
            "true_class",
            "--methods",
            "vote_majority,possibility_max",
            "--out",
            str(report_path),
            "--trials",
            "2",
            "--seed",
            "3",
        ],
    )
    assert result.exit_code == 0, result.output
    data = json.loads(report_path.read_text())
    assert data["seed"] == 3
    assert data["n_trials"] == 2


def test_unknown_method_exits_2(runner, config_path, tmp_path):
    result = runner.invoke(
        main,
        [
            "run",
            "--config",
            config_path,
            "--methods",
            "bagging",
            "--out",
            str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert "error:" in result.output


def test_missing_config_exits_2(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "simulate",
            "--config",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "d.csv"),
        ],
    )
    assert result.exit_code == 2


def test_invalid_dataset_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_id,true_class,source_id,label,score_a\n0,a,s1,a,2.0\n")
    result = runner.invoke(
        main,
        [
            "eval",
            "--dataset",
            str(bad),
            "--methods",
            "vote_majority",
            "--out",
            str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize(
    "row",
    [
        "0,a,s1,a," + "1" * (csv.field_size_limit() + 1),
        "99999999999999999999,a,s1,a,0.5",
    ],
    ids=["oversized_field", "id_outside_int64"],
)
def test_malformed_dataset_exits_2(runner, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"sample_id,true_class,source_id,label,score_a\n{row}\n")
    result = runner.invoke(
        main,
        [
            "eval",
            "--dataset",
            str(bad),
            "--methods",
            "vote_majority",
            "--out",
            str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert "error:" in result.output and "line 2" in result.output


def test_invalid_utf8_dataset_exits_2_naming_the_file(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"sample_id,true_class,source_id,label,score_a\n0,\xff,s1,a,0.5\n")
    result = runner.invoke(
        main,
        [
            "eval",
            "--dataset",
            str(bad),
            "--methods",
            "vote_majority",
            "--out",
            str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert f"error: {bad}: not valid UTF-8: invalid start byte" in result.output


def test_invalid_utf8_config_exits_2_naming_the_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n_samples": 150, "\xff": 1}')
    result = runner.invoke(
        main,
        [
            "run",
            "--config",
            str(bad),
            "--methods",
            "vote_majority",
            "--out",
            str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert f"error: {bad}: not valid UTF-8: invalid start byte" in result.output


def test_non_object_config_block_exits_2(runner, config_path, tmp_path):
    data = json.loads(Path(config_path).read_text())
    data["vote"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(
        main,
        [
            "run",
            "--config",
            str(bad),
            "--methods",
            "vote_majority",
            "--out",
            str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert "error:" in result.output


def test_simulate_seed_gives_the_scenario_with_that_seed(runner, tmp_path):
    config = default_config(n_samples=60)
    paths = {}
    for seed in (0, 7):
        paths[seed] = tmp_path / f"seed{seed}.json"
        save_config(replace(config, seed=seed), str(paths[seed]))
    overridden, direct = tmp_path / "overridden.csv", tmp_path / "direct.csv"
    for args, out in (
        (["--config", str(paths[0]), "--seed", "7"], overridden),
        (["--config", str(paths[7])], direct),
    ):
        result = runner.invoke(main, ["simulate", *args, "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert overridden.read_bytes() == direct.read_bytes()
    unseeded = tmp_path / "unseeded.csv"
    runner.invoke(main, ["simulate", "--config", str(paths[0]), "--out", str(unseeded)])
    assert unseeded.read_bytes() != direct.read_bytes()


def test_eval_config_supplies_settings_trials_and_seed(runner, tmp_path):
    fusion = FusionSettings(vote_c=0.3, possibility_operator="min", denoeux_k=5)
    config = replace(default_config(n_samples=90, n_trials=3, seed=11), fusion=fusion)
    config_path, data_path = tmp_path / "config.json", tmp_path / "data.csv"
    out = tmp_path / "report.json"
    save_config(config, str(config_path))
    simulate = ["simulate", "--config", str(config_path), "--out", str(data_path)]
    assert runner.invoke(main, simulate).exit_code == 0
    methods = ["vote_weighted", "possibility", "belief_denoeux"]
    result = runner.invoke(
        main,
        [
            "eval",
            "--dataset",
            str(data_path),
            "--methods",
            ",".join(methods),
            "--out",
            str(out),
            "--config",
            str(config_path),
        ],
    )
    assert result.exit_code == 0, result.output
    expected = evaluate_dataset(
        load_dataset(str(data_path)),
        ["vote_weighted", "possibility_min", "belief_denoeux"],
        settings=fusion,
        n_trials=3,
        seed=11,
    )
    assert json.loads(out.read_text()) == report_to_dict(expected)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--methods", "bagging"], "error: unknown method 'bagging'"),
        (
            ["--methods", "vote_majority", "--config", "missing.json"],
            "missing.json",
        ),
    ],
    ids=["method", "config"],
)
def test_eval_checks_methods_and_config_before_the_dataset(
    runner, tmp_path, args, message
):
    # The dataset may be large, so a mistake elsewhere shows before its read.
    missing = tmp_path / "missing.csv"
    result = runner.invoke(
        main,
        ["eval", "--dataset", str(missing), *args, "--out", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2
    assert message in result.output and "missing.csv" not in result.output


def test_run_rejects_an_integer_beyond_the_largest_float(runner, config_path, tmp_path):
    data = json.loads(Path(config_path).read_text())
    data["vote"]["b"] = 10**400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    result = runner.invoke(
        main,
        ["run", "--config", str(bad), "--methods", "vote_weighted", "--out", str(out)],
    )
    assert result.exit_code == 2
    assert "config key vote.b does not fit in a float" in result.output


@pytest.mark.parametrize(
    "method, s1, s2, seed, message",
    [
        (
            "belief_appriou",
            (0.3, 0.3),
            (0.9, 0.9),
            0,
            "belief_appriou, trial 2: source 's1' has zero success rate on every class",
        ),
        (
            "vote_weighted",
            (0.2, 0.2),
            (0.2, 0.2),
            1,
            "vote_weighted, trial 1: no source was ever correct; vote weights are "
            "undefined",
        ),
    ],
)
def test_calibration_failure_names_the_method_and_the_trial(
    runner, tmp_path, method, s1, s2, seed, message
):
    # Nine samples give each trial three calibration rows, on which a weak
    # source may never be right; the trials before this one calibrate.
    config = SimConfig(
        classes=("a", "b"),
        priors=(0.5, 0.5),
        sources=(SourceProfile("s1", s1), SourceProfile("s2", s2)),
        n_samples=9,
        n_trials=5,
        seed=seed,
    )
    path = tmp_path / "config.json"
    save_config(config, str(path))
    out = tmp_path / "r.json"
    result = runner.invoke(
        main, ["run", "--config", str(path), "--methods", method, "--out", str(out)]
    )
    assert result.exit_code == 2
    assert f"error: {message}" in result.output
    assert not out.exists()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.output
