"""CLI subcommands, file handling, and exit codes."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from evifuse import __version__, default_config, save_config
from evifuse.cli import main


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


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.output
