"""Command line interface: simulate datasets, run and evaluate benchmarks.

The commands that fuse import the protocol (and with it the fusion rules)
when they run, so `evifuse simulate` loads only what simulating and writing
the CSV need.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import wraps

import click

from . import __version__
from .frame import MAX_SEED
from .io import load_config, load_dataset, save_dataset, save_report
from .simulate import FusionSettings, SimConfig, simulate as simulate_dataset


def _guarded(fn):
    """Turn validation failures into exit code 2 with a message on stderr."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_methods(raw: str, settings: FusionSettings) -> list[str]:
    from .experiment import normalize_methods

    names = [part for part in raw.split(",") if part.strip()]
    return normalize_methods(names, settings)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Fuse multi-classifier decisions and benchmark the fusion rules."""


@main.command()
@click.option("--config", "config_path", required=True, metavar="<json>")
@click.option("--out", "out_path", required=True, metavar="<csv>")
@click.option("--seed", type=click.IntRange(0, MAX_SEED), default=None)
@_guarded
def simulate(config_path: str, out_path: str, seed: int | None) -> None:
    """Generate a synthetic multi-source dataset CSV."""
    config = load_config(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    save_dataset(simulate_dataset(config), out_path)
    click.echo(f"wrote {config.n_samples} samples to {out_path}")


@main.command()
@click.option("--config", "config_path", required=True, metavar="<json>")
@click.option("--methods", required=True, metavar="<list>", help="comma-separated")
@click.option("--out", "out_path", required=True, metavar="<json>")
@click.option("--seed", type=click.IntRange(0, MAX_SEED), default=None)
@_guarded
def run(config_path: str, methods: str, out_path: str, seed: int | None) -> None:
    """Simulate the scenario and run the repeated split protocol."""
    from .experiment import run_experiment

    config = load_config(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    report = run_experiment(config, _parse_methods(methods, config.fusion))
    save_report(report, out_path)
    click.echo(f"wrote report for {len(report.methods)} methods to {out_path}")


@main.command("eval")
@click.option("--dataset", "dataset_path", required=True, metavar="<csv>")
@click.option("--truth-col", default="true_class", show_default=True)
@click.option("--methods", required=True, metavar="<list>", help="comma-separated")
@click.option("--out", "out_path", required=True, metavar="<json>")
@click.option(
    "--config",
    "config_path",
    default=None,
    metavar="<json>",
    help="optional scenario file supplying method parameters",
)
@click.option("--trials", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(0, MAX_SEED), default=None)
@_guarded
def eval_cmd(
    dataset_path: str,
    truth_col: str,
    methods: str,
    out_path: str,
    config_path: str | None,
    trials: int | None,
    seed: int | None,
) -> None:
    """Run the repeated split protocol over an existing dataset CSV."""
    from .experiment import evaluate_dataset

    # the config and methods first, so a mistake in either shows before the
    # dataset, which may be large, is read
    if config_path is not None:
        config = load_config(config_path)
        settings, n_trials, seed_value = config.fusion, config.n_trials, config.seed
    else:
        settings = FusionSettings()
        n_trials, seed_value = SimConfig.n_trials, SimConfig.seed  # the defaults
    names = _parse_methods(methods, settings)
    report = evaluate_dataset(
        load_dataset(dataset_path, truth_col=truth_col),
        names,
        settings=settings,
        n_trials=trials if trials is not None else n_trials,
        seed=seed if seed is not None else seed_value,
    )
    save_report(report, out_path)
    click.echo(f"wrote report for {len(report.methods)} methods to {out_path}")


if __name__ == "__main__":
    main()
