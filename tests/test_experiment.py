"""Repeated split protocol: determinism, metrics, method behavior."""

from dataclasses import replace

import pytest

from evifuse import (
    FusionSettings,
    SimConfig,
    SourceProfile,
    default_config,
    evaluate_dataset,
    run_experiment,
    simulate,
)
from evifuse.experiment import normalize_methods


def _small_config(**kwargs):
    base = dict(
        classes=("a", "b"),
        priors=(0.5, 0.5),
        sources=(
            SourceProfile("s1", (0.8, 0.8), temperature=0.3),
            SourceProfile("s2", (0.7, 0.7), temperature=0.3),
            SourceProfile("s3", (0.6, 0.6), temperature=0.3),
        ),
        n_samples=600,
        n_trials=3,
        seed=5,
    )
    base.update(kwargs)
    return SimConfig(**base)


def test_normalize_methods():
    settings = FusionSettings(possibility_operator="mean")
    assert normalize_methods(["possibility"], settings) == ["possibility_mean"]
    assert normalize_methods(
        ["vote_majority", "vote_majority"], settings
    ) == ["vote_majority"]
    with pytest.raises(ValueError):
        normalize_methods(["bagging"], settings)
    with pytest.raises(ValueError):
        normalize_methods([], settings)


def test_perfect_sources_fuse_perfectly():
    cfg = _small_config(
        sources=(
            SourceProfile("s1", (1.0, 1.0)),
            SourceProfile("s2", (1.0, 1.0)),
            SourceProfile("s3", (1.0, 1.0)),
        ),
        n_trials=2,
    )
    report = run_experiment(cfg, ["vote_majority"])
    res = report.methods["vote_majority"]
    assert res.accuracy == 1.0
    assert res.conflict_rate == 0.0


def test_identical_deterministic_sources_never_conflict():
    cfg = _small_config(
        sources=(
            SourceProfile("s1", (1.0, 0.0)),
            SourceProfile("s2", (1.0, 0.0)),
        ),
        n_trials=2,
    )
    report = run_experiment(cfg, ["vote_majority", "vote_absolute"])
    assert report.methods["vote_majority"].conflict_rate == 0.0
    assert report.methods["vote_absolute"].conflict_rate == 0.0


def test_report_is_deterministic():
    cfg = _small_config()
    methods = ["vote_majority", "possibility_max", "belief_appriou", "belief_denoeux"]
    a = run_experiment(cfg, methods)
    b = run_experiment(cfg, methods)
    assert a == b


def test_all_methods_run_and_report_sane_rates():
    cfg = _small_config()
    report = run_experiment(
        cfg,
        [
            "vote_majority",
            "vote_absolute",
            "vote_weighted",
            "possibility_min",
            "possibility_max",
            "possibility_mean",
            "possibility_median",
            "belief_appriou",
            "belief_denoeux",
        ],
    )
    for name, res in report.methods.items():
        assert 0.0 <= res.accuracy <= 1.0, name
        assert 0.0 <= res.conflict_rate <= 1.0, name
        assert 0.0 <= res.mean_conflict_mass <= 1.0, name
        assert set(res.per_class) == {"a", "b"}
    # possibility rules always pick a class
    assert report.methods["possibility_max"].conflict_rate == 0.0
    # vote rules carry no belief conflict
    assert report.methods["vote_majority"].mean_conflict_mass == 0.0
    # belief methods measure disagreement mass
    assert report.methods["belief_appriou"].mean_conflict_mass > 0.0


def test_source_accuracy_tracks_reliability():
    cfg = _small_config(n_samples=3000, n_trials=2)
    report = run_experiment(cfg, ["vote_majority"])
    assert report.source_accuracy["s1"] == pytest.approx(0.8, abs=0.05)
    assert report.source_accuracy["s3"] == pytest.approx(0.6, abs=0.05)


def test_weighted_vote_beats_worst_source_on_default_scenario():
    for seed in (1, 2, 3):
        cfg = default_config(seed=seed, n_samples=900, n_trials=3)
        report = run_experiment(cfg, ["vote_weighted"])
        worst = min(report.source_accuracy.values())
        assert report.methods["vote_weighted"].accuracy >= worst


def test_weighted_vote_threshold_is_on_the_tally_scale():
    # Weighted tallies sum to the weight of the cast votes, far below the
    # number of sources; a threshold of c * m made every sample a conflict.
    cfg = replace(default_config(n_trials=2), fusion=FusionSettings(vote_c=0.5))
    report = run_experiment(cfg, ["vote_weighted"])
    result = report.methods["vote_weighted"]
    assert result.conflict_rate < 1.0
    assert result.accuracy > min(report.source_accuracy.values())


def test_dataset_too_small_to_split():
    cfg = _small_config(n_samples=2, n_trials=1)
    ds = simulate(cfg)
    with pytest.raises(ValueError):
        evaluate_dataset(ds, ["vote_majority"])


def test_evaluate_requires_methods():
    ds = simulate(_small_config())
    with pytest.raises(ValueError):
        evaluate_dataset(ds, [])


def test_degenerate_single_class_frame():
    cfg = SimConfig(
        classes=("only",),
        priors=(1.0,),
        sources=(SourceProfile("s1", (1.0,)),),
        n_samples=30,
        n_trials=1,
        seed=0,
    )
    report = run_experiment(cfg, ["vote_majority", "belief_denoeux"])
    assert report.methods["vote_majority"].accuracy == 1.0
    assert report.methods["belief_denoeux"].accuracy == 1.0
