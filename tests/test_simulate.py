"""Synthetic dataset generation: determinism, reliability, score model."""

import numpy as np
import pytest

from evifuse import (
    Dataset,
    FusionSettings,
    SimConfig,
    SourceProfile,
    default_config,
    default_priors,
    load_config,
    make_frame,
    save_config,
    simulate,
)


def _config(**kwargs):
    base = dict(
        classes=("a", "b", "c"),
        priors=(0.5, 0.3, 0.2),
        sources=(
            SourceProfile("s1", (0.8, 0.8, 0.8), temperature=0.2),
            SourceProfile("s2", (0.6, 0.6, 0.6), temperature=0.4),
        ),
        n_samples=500,
        n_trials=2,
        seed=42,
    )
    base.update(kwargs)
    return SimConfig(**base)


def test_same_seed_same_dataset():
    a, b = simulate(_config()), simulate(_config())
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.scores, b.scores)


def test_different_seed_different_dataset():
    a = simulate(_config())
    b = simulate(_config(seed=43))
    assert not np.array_equal(a.labels, b.labels)


def test_perfect_sources_reproduce_truth():
    cfg = _config(
        sources=(
            SourceProfile("s1", (1.0, 1.0, 1.0)),
            SourceProfile("s2", (1.0, 1.0, 1.0)),
        )
    )
    ds = simulate(cfg)
    assert np.array_equal(ds.labels[:, 0], ds.truth)
    assert np.array_equal(ds.labels[:, 1], ds.truth)


def test_zero_temperature_scores_are_one_hot():
    cfg = _config(sources=(SourceProfile("s1", (0.7, 0.7, 0.7)),))
    ds = simulate(cfg)
    peaks = ds.scores[:, 0, :].argmax(axis=1)
    assert np.array_equal(peaks, ds.labels[:, 0])
    assert set(np.unique(ds.scores[:, 0, :])) == {0.0, 1.0}


def test_moderate_temperature_keeps_peak_at_decision():
    # below temperature 0.5 the decided class always keeps the top score
    ds = simulate(_config())
    for j in range(ds.m_sources):
        peaks = ds.scores[:, j, :].argmax(axis=1)
        assert np.array_equal(peaks, ds.labels[:, j])


def test_scores_stay_in_unit_interval():
    ds = simulate(_config())
    assert ds.scores.min() >= 0.0
    assert ds.scores.max() <= 1.0


def test_reliability_is_respected():
    cfg = _config(
        sources=(SourceProfile("s1", (0.7, 0.7, 0.7)),), n_samples=20000
    )
    ds = simulate(cfg)
    rate = float((ds.labels[:, 0] == ds.truth).mean())
    assert rate == pytest.approx(0.7, abs=0.02)


def test_priors_are_respected():
    ds = simulate(_config(n_samples=20000))
    freq = np.bincount(ds.truth, minlength=3) / ds.n_samples
    assert freq == pytest.approx([0.5, 0.3, 0.2], abs=0.02)


def test_default_priors_renormalized():
    priors = default_priors()
    assert len(priors) == 6
    assert sum(priors) == pytest.approx(1.0, abs=1e-12)
    # ratios preserved from the raw shares
    assert priors[0] / priors[1] == pytest.approx(54.52 / 21.35)


def test_default_config_shape():
    cfg = default_config()
    assert len(cfg.classes) == 6
    assert len(cfg.sources) == 4
    # exactly one deliberately degraded source
    floors = sorted(min(s.reliability) for s in cfg.sources)
    assert floors[0] < 0.45


def test_config_validation():
    with pytest.raises(ValueError):
        _config(priors=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError):
        _config(sources=())
    with pytest.raises(ValueError):
        _config(
            sources=(
                SourceProfile("s1", (0.5, 0.5, 0.5)),
                SourceProfile("s1", (0.5, 0.5, 0.5)),
            )
        )
    with pytest.raises(ValueError):
        _config(sources=(SourceProfile("s1", (0.5, 0.5)),))
    with pytest.raises(ValueError):
        _config(n_samples=0)
    with pytest.raises(ValueError):
        SourceProfile("s1", (0.5, 1.2, 0.5))
    # save_config would write an id that load_config refuses.
    with pytest.raises(ValueError, match="source id must be a string, got 5"):
        SourceProfile(5, (0.5, 0.5, 0.5))


@pytest.mark.parametrize(
    "n, m, message",
    [(0, 2, "at least one sample"), (3, 0, "at least one source")],
    ids=["no_samples", "no_sources"],
)
def test_dataset_needs_a_sample_and_a_source(n, m, message):
    # save_dataset would write a file that load_dataset rejects ("no data
    # rows"), and without sources every fused decision would be a conflict.
    with pytest.raises(ValueError, match=message):
        Dataset(
            make_frame(["a", "b"]),
            tuple(f"s{j}" for j in range(m)),
            np.arange(n),
            np.zeros(n, np.int64),
            np.zeros((n, m), np.int64),
            np.zeros((n, m, 2)),
        )


def test_fusion_settings_reject_non_integer_k():
    # The same check and message as TrainingSet, so a bad k fails when the
    # settings are made, not when the first trial fits its prototypes.
    for k in (2.5, 2.0, True, np.True_, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            FusionSettings(denoeux_k=k)
    with pytest.raises(ValueError, match="at least 1"):
        FusionSettings(denoeux_k=0)
    assert FusionSettings(denoeux_k=np.int64(4)).denoeux_k == 4


@pytest.mark.parametrize("op", ["maximum", "", ["max"], 1, None])
def test_fusion_settings_reject_unknown_operator(op):
    # A list is unhashable, so the lookup alone would raise TypeError.
    with pytest.raises(ValueError, match="unknown possibility operator"):
        FusionSettings(possibility_operator=op)


@pytest.mark.parametrize("field", ["n_samples", "n_trials", "seed"])
@pytest.mark.parametrize("value", [True, np.True_, 2.5, 30.5, 2.0, "2"])
def test_config_rejects_non_integer_sizes_and_seed(field, value):
    # A bool would be saved as JSON true, which load_report rejects; a float
    # would fail only later, in range() or SeedSequence.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _config(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit"):
        _config(seed=seed)


def test_config_accepts_largest_seed():
    cfg = _config(seed=2**64 - 1, n_samples=30)
    assert cfg.seed == 2**64 - 1
    assert simulate(cfg).n_samples == 30


_FLOAT_FIELDS = {
    "reliability": (lambda x: SourceProfile("s", (x, 0.5)), "reliabilities"),
    "temperature": (lambda x: SourceProfile("s", (0.5,), x), "temperature"),
    "priors": (lambda x: _config(priors=(x, 0.5, 0.5)), "priors"),
    "vote_c": (lambda x: FusionSettings(vote_c=x), "coefficient"),
    "vote_b": (lambda x: FusionSettings(vote_b=x), "offset"),
    "denoeux_alpha": (lambda x: FusionSettings(denoeux_alpha=x), "discount"),
}


@pytest.mark.parametrize("field", list(_FLOAT_FIELDS))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_numbers(field, bad):
    # NaN passes every sign, range and sum check (priors would fail only in
    # simulate's draw of the classes, and with vote_b = NaN every weighted
    # vote would decide the conflict class), so each float field refuses it
    # by name. save_config relies on this: JSON holds no NaN or infinity.
    make, name = _FLOAT_FIELDS[field]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(bad)


def test_config_stores_numpy_integers_as_int(tmp_path):
    # JSON has no numpy integers, so the config must hold Python ints.
    cfg = _config(
        n_samples=np.int64(500),
        n_trials=np.int32(2),
        seed=np.uint64(42),
        fusion=FusionSettings(denoeux_k=np.int64(4)),
    )
    values = (cfg.n_samples, cfg.n_trials, cfg.seed, cfg.fusion.denoeux_k)
    assert values == (500, 2, 42, 4)
    assert all(type(v) is int for v in values)
    save_config(cfg, str(tmp_path / "config.json"))
    assert load_config(str(tmp_path / "config.json")) == cfg


def test_dataset_rejects_repeated_source_ids():
    # evaluate_dataset keys source_accuracy by id, so a repeated id would
    # silently report one column's accuracy under another's name. The ids 1
    # and "1" differ, but save_dataset writes both as 1, which load_dataset
    # rejects as a repeated source.
    for ids, message in [
        (("s1", "s1", "s3", "s4"), "source ids must be unique"),
        ((1, "1", "s3", "s4"), "source ids must be strings, got 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            Dataset(
                make_frame(["a", "b"]),
                ids,
                np.arange(3),
                np.zeros(3, np.int64),
                np.zeros((3, 4), np.int64),
                np.zeros((3, 4, 2)),
            )


def _one_source(**kwargs):
    kwargs = {"reliability": (0.5, 0.5, 0.5), **kwargs}
    return _config(sources=(SourceProfile("s1", **kwargs),))


# Each numeric field of a scenario, by name: a scenario with the field set to
# v, the field's stored value, and the name its messages use. 1 is a valid
# value of every one of them.
FLOAT_FIELDS = {
    "priors": (
        lambda v: _config(priors=(v, 1 - v, 0)), lambda c: c.priors[0], "priors"
    ),
    "reliability": (
        lambda v: _one_source(reliability=(v, 0.5, 0.5)),
        lambda c: c.sources[0].reliability[0],
        "reliabilities",
    ),
    "temperature": (
        lambda v: _one_source(temperature=v),
        lambda c: c.sources[0].temperature,
        "temperature",
    ),
    **{
        field: (
            lambda v, field=field: _config(fusion=FusionSettings(**{field: v})),
            lambda c, field=field: getattr(c.fusion, field),
            name,
        )
        for field, name in [
            ("vote_c", "vote threshold coefficient"),
            ("vote_b", "vote threshold offset"),
            ("denoeux_alpha", "denoeux discount"),
        ]
    },
}
INT_FIELDS = {
    "n_samples": (lambda v: _config(n_samples=v), lambda c: c.n_samples, "n_samples"),
    "n_trials": (lambda v: _config(n_trials=v), lambda c: c.n_trials, "n_trials"),
    "seed": (lambda v: _config(seed=v), lambda c: c.seed, "seed"),
    "denoeux_k": (
        lambda v: _config(fusion=FusionSettings(denoeux_k=v)),
        lambda c: c.fusion.denoeux_k,
        "k",
    ),
}
NUMERIC_FIELDS = FLOAT_FIELDS | INT_FIELDS


@pytest.mark.parametrize(
    "field, kind, value",
    [(f, float, v) for f in FLOAT_FIELDS for v in (1, np.int64(1), np.float32(1))]
    + [(f, int, v) for f in INT_FIELDS for v in (1, np.int64(1), np.uint8(1))],
)
def test_numeric_fields_are_stored_as_python_numbers(tmp_path, field, kind, value):
    # save_config writes only what load_config reads back: JSON has no numpy
    # scalars, and an int in a float field would reload as a float.
    make, stored, _ = NUMERIC_FIELDS[field]
    cfg = make(value)
    assert type(stored(cfg)) is kind and stored(cfg) == 1
    save_config(cfg, str(tmp_path / "config.json"))
    assert load_config(str(tmp_path / "config.json")) == cfg


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [True, np.True_])
def test_numeric_fields_reject_bools(field, value):
    # load_config reads a JSON true as a boolean, never as a number.
    make, _, name = NUMERIC_FIELDS[field]
    with pytest.raises(ValueError, match=f"^{name} must be an? (number|integer)"):
        make(value)


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_fields_reject_an_integer_beyond_the_largest_float(field):
    # float() of such an int raises OverflowError, which is not a ValueError.
    make, _, name = FLOAT_FIELDS[field]
    with pytest.raises(ValueError, match=f"^{name} does not fit in a float$"):
        make(10**400)


def test_appriou_as_printed_is_stored_as_a_bool(tmp_path):
    # load_config reads appriou.as_printed only as a JSON boolean.
    for value in (1, 0.0, "yes", None):
        with pytest.raises(ValueError, match="appriou_as_printed must be a boolean"):
            FusionSettings(appriou_as_printed=value)
    cfg = _config(fusion=FusionSettings(appriou_as_printed=np.True_))
    assert cfg.fusion.appriou_as_printed is True
    save_config(cfg, str(tmp_path / "config.json"))
    assert load_config(str(tmp_path / "config.json")) == cfg
