"""Repeated split protocol: determinism, metrics, method behavior."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from evifuse import (
    Dataset,
    FusionSettings,
    SimConfig,
    SourceProfile,
    default_config,
    evaluate_dataset,
    load_report,
    run_experiment,
    save_report,
    simulate,
)
from evifuse.experiment import (
    KERNELS,
    LABEL_ROWS,
    METHODS,
    ROW_WISE,
    ExperimentReport,
    MethodResult,
    _label_rows,
    normalize_methods,
)
from evifuse.io import report_to_dict
from evifuse.simulate import trial_stream


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


@pytest.mark.parametrize(
    "methods, message",
    [
        ("vote_majority", "methods must be a list of names, not the string"),
        ([1], "method names must be strings, got 1"),
        (["vote_majority", None], "method names must be strings, got None"),
    ],
    ids=["bare_string", "int_name", "none_name"],
)
def test_method_names_must_be_a_list_of_strings(methods, message):
    """A bare string is not split into one-letter names, and a name that is
    not a string is a ValueError, not an AttributeError from strip()."""
    with pytest.raises(ValueError, match=message):
        normalize_methods(methods, FusionSettings())
    ds = simulate(_small_config(n_samples=30, n_trials=1))
    with pytest.raises(ValueError, match=message):
        evaluate_dataset(ds, methods)


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


def test_denoeux_protocol_peak_on_the_csv_pipeline_scenario():
    """The Denoeux kernel holds one copy of a trial's prototypes, no scaled
    copies of them at s = 0 and no stacked masses, and decides its test rows
    a block of queries at a time. On the csv_pipeline scenario (12,000
    samples, 4,000 prototypes a trial, 2 trials) evaluate_dataset with
    belief_denoeux alone peaks at 2.09 MB traced, and at 3.34 MB with those
    copies made and all 4,000 queries decided at once."""
    reliabilities = ((0.80, 0.75, 0.70), (0.70, 0.65, 0.60), (0.60, 0.55, 0.50))
    config = SimConfig(
        classes=("a", "b", "c"),
        priors=(0.5, 0.3, 0.2),
        sources=tuple(
            SourceProfile(f"s{j + 1}", r, temperature=0.35)
            for j, r in enumerate(reliabilities)
        ),
        n_samples=12000,
        n_trials=2,
        seed=3,
    )
    ds = simulate(config)
    # first-use costs (numpy.random, the quadrature nodes) are not the kernel's
    evaluate_dataset(simulate(replace(config, n_samples=300)), ["belief_denoeux"])
    tracemalloc.start()
    try:
        evaluate_dataset(ds, ["belief_denoeux"], n_trials=2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3e6, f"peak {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# The run-level pass for ROW_WISE methods against a per-trial loop

CALIBRATED = [name for name in METHODS if name not in ROW_WISE]
MIXED = (
    ["vote_majority", "belief_denoeux", "possibility_min"],
    ["possibility_median", "vote_weighted", "vote_absolute"],
)


def _crisp(config):
    """The scenario with every source at temperature 0: one-hot scores."""
    sources = tuple(replace(s, temperature=0.0) for s in config.sources)
    return replace(config, sources=sources)


def _reference_report(ds, methods, settings, n_trials, seed):
    """The protocol as a per-trial loop: every kernel decides every trial's
    test third, and the metrics are accumulated trial by trial."""
    names = normalize_methods(methods, settings)
    third, n = ds.n_samples // 3, ds.frame.n
    sums = {name: ([], [], [], np.zeros(n)) for name in names}
    class_total = np.zeros(n)
    source_rates = np.zeros(ds.m_sources)
    for trial in range(n_trials):
        perm = trial_stream(seed, trial).permutation(ds.n_samples)
        calib_idx = perm[third : 2 * third]
        test_idx = perm[2 * third : 3 * third]
        truth = ds.truth[test_idx]
        np.add.at(class_total, truth, 1.0)
        for name in names:
            decided, conflict_mass = KERNELS[name](ds, settings, calib_idx, test_idx)
            accuracy, rate, mass, class_correct = sums[name]
            correct = decided == truth
            accuracy.append(float(correct.mean()))
            rate.append(float((decided < 0).mean()))
            mass.append(float(conflict_mass.mean()))
            np.add.at(class_correct, truth, correct.astype(float))
        source_rates += (ds.labels[test_idx] == truth[:, None]).mean(axis=0)
    results = {}
    for name, (accuracy, rate, mass, class_correct) in sums.items():
        per_class = {
            label: float(class_correct[i] / class_total[i]) if class_total[i] else 0.0
            for i, label in enumerate(ds.frame.labels)
        }
        results[name] = MethodResult(
            float(np.mean(accuracy)),
            per_class,
            float(np.mean(rate)),
            float(np.mean(mass)),
        )
    source_accuracy = {
        sid: float(source_rates[j] / n_trials) for j, sid in enumerate(ds.source_ids)
    }
    return ExperimentReport(seed, n_trials, results, source_accuracy)


@pytest.mark.parametrize(
    "config, methods",
    [
        (default_config(seed=0), METHODS),
        (default_config(seed=7, n_trials=3), sorted(ROW_WISE)),
        (default_config(seed=2, n_trials=3), CALIBRATED),
        # 31 samples: each trial leaves a remainder row out of all three parts.
        (_small_config(n_samples=31, n_trials=7), METHODS),
        (_small_config(n_trials=1), MIXED[0]),
        (_small_config(n_trials=7), MIXED[1]),
        (
            _small_config(fusion=FusionSettings(possibility_operator="median")),
            ["possibility", "belief_appriou", "possibility_max"],
        ),
        (default_config(seed=4, n_trials=4), METHODS[::-1]),
        (_crisp(default_config(seed=1)), METHODS),
        # The shape of bench's csv_pipeline scenario, at 1,500 samples.
        (
            _small_config(
                classes=("a", "b", "c"),
                priors=(0.5, 0.3, 0.2),
                sources=tuple(
                    SourceProfile(f"s{j + 1}", r, temperature=0.35)
                    for j, r in enumerate(
                        ((0.8, 0.75, 0.7), (0.7, 0.65, 0.6), (0.6, 0.55, 0.5))
                    )
                ),
                n_samples=1500,
                n_trials=2,
            ),
            METHODS,
        ),
        # 16 ** 16 label rows do not fit in 63 bits, so the label keys come
        # from np.unique over the 2-D rows; reliable sources repeat rows.
        (
            _small_config(
                classes=tuple("abcdefghijklmnop"),
                priors=(1 / 16,) * 16,
                sources=tuple(
                    SourceProfile(f"s{j}", (0.95,) * 16, temperature=0.2)
                    for j in range(16)
                ),
                n_samples=300,
                n_trials=2,
            ),
            METHODS,
        ),
    ],
    ids=[
        "default", "row-wise", "calibrated", "31-samples", "one-trial", "seven-trials",
        "alias", "reversed", "crisp", "csv-shaped", "16-by-16",
    ],
)
def test_report_equals_the_per_trial_loop(config, methods):
    ds = simulate(config)
    args = (ds, methods, config.fusion, config.n_trials, config.seed)
    want = report_to_dict(_reference_report(*args))
    assert report_to_dict(evaluate_dataset(*args)) == want


@pytest.mark.parametrize("n_classes, n_sources", [(6, 4), (2, 64), (16, 16)])
def test_label_rows_map_each_sample_to_the_first_with_its_labels(
    n_classes, n_sources
):
    # Rows of 2 x 64 and 16 x 16 labels do not fit in 63 bits as one integer.
    classes = tuple("abcdefghijklmnop"[:n_classes])
    config = _small_config(
        classes=classes,
        priors=(1 / n_classes,) * n_classes,
        sources=tuple(
            SourceProfile(f"s{j}", (0.5,) * n_classes) for j in range(n_sources)
        ),
        n_samples=60,
    )
    rng = np.random.default_rng(n_sources)
    labels = rng.integers(0, n_classes, (8, n_sources))[rng.integers(0, 8, 60)]
    first = {}
    want = [first.setdefault(row.tobytes(), i) for i, row in enumerate(labels)]
    assert len(first) < 60  # rows repeat
    ds = replace(simulate(config), labels=labels)
    assert _label_rows(ds).tolist() == want


@pytest.mark.parametrize("n_trials", [1, 4, 12])
def test_row_wise_methods_are_decided_once_per_run(monkeypatch, n_trials):
    # A calibrated kernel is called once per trial, in trial order, with that
    # trial's calibration rows, and gets each distinct row key of that trial's
    # test third exactly once; the key is the label row for LABEL_ROWS
    # methods, or the row index. A ROW_WISE kernel gets each distinct key of
    # the run exactly once, in calls of at most one third of rows, with None
    # for calib.
    calls = {name: [] for name in METHODS}
    for name, kernel in list(KERNELS.items()):

        def counted(ds, settings, calib, rows, name=name, kernel=kernel):
            calls[name].append((calib, rows))
            return kernel(ds, settings, calib, rows)

        monkeypatch.setitem(KERNELS, name, counted)
    config = _small_config(n_samples=100, n_trials=n_trials)
    ds = simulate(config)
    evaluate_dataset(ds, METHODS, n_trials=n_trials, seed=config.seed)

    third = 100 // 3
    perms = [trial_stream(config.seed, t).permutation(100) for t in range(n_trials)]
    tests = [(t, r) for t, p in enumerate(perms) for r in p[2 * third : 3 * third]]
    for name, made in calls.items():
        values = ds.labels if name in LABEL_ROWS else np.arange(100)
        if name in ROW_WISE:
            want = sorted({values[row].tobytes() for _, row in tests})
            assert len(made) == math.ceil(len(want) / third), name
            for calib, rows in made:
                assert calib is None and len(rows) <= third, name
            got = sorted(values[row].tobytes() for _, rows in made for row in rows)
        else:
            want = sorted({(t, values[row].tobytes()) for t, row in tests})
            assert len(made) == n_trials, name
            for (calib, _), p in zip(made, perms):
                assert calib.tolist() == p[third : 2 * third].tolist(), name
            got = sorted(
                (t, values[row].tobytes())
                for t, (_, rows) in enumerate(made)
                for row in rows
            )
        assert got == want, name
        if name in LABEL_ROWS:
            assert len(want) < len(tests), name  # some key repeats


def _with_score(ds, row, value):
    scores = np.array(ds.scores)
    scores[row, 0, 1] = value
    return Dataset(ds.frame, ds.source_ids, ds.sample_ids, ds.truth, ds.labels, scores)


NUMERIC = [n for n in METHODS if n.startswith("possibility_")] + ["belief_denoeux"]


@pytest.mark.parametrize("name", NUMERIC)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_score_in_a_tested_row_raises(name, bad):
    config = _small_config(n_samples=31, n_trials=3)
    ds = simulate(config)
    # A row only the last trial tests.
    tests = [trial_stream(config.seed, t).permutation(31)[20:30] for t in range(3)]
    row = np.setdiff1d(tests[2], np.concatenate(tests[:2]))[0]
    with pytest.raises(ValueError, match="must be finite"):
        evaluate_dataset(_with_score(ds, row, bad), [name], None, 3, config.seed)


def test_score_of_a_row_no_trial_reads_does_not_matter():
    # With one trial, the reserved third is never calibrated or tested, so a
    # non-finite score there changes nothing: only tested rows are decided.
    config = _small_config(n_samples=31, n_trials=1)
    ds = simulate(config)
    reserved = trial_stream(config.seed, 0).permutation(31)[:10]
    want = evaluate_dataset(ds, METHODS, n_trials=1, seed=config.seed)
    bad = _with_score(ds, reserved[0], float("nan"))
    assert evaluate_dataset(bad, METHODS, n_trials=1, seed=config.seed) == want


@pytest.mark.parametrize("field", ["n_trials", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, 1.0])
def test_evaluate_rejects_non_integer_trials_and_seed(field, value):
    ds = simulate(_small_config())
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        evaluate_dataset(ds, ["vote_majority"], **{field: value})


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_evaluate_rejects_seed_out_of_range(seed):
    # SimConfig and the CLI's --seed take the same range, so a report's seed
    # always names a scenario SimConfig can rebuild.
    ds = simulate(_small_config())
    with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit"):
        evaluate_dataset(ds, ["vote_majority"], seed=seed)


def test_evaluate_accepts_largest_seed(tmp_path):
    ds = simulate(_small_config())
    report = evaluate_dataset(ds, ["vote_majority"], seed=2**64 - 1)
    assert report.seed == 2**64 - 1
    save_report(report, str(tmp_path / "report.json"))
    assert load_report(str(tmp_path / "report.json")) == report


def test_evaluate_reports_numpy_integers_as_int(tmp_path):
    # The report must load back: JSON has no numpy integers or booleans.
    ds = simulate(_small_config())
    report = evaluate_dataset(
        ds, ["vote_majority"], n_trials=np.int64(2), seed=np.uint64(5)
    )
    assert type(report.n_trials) is int and type(report.seed) is int
    save_report(report, str(tmp_path / "report.json"))
    assert load_report(str(tmp_path / "report.json")) == report


def _with_classes(ds, truth=None, labels=None):
    truth = ds.truth if truth is None else truth
    labels = ds.labels if labels is None else labels
    return Dataset(ds.frame, ds.source_ids, ds.sample_ids, truth, labels, ds.scores)


def test_label_row_that_collides_with_a_valid_one_raises():
    # [7, 0, 3, 1] over 6 classes has the mixed-radix key of [1, 1, 3, 1],
    # so it must be refused before label rows are keyed.
    config = default_config(n_samples=600, n_trials=3)
    ds = simulate(config)
    labels = np.array(ds.labels)
    labels[-1] = labels[0] + [6, -1, 0, 0]
    with pytest.raises(ValueError, match="class index 7 out of range"):
        evaluate_dataset(_with_classes(ds, labels=labels), ["vote_majority"])


def test_true_class_out_of_range_raises():
    ds = simulate(_small_config(n_samples=30))
    truth = np.array(ds.truth)
    truth[-1] = 9
    with pytest.raises(ValueError, match="class index 9 out of range"):
        evaluate_dataset(_with_classes(ds, truth=truth), ["vote_majority"])


def test_whole_float_classes_give_the_report_of_their_integers():
    config = _small_config(n_samples=60, n_trials=3)
    ds = simulate(config)
    floats = _with_classes(ds, ds.truth.astype(float), ds.labels.astype(float))
    want = evaluate_dataset(ds, METHODS, n_trials=3, seed=config.seed)
    assert evaluate_dataset(floats, METHODS, n_trials=3, seed=config.seed) == want
