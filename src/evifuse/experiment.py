"""Benchmark protocol: repeated three-way splits, fusion, and metrics.

Each trial randomly permutes the dataset into three equal parts. The first
part is reserved (it mirrors the split that would train the sources
themselves), the second fits all calibration artifacts, and the third is
the test bed. Metrics are averaged over the trials; per-class rates are
pooled over trials so rare classes with empty trial slices stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from numbers import Real
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import belief, possibility, voting
from .calibration import ConfusionMatrix, conditional_probs, vote_weights
from .frame import check_integer, check_number, check_seed
from .simulate import Dataset, FusionSettings, SimConfig, simulate, trial_stream

# A kernel: (ds, settings, calib, rows) -> (decided, conflict_mass), one entry
# per row, -1 = conflict class. It fits what it needs from calib, one trial's
# calibration rows; a ROW_WISE kernel gets None and reads only rows.

# Test rows the Denoeux kernel decides at a time. On csv_pipeline, blocks of
# 2048 rows peak 0.65 MB below one call on a trial's 4000 (in RSS of the
# `evifuse eval` child); blocks of 1024 save 0.06 MB more but, with two BLAS
# threads, take 4 ms more a trial.
_QUERY_ROWS = 2048


def _calibrate(fit, ds: Dataset, calib: np.ndarray):
    """``fit`` (vote_weights or conditional_probs) of the per-source
    confusion matrices over the calibration rows, counted with one bincount;
    evaluate_dataset has checked every class index."""
    n, m = ds.frame.n, ds.m_sources
    bins = ds.labels[calib] + (ds.truth[calib][:, None] + np.arange(m) * n) * n
    counts = np.bincount(bins.ravel(), minlength=m * n * n).reshape(m, n, n)
    return fit([ConfusionMatrix(ds.frame, c, s) for c, s in zip(counts, ds.source_ids)])


def _vote(c, b, ds, settings, calib, rows):
    counts = voting.tally_batch(ds.labels[rows], ds.frame)
    return voting.decide_threshold_batch(counts, c, b), np.zeros(rows.shape[0])


def _vote_weighted(ds, settings, calib, rows):
    weights = _calibrate(vote_weights, ds, calib)
    counts = voting.tally_batch(ds.labels[rows], ds.frame, weights)
    decided = voting.decide_threshold_batch(counts, settings.vote_c, settings.vote_b)
    return decided, np.zeros(rows.shape[0])


def _belief_appriou(ds, settings, calib, rows):
    params = _calibrate(conditional_probs, ds, calib)
    return belief.appriou_decide_batch(
        ds.labels[rows], params, settings.appriou_as_printed
    )


def _possibility(op, ds, settings, calib, rows):
    decided = possibility.decide_batch(ds.scores[rows], op)
    return decided, np.zeros(rows.shape[0])


def _belief_denoeux(ds, settings, calib, rows):
    flat = ds.scores.reshape(ds.n_samples, -1)
    k, alpha = min(settings.denoeux_k, len(calib)), settings.denoeux_alpha
    ts = belief.TrainingSet(ds.frame, flat[calib], ds.truth[calib], k, alpha)
    # Queries are gathered and decided _QUERY_ROWS at a time, so that their
    # copy, neighbours and masses stay bounded; each row's decision is its own.
    parts = [
        belief.denoeux_decide_batch(flat[rows[a : a + _QUERY_ROWS]], ts)
        for a in range(0, len(rows), _QUERY_ROWS)
    ]
    return tuple(map(np.concatenate, zip(*parts)))


KERNELS = {
    "vote_majority": partial(_vote, 0.0, 0.0),
    # m whole votes give more than m/2 exactly when they give at least
    # m/2 + 1/2, and no other class can tie with such a count.
    "vote_absolute": partial(_vote, 0.5, 0.5),
    "vote_weighted": _vote_weighted,
    **{f"possibility_{op}": partial(_possibility, op) for op in possibility.OPERATORS},
    "belief_appriou": _belief_appriou,
    "belief_denoeux": _belief_denoeux,
}

METHODS = tuple(KERNELS)

# Methods whose kernels read only the row, never calib: a row's decision does
# not depend on the trial, so each row is decided once per run.
ROW_WISE = frozenset(
    {"vote_majority", "vote_absolute"}
    | {f"possibility_{op}" for op in possibility.OPERATORS}
)
# Methods whose kernels read a row's labels and nothing else of it; rows of
# equal labels are decided once. The others are keyed by row index.
LABEL_ROWS = frozenset(
    {"vote_majority", "vote_absolute", "vote_weighted", "belief_appriou"}
)


def normalize_methods(methods: Sequence[str], settings: FusionSettings) -> list[str]:
    """Validate method names; bare "possibility" picks up the configured operator."""
    if isinstance(methods, str):
        raise ValueError(f"methods must be a list of names, not the string {methods!r}")
    out: list[str] = []
    for name in methods:
        if not isinstance(name, str):
            raise ValueError(f"method names must be strings, got {name!r}")
        name = name.strip()
        if name == "possibility":
            name = f"possibility_{settings.possibility_operator}"
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}, expected one of {METHODS}")
        if name not in out:
            out.append(name)
    if not out:
        raise ValueError("at least one fusion method is required")
    return out


@dataclass(frozen=True)
class MethodResult:
    """Averaged metrics for one fusion method."""

    accuracy: float
    per_class: dict[str, float]
    conflict_rate: float
    mean_conflict_mass: float


_hints = cache(get_type_hints)  # a dataclass's field types, evaluated once


def _checked(key: str, value, kind):
    """value as ``kind`` (MethodResult, dict[str, X] or float), with string
    keys and every number a Python float in [0, 1]; else ValueError naming
    report key ``key``."""
    expected = get_origin(kind) or kind
    if not isinstance(value, Real if kind is float else expected):
        name = expected.__name__
        raise ValueError(f"report key {key} must be a {name}, got {value!r}")
    if kind is MethodResult:
        hints = _hints(MethodResult)
        return MethodResult(
            **{f: _checked(f"{key}.{f}", getattr(value, f), hints[f]) for f in hints}
        )
    if expected is dict:
        items = value.items()
        return {str(k): _checked(f"{key}.{k}", v, get_args(kind)[1]) for k, v in items}
    x = check_number(f"report key {key}", value)  # not a bool, and finite
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"report key {key} must lie in [0, 1], got {x}")
    return x


@dataclass(frozen=True)
class ExperimentReport:
    """Cross-trial summary of one benchmark run."""

    seed: int
    n_trials: int
    methods: dict[str, MethodResult]
    source_accuracy: dict[str, float]

    def __post_init__(self) -> None:
        """Holds Python ints and floats: the seed passes check_seed, n_trials
        is at least 1, and every rate and mass lies in [0, 1]; else
        ValueError naming the report key."""
        object.__setattr__(self, "seed", check_seed(self.seed))
        n_trials = check_integer("report key n_trials", self.n_trials, 1)
        object.__setattr__(self, "n_trials", n_trials)
        for key in ("methods", "source_accuracy"):
            value = _checked(key, getattr(self, key), _hints(ExperimentReport)[key])
            object.__setattr__(self, key, value)


def _label_rows(ds: Dataset) -> np.ndarray:
    """For each sample, the first sample whose label row equals its own."""
    labels = ds.labels
    if ds.frame.n**ds.m_sources < 2**63:  # a row as one mixed-radix integer
        labels = labels @ ds.frame.n ** np.arange(ds.m_sources)
    _, first, ids = np.unique(labels, axis=0, return_index=True, return_inverse=True)
    return first[ids.reshape(-1)]


def _decide(name, ds, settings, calib, keys):
    """Method ``name``'s decisions on every trial's test third, as a
    (trials, third) array, and each trial's mean conflict mass, from the
    (trials, third) matrix of row keys. A calibrated kernel is called once
    per trial, with that trial's calibration rows, on one row per distinct
    key of its test third; a ROW_WISE kernel gets None and one row per
    distinct key of the run, at most one third of rows a call. A calibrated
    kernel's ValueError names the method and trial."""
    kernel, third = KERNELS[name], calib.shape[1]
    decided, conflict_mass = np.empty(keys.shape, dtype=np.int64), np.empty(keys.shape)
    groups = [(None, ...)] if name in ROW_WISE else zip(calib, range(len(calib)))
    for trial_calib, at in groups:  # the whole run, or one trial's row
        seen = np.zeros(ds.n_samples, dtype=bool)
        seen[keys[at]] = True
        rows = np.flatnonzero(seen)
        parts = []
        for a in range(0, len(rows), third):
            try:
                parts.append(kernel(ds, settings, trial_calib, rows[a : a + third]))
            except ValueError as err:
                if trial_calib is None:
                    raise
                raise ValueError(f"{name}, trial {at}: {err}") from None
        inverse = (np.cumsum(seen) - 1)[keys[at]]
        out = (np.concatenate(part)[inverse] for part in zip(*parts))
        decided[at], conflict_mass[at] = out
    return decided, conflict_mass.mean(axis=1)


def _score(frame, truth, decided, conflict_mass):
    """Average one method's (trials, third) decisions over the trials;
    per-class rates pool every trial's test rows."""
    correct = decided == truth
    class_total = np.bincount(truth.ravel(), minlength=frame.n)
    class_correct = np.bincount(truth[correct], minlength=frame.n)
    per_class = {
        label: float(class_correct[i] / class_total[i]) if class_total[i] else 0.0
        for i, label in enumerate(frame.labels)
    }
    return MethodResult(
        accuracy=float(np.mean(correct.mean(axis=1))),
        per_class=per_class,
        conflict_rate=float(np.mean((decided < 0).mean(axis=1))),
        mean_conflict_mass=float(np.mean(conflict_mass)),
    )


def evaluate_dataset(
    ds: Dataset,
    methods: Sequence[str],
    settings: FusionSettings | None = None,
    n_trials: int = SimConfig.n_trials,
    seed: int = SimConfig.seed,
) -> ExperimentReport:
    """Run the repeated split protocol over an existing dataset.

    Every class index in ``ds.truth`` and ``ds.labels`` is checked once,
    up front, whichever methods are asked for; scores are checked by the
    kernels, only in the rows they read. Works one method at a time: the
    method decides every trial's test third, and those decisions are scored
    once. A row's key is its label row for LABEL_ROWS methods, found once
    per run, and its index for the others; ``_decide`` decides one row per
    distinct key of each trial, or of the whole run for a ROW_WISE method.
    """
    settings = settings or FusionSettings()
    methods = normalize_methods(methods, settings)
    n_trials = check_integer("n_trials", n_trials, 1)
    seed = check_seed(seed)
    truth, labels = map(ds.frame.check_classes, (ds.truth, ds.labels))
    ds = replace(ds, truth=truth, labels=labels)
    third = ds.n_samples // 3
    if third < 1:
        raise ValueError("dataset too small to split into three non-empty parts")

    # each trial's calibration and test thirds of its permutation
    calib, tests = np.empty((2, n_trials, third), dtype=np.int64)
    for t in range(n_trials):
        perm = trial_stream(seed, t).permutation(ds.n_samples)
        calib[t], tests[t] = perm[third : 2 * third], perm[2 * third : 3 * third]
    truth = ds.truth[tests]
    source_rates = (ds.labels[tests] == truth[..., None]).mean(axis=1).sum(axis=0)
    source_accuracy = {
        sid: float(source_rates[j] / n_trials) for j, sid in enumerate(ds.source_ids)
    }

    labels = _label_rows(ds)[tests] if LABEL_ROWS.intersection(methods) else None
    results = {}
    for name in methods:
        keys = labels if name in LABEL_ROWS else tests
        decided, conflict_mass = _decide(name, ds, settings, calib, keys)
        results[name] = _score(ds.frame, truth, decided, conflict_mass)
    return ExperimentReport(seed, n_trials, results, source_accuracy)


def run_experiment(config: SimConfig, methods: Sequence[str]) -> ExperimentReport:
    """Simulate the scenario, then run the repeated split protocol on it."""
    ds = simulate(config)
    return evaluate_dataset(
        ds,
        methods,
        settings=config.fusion,
        n_trials=config.n_trials,
        seed=config.seed,
    )
