"""Benchmark protocol: repeated three-way splits, fusion, and metrics.

Each trial randomly permutes the dataset into three equal parts. The first
part is reserved (it mirrors the split that would train the sources
themselves), the second fits all calibration artifacts, and the third is
the test bed. Metrics are averaged over the trials; per-class rates are
pooled over trials so rare classes with empty trial slices stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import belief, possibility, voting
from .calibration import (
    ConfusionMatrix,
    build_confusion,
    conditional_probs,
    vote_weights,
)
from .frame import Frame, check_integer, check_seed
from .simulate import Dataset, FusionSettings, SimConfig, simulate, trial_stream

# A kernel: (ds, settings, calib_idx, rows) -> (decided, conflict_mass), one
# entry per row, -1 = conflict class. It fits what it needs from the
# calibration rows calib_idx.


def _confusion(ds: Dataset, calib_idx: np.ndarray) -> list[ConfusionMatrix]:
    """Each source's confusion matrix over the calibration rows."""
    return [
        build_confusion(
            np.column_stack((ds.truth[calib_idx], ds.labels[calib_idx, j])),
            ds.frame,
            source_id=ds.source_ids[j],
        )
        for j in range(ds.m_sources)
    ]


def _vote_majority(ds, settings, calib_idx, rows):
    counts = voting.tally_batch(ds.labels[rows], ds.frame)
    return voting.decide_threshold_batch(counts, 0.0), np.zeros(rows.shape[0])


def _vote_absolute(ds, settings, calib_idx, rows):
    counts = voting.tally_batch(ds.labels[rows], ds.frame)
    decided = voting.decide_absolute_majority_batch(counts, ds.m_sources)
    return decided, np.zeros(rows.shape[0])


def _vote_weighted(ds, settings, calib_idx, rows):
    weights = vote_weights(_confusion(ds, calib_idx))
    counts = voting.tally_batch(ds.labels[rows], ds.frame, weights)
    decided = voting.decide_threshold_batch(counts, settings.vote_c, settings.vote_b)
    return decided, np.zeros(rows.shape[0])


def _belief_appriou(ds, settings, calib_idx, rows):
    params = conditional_probs(_confusion(ds, calib_idx))
    return belief.appriou_decide_batch(
        ds.labels[rows], params, settings.appriou_as_printed
    )


def _possibility(op, ds, settings, calib_idx, rows):
    decided = possibility.decide_batch(ds.scores[rows], op)
    return decided, np.zeros(rows.shape[0])


def _belief_denoeux(ds, settings, calib_idx, rows):
    flat = ds.scores.reshape(ds.n_samples, -1)
    training_set = belief.TrainingSet(
        ds.frame,
        flat[calib_idx],
        ds.truth[calib_idx],
        k=min(settings.denoeux_k, len(calib_idx)),
        alpha=settings.denoeux_alpha,
    )
    return belief.denoeux_decide_batch(flat[rows], training_set)


KERNELS = {
    "vote_majority": _vote_majority,
    "vote_absolute": _vote_absolute,
    "vote_weighted": _vote_weighted,
    **{f"possibility_{op}": partial(_possibility, op) for op in possibility.OPERATORS},
    "belief_appriou": _belief_appriou,
    "belief_denoeux": _belief_denoeux,
}

METHODS = tuple(KERNELS)

# Methods whose kernels read only the row, never calib_idx: a row's decision
# does not depend on the trial, so each row is decided once per run.
ROW_WISE = frozenset(
    {"vote_majority", "vote_absolute"}
    | {f"possibility_{op}" for op in possibility.OPERATORS}
)


def normalize_methods(methods: Sequence[str], settings: FusionSettings) -> list[str]:
    """Validate method names; bare "possibility" picks up the configured operator."""
    out: list[str] = []
    for name in methods:
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


@dataclass(frozen=True)
class ExperimentReport:
    """Cross-trial summary of one benchmark run."""

    seed: int
    n_trials: int
    methods: dict[str, MethodResult]
    source_accuracy: dict[str, float]


class _Accumulator:
    """Running sums for one method across trials."""

    def __init__(self, n_classes: int) -> None:
        self.trial_accuracy: list[float] = []
        self.trial_conflict_rate: list[float] = []
        self.trial_conflict_mass: list[float] = []
        self.class_correct = np.zeros(n_classes, dtype=np.int64)

    def add_trial(
        self, truth: np.ndarray, decided: np.ndarray, mean_conflict_mass: float
    ) -> None:
        correct = decided == truth
        self.trial_accuracy.append(np.count_nonzero(correct) / truth.shape[0])
        self.trial_conflict_rate.append(np.count_nonzero(decided < 0) / truth.shape[0])
        self.trial_conflict_mass.append(mean_conflict_mass)
        n = self.class_correct.size
        self.class_correct += np.bincount(truth[correct], minlength=n)

    def result(self, frame: Frame, class_total: np.ndarray) -> MethodResult:
        per_class = {}
        for i, label in enumerate(frame.labels):
            total = class_total[i]
            per_class[label] = float(self.class_correct[i] / total) if total else 0.0
        return MethodResult(
            accuracy=float(np.mean(self.trial_accuracy)),
            per_class=per_class,
            conflict_rate=float(np.mean(self.trial_conflict_rate)),
            mean_conflict_mass=float(np.mean(self.trial_conflict_mass)),
        )


def _decide_row_wise(
    ds: Dataset,
    methods: list[str],
    settings: FusionSettings,
    tested: np.ndarray,
    chunk: int,
) -> dict[str, np.ndarray]:
    """For each ROW_WISE method in ``methods``, a lookup of length N
    holding each tested row's decision.

    Rows are decided in chunks of at most ``chunk`` rows, so no call holds
    larger temporaries than one trial's call; untested rows stay unset.
    """
    row_wise = [name for name in methods if name in ROW_WISE]
    lookups = {name: np.empty(ds.n_samples, dtype=np.int64) for name in row_wise}
    for name, lookup in lookups.items():
        for a in range(0, tested.shape[0], chunk):
            rows = tested[a : a + chunk]
            lookup[rows] = KERNELS[name](ds, settings, None, rows)[0]
    return lookups


def evaluate_dataset(
    ds: Dataset,
    methods: Sequence[str],
    settings: FusionSettings | None = None,
    n_trials: int = SimConfig.n_trials,
    seed: int = SimConfig.seed,
) -> ExperimentReport:
    """Run the repeated split protocol over an existing dataset.

    The ROW_WISE methods are decided once over every row that some trial
    tests; each trial reads its test rows' decisions from that lookup.
    """
    settings = settings or FusionSettings()
    methods = normalize_methods(methods, settings)
    n_trials = check_integer("n_trials", n_trials)
    seed = check_seed(seed)
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    third = ds.n_samples // 3
    if third < 1:
        raise ValueError("dataset too small to split into three non-empty parts")

    perms = [trial_stream(seed, t).permutation(ds.n_samples) for t in range(n_trials)]
    tested = np.unique(np.concatenate([p[2 * third : 3 * third] for p in perms]))
    lookups = _decide_row_wise(ds, methods, settings, tested, third)

    accs = {name: _Accumulator(ds.frame.n) for name in methods}
    class_total = np.zeros(ds.frame.n, dtype=np.int64)
    source_rates = np.zeros(ds.m_sources)
    for perm in perms:
        calib_idx = perm[third : 2 * third]
        test_idx = perm[2 * third : 3 * third]
        truth = ds.truth[test_idx]
        class_total += np.bincount(truth, minlength=ds.frame.n)
        for name in methods:
            if name in lookups:
                accs[name].add_trial(truth, lookups[name][test_idx], 0.0)
            else:
                kernel = KERNELS[name]
                decided, conflict_mass = kernel(ds, settings, calib_idx, test_idx)
                accs[name].add_trial(truth, decided, float(conflict_mass.mean()))
        source_rates += (ds.labels[test_idx] == truth[:, None]).mean(axis=0)

    source_accuracy = {
        sid: float(source_rates[j] / n_trials) for j, sid in enumerate(ds.source_ids)
    }
    return ExperimentReport(
        seed=seed,
        n_trials=n_trials,
        methods={name: accs[name].result(ds.frame, class_total) for name in methods},
        source_accuracy=source_accuracy,
    )


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
