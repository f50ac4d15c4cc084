"""Vote-based fusion of symbolic classifier decisions.

Sources cast one vote each; tallies may be plain counts or weighted by
per-source, per-class reliability weights. Three decision rules are
provided: relative majority, absolute majority, and a thresholded
generalization of both. The ``*_batch`` functions apply the same tally and
rules to many rows of votes at once; the scalar functions are their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frame import CONFLICT, SUM_TOL, Decision, Frame, check_number


@dataclass(frozen=True)
class VoteWeights:
    """Per-source, per-class vote weights with a global sum of 1."""

    alpha: np.ndarray  # shape (m, n): weight of source j voting for class k

    def __post_init__(self) -> None:
        alpha = check_number("weights", np.array(self.alpha), 0, 1)
        if alpha.ndim != 2:
            raise ValueError("weights must form an (m, n) matrix")
        if abs(float(alpha.sum()) - 1.0) > SUM_TOL:
            raise ValueError("weights must sum to 1 over all sources and classes")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class VoteTally:
    """Accumulated votes per class, possibly weight-normalized."""

    counts: np.ndarray
    m_sources: int
    weighted: bool = False

    def __post_init__(self) -> None:
        counts = check_number("counts", np.array(self.counts), 0)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty vector")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def _check_weights(weights: VoteWeights | None, m: int, frame: Frame) -> None:
    if weights is not None and weights.alpha.shape != (m, frame.n):
        raise ValueError(
            f"weight matrix of shape {weights.alpha.shape} does not match "
            f"{m} sources over {frame.n} classes"
        )


def tally(
    labels: Sequence[int], frame: Frame, weights: VoteWeights | None = None
) -> VoteTally:
    """Accumulate the sources' votes, optionally weighted per source and class."""
    idx = [frame.check_class(k) for k in labels]
    m = len(idx)
    _check_weights(weights, m, frame)
    counts = np.zeros(frame.n)
    if weights is None:
        for k in idx:
            counts[k] += 1.0
    else:
        for j, k in enumerate(idx):
            counts[k] += weights.alpha[j, k]
    return VoteTally(counts, m, weighted=weights is not None)


def decide_majority(t: VoteTally) -> Decision:
    """Relative majority: the class with the unique strict maximum of votes.

    A tied maximum, or a tally with no votes at all, decides the conflict
    class instead of picking arbitrarily: the threshold rule at c = b = 0.
    """
    return decide_threshold(t, 0.0, 0.0)


def decide_absolute_majority(t: VoteTally) -> Decision:
    """Absolute majority: a class wins only with strictly more than half the votes."""
    if t.weighted:
        raise ValueError(
            "absolute majority is defined on raw vote counts, not normalized weights"
        )
    k = int(np.argmax(t.counts))
    if t.counts[k] > t.m_sources / 2.0:
        return Decision(k)
    return CONFLICT


def decide_threshold(t: VoteTally, c: float, b: float = 0.0) -> Decision:
    """Generalized rule: the unique maximum must also reach c*W + b votes.

    W is the tally's total, counts.sum(): the number of votes m for a plain
    tally, the summed weight of the cast votes for a weighted one, so c is
    a share of the tally on either scale. c = 0, b = 0 recovers the
    relative-majority rule; c = 1/2 approaches the absolute-majority rule.
    A tally with no votes decides the conflict class regardless of the
    threshold.
    """
    c = check_number("threshold coefficient c", c, 0, 1)
    b = check_number("threshold offset b", b)
    counts = t.counts
    k = int(np.argmax(counts))
    top = counts[k]
    if top <= 0.0 or int(np.count_nonzero(counts == top)) > 1:
        return CONFLICT
    if top >= c * counts.sum() + b:
        return Decision(k)
    return CONFLICT


def tally_batch(
    labels: np.ndarray, frame: Frame, weights: VoteWeights | None = None
) -> np.ndarray:
    """Tallies of many rows of votes: (b, m) labels -> (b, n) counts.

    Weights are added one source at a time in source order, the order of
    ``tally``, so each row's counts equal its scalar tally bit for bit.
    """
    labels = frame.check_classes(labels)
    if labels.ndim != 2:
        raise ValueError("labels must form a (samples, sources) matrix")
    b, m = labels.shape
    _check_weights(weights, m, frame)
    counts = np.zeros((b, frame.n))
    rows = np.arange(b)
    for j in range(m):
        k = labels[:, j]
        counts[rows, k] += 1.0 if weights is None else weights.alpha[j, k]
    return counts


def decide_threshold_batch(counts: np.ndarray, c: float, b: float = 0.0) -> np.ndarray:
    """``decide_threshold`` per row of counts; -1 is conflict."""
    c = check_number("threshold coefficient c", c, 0, 1)
    b = check_number("threshold offset b", b)
    top = counts.max(axis=1)
    unique = np.count_nonzero(counts == top[:, None], axis=1) == 1
    wins = (top > 0.0) & unique & (top >= c * counts.sum(axis=1) + b)
    return np.where(wins, np.argmax(counts, axis=1), -1)
