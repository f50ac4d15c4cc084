"""Confusion-matrix calibration of fusion parameters.

A held-out split supplies, per source, a confusion matrix of true versus
predicted classes. From those counts come the globally normalized vote
weights and the per-class recognition rates feeding the Appriou model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .belief import AppriouParams
from .frame import Frame
from .voting import VoteWeights


@dataclass(frozen=True)
class ConfusionMatrix:
    """Per-source count matrix, rows by true class, columns by predicted."""

    frame: Frame
    counts: np.ndarray  # (n, n) non-negative integers
    source_id: str = ""

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != (self.frame.n, self.frame.n):
            raise ValueError("counts must be an (n, n) matrix over the frame")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def diagonal_rates(self) -> np.ndarray:
        """Per-class success rate; 0 for classes absent from the split."""
        row_sums = self.counts.sum(axis=1)
        rates = np.zeros(self.frame.n)
        seen = row_sums > 0
        rates[seen] = np.diag(self.counts)[seen] / row_sums[seen]
        return rates


def build_confusion(
    preds: Sequence[tuple[int, int]] | np.ndarray, frame: Frame, source_id: str = ""
) -> ConfusionMatrix:
    """Count (true class, predicted class) pairs into a confusion matrix.

    ``preds`` is a sequence of pairs or an equivalent (count, 2) array.
    """
    pairs = frame.check_classes(preds).reshape(-1, 2)
    n = frame.n
    counts = np.bincount(pairs[:, 0] * n + pairs[:, 1], minlength=n * n)
    return ConfusionMatrix(frame, counts.reshape(n, n), source_id)


def _common_frame(cms: Sequence[ConfusionMatrix]) -> Frame:
    if not cms:
        raise ValueError("at least one confusion matrix is required")
    frame = cms[0].frame
    if any(cm.frame != frame for cm in cms):
        raise ValueError("confusion matrices cover different frames")
    return frame


def vote_weights(cms: Sequence[ConfusionMatrix]) -> VoteWeights:
    """Vote weights from per-class success rates, normalized to sum 1 overall."""
    _common_frame(cms)
    raw = np.vstack([cm.diagonal_rates() for cm in cms])
    total = float(raw.sum())
    if total <= 0.0:
        raise ValueError("no source was ever correct; vote weights are undefined")
    return VoteWeights(raw / total)


def conditional_probs(
    cms: Sequence[ConfusionMatrix], alpha: np.ndarray | None = None
) -> AppriouParams:
    """Appriou parameters from confusion diagonals.

    cond_prob[j, i] is source j's success rate on true class i, from which
    AppriouParams derives r. Discounts default to 1 (sources taken at face
    value).
    """
    frame = _common_frame(cms)
    cond = np.vstack([cm.diagonal_rates() for cm in cms])
    maxes = cond.max(axis=1)
    for cm, top in zip(cms, maxes):
        if top <= 0.0:
            raise ValueError(
                f"source {cm.source_id!r} has zero success rate on every class"
            )
    if alpha is None:
        alpha = np.ones_like(cond)
    return AppriouParams(frame, cond, alpha)
