"""Possibility-theoretic fusion of numeric classifier outputs.

Score vectors become possibility distributions by dividing through their
maximum, so every distribution handled here satisfies sup pi = 1. The
induced possibility and necessity measures bound the confidence in any
subset of classes, and distributions from several sources are merged
elementwise with one of four operators before an argmax decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frame import SUM_TOL, Decision, FocalSet, check_number


def _median(x: np.ndarray, axis: int) -> np.ndarray:
    """np.median over ``axis``, bit for bit, without the numpy.ma import of
    its first call on numpy 2: the mean of the two middle sorted values,
    which are one value for an odd count."""
    x = np.sort(x, axis=axis)
    n = x.shape[axis]
    return (x.take((n - 1) // 2, axis) + x.take(n // 2, axis)) / 2


# Elementwise merge operators: each reduces its argument over ``axis``.
OPERATORS = {"min": np.min, "max": np.max, "mean": np.mean, "median": _median}


@dataclass(frozen=True)
class PossibilityDistribution:
    """Membership-degree vector over the frame, with maximum 1."""

    pi: np.ndarray

    def __post_init__(self) -> None:
        pi = check_number("membership degrees", np.array(self.pi), 0, 1)
        if pi.ndim != 1 or pi.size == 0:
            raise ValueError("a distribution is a non-empty vector")
        if abs(float(pi.max()) - 1.0) > SUM_TOL:
            raise ValueError("distribution must be normalized: max membership 1")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.size


def to_possibility(scores: Sequence[float] | np.ndarray) -> PossibilityDistribution:
    """Turn a numeric score vector into a normalized possibility distribution.

    Scores are divided by their maximum. An all-zero score vector carries no
    information and maps to the vacuous all-ones distribution.
    """
    return PossibilityDistribution(_normalize_rows(_check_scores(scores)))


def _check_width(d: PossibilityDistribution, subset: FocalSet) -> None:
    if d.n != subset.frame.n:
        raise ValueError(
            f"distribution over {d.n} classes does not match a frame of "
            f"{subset.frame.n} classes"
        )


def possibility_measure(d: PossibilityDistribution, subset: FocalSet) -> float:
    """Possibility of a subset: the largest membership among its classes."""
    _check_width(d, subset)
    if subset.bits == 0:
        return 0.0
    return float(d.pi[list(subset.indices())].max())


def necessity_measure(d: PossibilityDistribution, subset: FocalSet) -> float:
    """Necessity of a subset: one minus the possibility of its complement."""
    _check_width(d, subset)
    return 1.0 - possibility_measure(d, subset.complement())


def combine(
    dists: list[PossibilityDistribution], op: str
) -> PossibilityDistribution:
    """Merge distributions elementwise, then renormalize by the new maximum.

    "min" behaves conjunctively, "max" disjunctively, "mean" and "median"
    are compromises. Renormalization happens once, after the elementwise
    step, and cannot change the argmax; an all-zero result (possible under
    "min" between disjoint sources) falls back to total ignorance.
    """
    merge = _operator(op)
    if not dists:
        raise ValueError("at least one distribution is required")
    n = dists[0].n
    if any(d.n != n for d in dists):
        raise ValueError("distributions cover different numbers of classes")
    raw = merge(np.vstack([d.pi for d in dists]), axis=0)
    return PossibilityDistribution(_normalize_rows(raw))


def decide_possibilistic(d: PossibilityDistribution) -> Decision:
    """Pick the class with the highest membership; ties go to the lowest index."""
    return Decision(int(np.argmax(d.pi)))


def decide_batch(scores: np.ndarray, op: str) -> np.ndarray:
    """Possibilistic decisions for a batch of (sample, source, class) scores.

    Row by row this is ``to_possibility`` on each source, ``combine`` with
    the operator and ``decide_possibilistic``, run over a leading sample
    axis; the decisions are the same, and so are the rejected scores.
    """
    merge = _operator(op)
    scores = _check_scores(scores)
    if scores.ndim != 3:
        raise ValueError("scores must form a (samples, sources, classes) array")
    merged = merge(_normalize_rows(scores), axis=1)
    # combine's renormalization is left out: it maps the maximum to exactly
    # 1 and every smaller value to below 1, so the argmax cannot move.
    return np.argmax(merged, axis=-1)


def _check_scores(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scores as a float array; raise ValueError unless they are a non-empty
    array of finite numbers in [0, 1]."""
    scores = check_number("scores", scores, 0, 1)
    if np.ndim(scores) == 0 or scores.size == 0:
        raise ValueError("scores must be a non-empty array")
    return scores


def _operator(op: str):
    if op not in OPERATORS:
        raise ValueError(
            f"unknown operator {op!r}, expected one of {tuple(OPERATORS)}"
        )
    return OPERATORS[op]


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Divide each last-axis row by its maximum; all-zero rows become all ones."""
    top = x.max(axis=-1, keepdims=True)
    return np.divide(x, top, out=np.ones_like(x), where=top > 0.0)
