"""Possibility-theoretic fusion of numeric classifier scores.

Score vectors become possibility distributions (max membership 1), which
induce a possibility measure (how compatible is a hypothesis with the
evidence) and a necessity measure (how certain is it). Distributions from
several classifiers are merged elementwise; the operator choice trades
conjunctive severity against disjunctive caution.
"""

import numpy as np

from evifuse import (
    OPERATORS,
    combine,
    decide_possibilistic,
    make_frame,
    necessity_measure,
    possibility_measure,
    to_possibility,
)

frame = make_frame(["a", "b", "c"])

print("--- from scores to a distribution ---")
scores = [0.8, 0.4, 0.1]
d = to_possibility(scores)
print(f"scores {scores} -> pi {np.round(d.pi, 4).tolist()}")

subset = frame.subset(["b", "c"])
print(f"possibility of {subset}: {possibility_measure(d, subset):.3f}")
print(f"necessity  of {subset}: {necessity_measure(d, subset):.3f}")
print(f"necessity of {{a}}:      {necessity_measure(d, frame.singleton(0)):.3f}")

print("--- fusing three classifiers ---")
dists = [
    to_possibility(s) for s in ([0.9, 0.6, 0.1], [0.7, 0.8, 0.2], [0.8, 0.5, 0.3])
]
for op in OPERATORS:
    merged = combine(dists, op)
    decision = decide_possibilistic(merged)
    print(
        f"{op:7s} -> pi {np.round(merged.pi, 3).tolist()}"
        f"  decision: {decision.label(frame)}"
    )

print("--- conflicting sources ---")
clash = [
    to_possibility([1.0, 0.0, 0.0]),
    to_possibility([0.0, 1.0, 0.0]),
]
print(f"min of flatly opposed sources: {combine(clash, 'min').pi.tolist()}")
print("(an all-zero elementwise result falls back to total ignorance)")
