"""Vote tallies and the three decision rules."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse import (
    CONFLICT,
    Decision,
    VoteTally,
    VoteWeights,
    decide_absolute_majority,
    decide_majority,
    decide_threshold,
    make_frame,
    tally,
)

FRAME3 = make_frame(["a", "b", "c"])


def test_tally_unweighted():
    t = tally([0, 0, 1], FRAME3)
    assert t.counts.tolist() == [2.0, 1.0, 0.0]
    assert t.m_sources == 3
    assert not t.weighted


def test_tally_empty():
    t = tally([], FRAME3)
    assert t.counts.tolist() == [0.0, 0.0, 0.0]
    assert t.m_sources == 0


def test_tally_weighted_uniform():
    # two sources, uniform weights 1/(m*n): each vote lands 1/(2n)
    m, n = 2, 3
    weights = VoteWeights(np.full((m, n), 1.0 / (m * n)))
    t = tally([0, 1], FRAME3, weights)
    assert t.weighted
    assert t.counts == pytest.approx([1.0 / (2 * n), 1.0 / (2 * n), 0.0])


def test_tally_weight_shape_mismatch():
    weights = VoteWeights(np.full((2, 3), 1.0 / 6))
    with pytest.raises(ValueError):
        tally([0, 1, 2], FRAME3, weights)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_vote_tally_rejects_non_finite_counts(bad):
    with pytest.raises(ValueError, match="counts must be finite"):
        VoteTally(np.array([1.0, bad, 0.0]), 2)


def test_weights_must_normalize():
    with pytest.raises(ValueError):
        VoteWeights(np.full((2, 3), 0.5))


def test_decide_majority():
    assert decide_majority(tally([0, 0, 1], FRAME3)) == Decision(0)
    assert decide_majority(tally([0, 1], FRAME3)) == CONFLICT
    assert decide_majority(tally([], FRAME3)) == CONFLICT


def test_decide_absolute_majority():
    assert decide_absolute_majority(tally([0, 0, 1], FRAME3)) == Decision(0)
    # even split between two classes
    assert decide_absolute_majority(tally([0, 0, 1, 1], FRAME3)) == CONFLICT
    # every source votes differently
    frame4 = make_frame(["a", "b", "c", "d"])
    assert decide_absolute_majority(tally([0, 1, 2, 3], frame4)) == CONFLICT


def test_absolute_majority_rejects_weighted_tally():
    weights = VoteWeights(np.full((2, 3), 1.0 / 6))
    with pytest.raises(ValueError):
        decide_absolute_majority(tally([0, 1], FRAME3, weights))


def test_decide_threshold():
    t = tally([0, 0, 0], FRAME3)
    assert decide_threshold(t, c=0.5, b=0.0) == Decision(0)  # 3 >= 1.5
    assert decide_threshold(tally([0, 1, 2], FRAME3), c=0.0, b=0.0) == CONFLICT
    assert decide_threshold(tally([0, 0, 1], FRAME3), c=1.0, b=0.0) == CONFLICT
    with pytest.raises(ValueError):
        decide_threshold(t, c=1.5)
    for b in (float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="threshold offset b"):
            decide_threshold(tally([0, 0, 1], FRAME3), 0.0, b)


def test_threshold_offset_shifts_bar():
    t = tally([0, 0, 1], FRAME3)
    assert decide_threshold(t, c=0.0, b=2.0) == Decision(0)
    assert decide_threshold(t, c=0.0, b=2.5) == CONFLICT


@given(
    st.lists(st.integers(0, 2), max_size=12).flatmap(
        lambda xs: st.tuples(st.just(xs), st.permutations(xs))
    )
)
def test_tally_permutation_invariant(pair):
    labels, shuffled = pair
    assert (
        tally(labels, FRAME3).counts.tolist()
        == tally(shuffled, FRAME3).counts.tolist()
    )


@given(st.lists(st.integers(0, 2), max_size=12))
def test_unweighted_counts_sum_to_source_count(labels):
    t = tally(labels, FRAME3)
    assert float(t.counts.sum()) == t.m_sources


@given(st.lists(st.integers(0, 2), min_size=1, max_size=9))
def test_absolute_implies_majority(labels):
    t = tally(labels, FRAME3)
    absolute = decide_absolute_majority(t)
    if not absolute.is_conflict:
        assert decide_majority(t) == absolute


@given(
    st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=6
    ),
    st.integers(1, 6),
)
def test_threshold_zero_matches_majority(counts, m):
    t = VoteTally(np.array(counts), m)
    assert decide_threshold(t, c=0.0, b=0.0) == decide_majority(t)


def test_odd_sources_two_classes_always_decide():
    # with an odd number of voters over two classes there is no tie
    frame2 = make_frame(["a", "b"])
    for m in (1, 3, 5, 7):
        for votes in itertools.product(range(2), repeat=m):
            assert not decide_absolute_majority(tally(votes, frame2)).is_conflict
