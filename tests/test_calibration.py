"""Confusion matrices and the fusion parameters estimated from them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse import (
    ConfusionMatrix,
    build_confusion,
    conditional_probs,
    make_frame,
    vote_weights,
)

FRAME2 = make_frame(["a", "b"])
FRAME3 = make_frame(["a", "b", "c"])


def test_build_confusion_counts():
    cm = build_confusion([(0, 0), (0, 1), (1, 1)], FRAME2)
    assert cm.counts.tolist() == [[1, 1], [0, 1]]


def test_build_confusion_empty():
    cm = build_confusion([], FRAME2)
    assert cm.counts.tolist() == [[0, 0], [0, 0]]


def test_build_confusion_perfect_predictor():
    pairs = [(i, i) for i in range(3) for _ in range(4)]
    cm = build_confusion(pairs, FRAME3)
    assert cm.counts.tolist() == (np.eye(3, dtype=int) * 4).tolist()


def test_build_confusion_validates_classes():
    with pytest.raises(ValueError):
        build_confusion([(0, 2)], FRAME2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=40))
def test_build_confusion_counts_pairs_and_arrays(pairs):
    want = np.zeros((3, 3), dtype=int)
    for truth, predicted in pairs:
        want[truth, predicted] += 1
    assert build_confusion(pairs, FRAME3).counts.tolist() == want.tolist()
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert build_confusion(array, FRAME3).counts.tolist() == want.tolist()


@pytest.mark.parametrize("pairs", [[(0, 0), (-1, 1)], [(1, 0), (1, 3)]])
def test_build_confusion_reports_first_bad_class(pairs):
    bad = [k for pair in pairs for k in pair if not 0 <= k < 2][0]
    with pytest.raises(ValueError, match=f"class index {bad} out of range"):
        build_confusion(pairs, FRAME2)
    with pytest.raises(ValueError, match=f"class index {bad} out of range"):
        build_confusion(np.array(pairs), FRAME2)


def test_vote_weights_single_diagonal_source():
    cm = build_confusion([(i, i) for i in range(3)], FRAME3)
    weights = vote_weights([cm])
    assert weights.alpha == pytest.approx(np.full((1, 3), 1.0 / 3.0))


def test_vote_weights_ignore_always_wrong_source():
    good = build_confusion([(0, 0), (1, 1)], FRAME2, "good")
    bad = build_confusion([(0, 1), (1, 0)], FRAME2, "bad")
    weights = vote_weights([good, bad])
    assert weights.alpha[1].tolist() == [0.0, 0.0]
    assert float(weights.alpha[0].sum()) == pytest.approx(1.0)


def test_vote_weights_identical_sources_get_identical_rows():
    cm1 = build_confusion([(0, 0), (0, 1), (1, 1)], FRAME2, "s1")
    cm2 = build_confusion([(0, 0), (0, 1), (1, 1)], FRAME2, "s2")
    weights = vote_weights([cm1, cm2])
    assert weights.alpha[0].tolist() == weights.alpha[1].tolist()
    assert float(weights.alpha.sum()) == pytest.approx(1.0, abs=1e-9)


def test_vote_weights_all_zero_is_an_error():
    bad = build_confusion([(0, 1), (1, 0)], FRAME2)
    with pytest.raises(ValueError):
        vote_weights([bad])


def test_conditional_probs_diagonal_source():
    cm = build_confusion([(i, i) for i in range(3)], FRAME3)
    params = conditional_probs([cm])
    assert params.cond_prob[0].tolist() == [1.0, 1.0, 1.0]
    assert params.r[0] == pytest.approx(1.0)
    assert params.alpha[0].tolist() == [1.0, 1.0, 1.0]


def test_conditional_probs_frequencies():
    # class "a" seen four times, recognized three times
    pairs = [(0, 0), (0, 0), (0, 0), (0, 1), (1, 1)]
    params = conditional_probs([build_confusion(pairs, FRAME2)])
    assert params.cond_prob[0, 0] == pytest.approx(0.75)


def test_conditional_probs_r_is_reciprocal_of_row_max():
    pairs = [(0, 0), (0, 1), (1, 1), (1, 0), (1, 0), (1, 0)]
    params = conditional_probs([build_confusion(pairs, FRAME2)])
    assert params.cond_prob[0].tolist() == [0.5, 0.25]
    assert params.r[0] == pytest.approx(2.0)
    assert params.r[0] * params.cond_prob[0].max() == pytest.approx(1.0, abs=1e-9)


def test_conditional_probs_useless_source_is_an_error():
    bad = build_confusion([(0, 1), (1, 0)], FRAME2)
    with pytest.raises(ValueError):
        conditional_probs([bad])


def test_duplicating_samples_keeps_frequencies():
    pairs = [(0, 0), (0, 1), (1, 1)]
    once = conditional_probs([build_confusion(pairs, FRAME2)])
    twice = conditional_probs([build_confusion(pairs * 2, FRAME2)])
    assert once.cond_prob.tolist() == twice.cond_prob.tolist()
    assert once.r.tolist() == twice.r.tolist()


def test_mixed_frames_rejected():
    with pytest.raises(ValueError):
        vote_weights(
            [build_confusion([], FRAME2), build_confusion([], FRAME3)]
        )


def test_confusion_matrix_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(FRAME2, np.array([[1, -1], [0, 0]]))
