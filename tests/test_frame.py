"""Frame construction and focal-set algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse import CONFLICT, Decision, FocalSet, make_frame


def test_make_frame_basic():
    frame = make_frame(["sand", "rock"])
    assert frame.n == 2
    assert frame.labels == ("sand", "rock")
    assert frame.index("rock") == 1


def test_make_frame_six_classes():
    frame = make_frame([f"c{i}" for i in range(6)])
    assert frame.n == 6


def test_make_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        make_frame([])
    with pytest.raises(ValueError):
        make_frame(["a", "a"])
    with pytest.raises(ValueError):
        make_frame([f"c{i}" for i in range(17)])
    with pytest.raises(ValueError):
        make_frame(["a", ""])


def test_set_operations():
    frame = make_frame(["a", "b", "c"])
    s1, s2 = frame.singleton(0), frame.singleton(1)
    assert (s1 & s2).is_empty()
    assert (s1 | s2).indices() == (0, 1)
    assert frame.singleton(0).complement().indices() == (1, 2)
    assert len(frame.subset([0, 2])) == 2
    assert frame.subset(["a", "c"]) == frame.subset([0, 2])


def test_class_indices_must_be_whole_numbers():
    frame = make_frame(["a", "b", "c"])
    assert frame.check_class(2.0) == 2 and frame.check_class(np.int8(1)) == 1
    for bad in (0.5, 2.9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="is not an integer"):
            frame.check_class(bad)
    for big in (3, 10**400, -(10**400)):
        with pytest.raises(ValueError, match=f"class index {big} out of range"):
            frame.check_class(big)
    got = frame.check_classes([[0.0, 2.0], [1.0, 1.0]])
    assert got.dtype == np.int64 and got.tolist() == [[0, 2], [1, 1]]
    assert frame.check_classes(np.array([2, 0], dtype=np.uint8)).tolist() == [2, 0]
    # The first bad index is reported, whether out of range or fractional.
    for bad, message in (
        ([0.5, 1.7, 2.9], "class index 0.5 is not an integer"),
        ([1, np.nan], "class index nan is not an integer"),
        ([1.0, 3.0, 0.5], "class index 3 out of range"),
        ([1, 10**400], f"class index {10**400} out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            frame.check_classes(bad)
    with pytest.raises(ValueError, match="is not an integer"):
        frame.singleton(1.5)


def test_frame_mismatch_rejected():
    f1 = make_frame(["a", "b"])
    f2 = make_frame(["a", "c"])
    with pytest.raises(ValueError):
        f1.singleton(0) & f2.singleton(0)


def test_focal_set_width_checked():
    frame = make_frame(["a", "b"])
    with pytest.raises(ValueError):
        FocalSet(frame, 1 << 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_algebra_exhaustive_small_frames(n):
    frame = make_frame([f"c{i}" for i in range(n)])
    full, empty = frame.full(), frame.empty()
    for a in frame.subsets():
        assert a.complement().complement() == a
        assert (a & full) == a
        assert (a | empty) == a
        assert len(a) + len(a.complement()) == n


@given(n=st.integers(1, 16), data=st.data())
def test_complement_involution_random(n, data):
    frame = make_frame([f"c{i}" for i in range(n)])
    bits = data.draw(st.integers(0, (1 << n) - 1))
    a = FocalSet(frame, bits)
    assert a.complement().complement() == a
    assert len(a) + len(a.complement()) == n


def test_decision_values():
    assert Decision(2) != CONFLICT
    assert CONFLICT.is_conflict
    assert not Decision(0).is_conflict
    frame = make_frame(["a", "b", "c"])
    assert Decision(2).label(frame) == "c"
    assert CONFLICT.label(frame) == "conflict"
