"""Possibility distributions, measures, and combination operators."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import evifuse
from evifuse import (
    Decision,
    PossibilityDistribution,
    combine,
    decide_possibilistic,
    make_frame,
    necessity_measure,
    possibility_measure,
    to_possibility,
)
from evifuse.possibility import OPERATORS, decide_batch

FRAME2 = make_frame(["a", "b"])
FRAME3 = make_frame(["a", "b", "c"])


def _dist(values):
    return PossibilityDistribution(np.asarray(values, dtype=float))


def test_to_possibility_divides_by_max():
    d = to_possibility([0.8, 0.4])
    assert d.pi == pytest.approx([1.0, 0.5])


def test_to_possibility_ignorance_fallback():
    d = to_possibility([0.0, 0.0, 0.0])
    assert d.pi.tolist() == [1.0, 1.0, 1.0]


def test_to_possibility_identity_when_normalized():
    d = to_possibility([1.0, 1.0])
    assert d.pi.tolist() == [1.0, 1.0]


BAD_SCORES = {
    "nan": [0.2, float("nan")],
    "inf": [0.2, float("inf")],
    "negative": [-0.1, 0.5],
    "above_one": [1.4, 0.2],
    "empty": [],
}


@pytest.mark.parametrize("scores", BAD_SCORES.values(), ids=BAD_SCORES.keys())
def test_score_check_is_shared(scores):
    """The scalar and the batch path reject the same scores, with one message."""
    with pytest.raises(ValueError, match="scores must") as scalar:
        to_possibility(scores)
    batch_scores = np.asarray(scores, dtype=float).reshape(1, 1, -1)
    with pytest.raises(ValueError, match="scores must") as batch:
        decide_batch(batch_scores, "max")
    assert str(scalar.value) == str(batch.value)
    good = [0.2, 0.9]
    assert to_possibility(good).pi == pytest.approx([0.2 / 0.9, 1.0])
    assert decide_batch(np.array([[good]]), "max").tolist() == [1]


def test_distribution_requires_normalization():
    with pytest.raises(ValueError):
        _dist([0.5, 0.25])


def test_possibility_measure():
    d = _dist([1.0, 0.5])
    assert possibility_measure(d, FRAME2.singleton(1)) == 0.5
    assert possibility_measure(d, FRAME2.full()) == 1.0
    assert possibility_measure(d, FRAME2.empty()) == 0.0


def test_possibility_measure_width_mismatch():
    with pytest.raises(ValueError):
        possibility_measure(_dist([1.0, 0.5]), FRAME3.singleton(0))


def test_necessity_measure():
    d = _dist([1.0, 0.5])
    assert necessity_measure(d, FRAME2.singleton(0)) == pytest.approx(0.5)
    assert necessity_measure(d, FRAME2.full()) == 1.0
    assert necessity_measure(_dist([1.0, 1.0]), FRAME2.singleton(0)) == 0.0


def test_combine_min_renormalizes():
    out = combine([_dist([1.0, 0.4]), _dist([0.7, 1.0])], "min")
    assert out.pi == pytest.approx([1.0, 0.4 / 0.7])


def test_combine_single_is_identity():
    d = _dist([0.3, 1.0, 0.6])
    for op in ("min", "max", "mean", "median"):
        assert combine([d], op).pi == pytest.approx(d.pi)


def test_combine_max():
    out = combine([_dist([1.0, 0.0]), _dist([0.0, 1.0])], "max")
    assert out.pi.tolist() == [1.0, 1.0]


def test_combine_min_total_disagreement_falls_back():
    out = combine([_dist([1.0, 0.0]), _dist([0.0, 1.0])], "min")
    assert out.pi.tolist() == [1.0, 1.0]


def test_combine_rejects_bad_input():
    with pytest.raises(ValueError):
        combine([], "min")
    with pytest.raises(ValueError):
        combine([_dist([1.0, 0.5])], "product")
    with pytest.raises(ValueError):
        combine([_dist([1.0, 0.5]), _dist([1.0, 0.5, 0.2])], "min")


def test_decide_possibilistic():
    assert decide_possibilistic(_dist([1.0, 0.5])) == Decision(0)
    assert decide_possibilistic(_dist([1.0, 1.0])) == Decision(0)  # tie-break low
    assert decide_possibilistic(_dist([0.2, 1.0, 0.9])) == Decision(1)


unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def distributions(draw, n=3):
    values = [draw(unit) for _ in range(n)]
    values[draw(st.integers(0, n - 1))] = 1.0
    return _dist(values)


@given(distributions())
def test_maxitivity(d):
    """Possibility of a union is the max of the parts' possibilities."""
    for a, b in itertools.product(FRAME3.subsets(), repeat=2):
        assert possibility_measure(d, a | b) == pytest.approx(
            max(possibility_measure(d, a), possibility_measure(d, b))
        )


@given(distributions())
def test_necessity_below_possibility(d):
    for a in FRAME3.subsets():
        assert necessity_measure(d, a) <= possibility_measure(d, a) + 1e-12


@given(st.lists(distributions(), min_size=1, max_size=5), st.permutations(range(5)))
def test_min_max_order_invariant(dists, perm):
    order = [i for i in perm if i < len(dists)]
    shuffled = [dists[i] for i in order]
    for op in ("min", "max"):
        assert combine(dists, op).pi == pytest.approx(combine(shuffled, op).pi)


@given(distributions(), st.floats(0.01, 100.0, allow_nan=False))
# Two scores one ulp apart: this scale rounds them to one value, so the
# rescaled scores themselves tie and the draw is skipped.
@example(_dist([1.0 - 2.0**-53, 1.0, 0.0]), 0.049)
def test_decision_invariant_under_score_rescaling(d, scale):
    """Scaling raw scores cannot move the argmax after normalization."""
    scores = d.pi * 0.01  # keep rescaled scores within [0, 1]
    rescaled = np.clip(scores * scale, 0.0, 1.0)
    if rescaled.max() <= 0.0:
        return
    # A positive scale keeps the order of the scores, but rounding the
    # product can merge top scores into a tie the raw scores do not have.
    assume((rescaled == rescaled.max()).sum() == (scores == scores.max()).sum())
    a = to_possibility(scores)
    b = to_possibility(rescaled)
    assert decide_possibilistic(a) == decide_possibilistic(b)
    assert decide_possibilistic(a) == Decision(int(np.argmax(scores)))


@pytest.mark.parametrize("m", range(1, 13))
def test_median_operator_equals_np_median(m):
    # random, rounded (so tied) and zero scores, over the axis combine merges
    # (sources of a 2-d stack) and the one decide_batch merges (sources of a
    # 3-d batch); the even counts take the mean of the two middle values
    rng = np.random.default_rng(m)
    random = rng.random((200, m, 5))
    zeros = np.where(rng.random(random.shape) < 0.5, 0.0, random)
    for x in (random, np.round(random, 1), zeros, np.zeros_like(random)):
        for stack, axis in ((x[0], 0), (x, 1)):
            got = OPERATORS["median"](stack, axis=axis)
            want = np.median(stack, axis=axis)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_median_method_leaves_numpy_ma_unimported():
    # On numpy 2, np.median imports numpy.ma on its first call: about 9 ms
    # and 1 MB resident in a fresh `evifuse eval`.
    script = (
        "import sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from evifuse import default_config, evaluate_dataset, simulate\n"
        "ds = simulate(default_config(n_samples=60, n_trials=2))\n"
        "evaluate_dataset(ds, ['possibility_median'], n_trials=2)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(evifuse.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.ma, as numpy 1.x does")
    assert after == "False"
