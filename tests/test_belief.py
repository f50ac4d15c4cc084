"""Mass functions, evidence models, combination, and pignistic decisions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse import (
    CONFLICT,
    AppriouParams,
    Decision,
    MassFunction,
    TrainingSet,
    appriou_mass,
    appriou_raw_masses,
    combine_all,
    conjunctive_combine,
    decide_pignistic,
    default_gamma,
    denoeux_classify_mass,
    denoeux_mass,
    make_frame,
    vacuous,
)
from evifuse import belief
from evifuse.belief import (
    _mean_pairwise_distance,
    appriou_decide_batch,
    denoeux_decide_batch,
)
from helpers import (
    brute_belief,
    brute_combine,
    brute_pignistic,
    brute_plausibility,
    dense_from_mass,
    random_mass,
)

FRAME2 = make_frame(["a", "b"])
FRAME3 = make_frame(["a", "b", "c"])


def bayes(frame, values):
    return MassFunction(
        frame, [(frame.singleton(i), v) for i, v in enumerate(values)]
    )


# ---------------------------------------------------------------------------
# mass function basics


def test_mass_must_sum_to_one():
    with pytest.raises(ValueError):
        MassFunction(FRAME2, {FRAME2.singleton(0): 0.5})
    with pytest.raises(ValueError):
        MassFunction(FRAME2, {FRAME2.singleton(0): 1.5, FRAME2.singleton(1): -0.5})


def test_zero_masses_dropped():
    m = MassFunction(FRAME2, {FRAME2.singleton(0): 1.0, FRAME2.singleton(1): 0.0})
    assert len(m) == 1
    assert m.mass(FRAME2.singleton(1)) == 0.0


def test_duplicate_focal_sets_accumulate():
    m = MassFunction(
        FRAME2, [(FRAME2.singleton(0), 0.4), (FRAME2.singleton(0), 0.6)]
    )
    assert m.mass(FRAME2.singleton(0)) == pytest.approx(1.0)


def test_vacuous():
    for frame in (FRAME2, make_frame([f"c{i}" for i in range(6)])):
        m = vacuous(frame)
        assert m.mass(frame.full()) == 1.0
        assert m.conflict_mass() == 0.0


def test_mass_functions_are_immutable():
    m = vacuous(FRAME2)
    with pytest.raises(AttributeError):
        m.frame = FRAME3


# ---------------------------------------------------------------------------
# conjunctive combination


def test_combine_worked_example():
    m1 = MassFunction(FRAME2, {FRAME2.singleton(0): 0.6, FRAME2.full(): 0.4})
    m2 = MassFunction(FRAME2, {FRAME2.singleton(1): 0.5, FRAME2.full(): 0.5})
    m = conjunctive_combine(m1, m2)
    assert m.mass(FRAME2.empty()) == pytest.approx(0.3)
    assert m.mass(FRAME2.singleton(0)) == pytest.approx(0.3)
    assert m.mass(FRAME2.singleton(1)) == pytest.approx(0.2)
    assert m.mass(FRAME2.full()) == pytest.approx(0.2)


def test_vacuous_is_neutral():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_mass(rng, FRAME3)
        combined = conjunctive_combine(m, vacuous(FRAME3))
        for fs in FRAME3.subsets():
            assert combined.mass(fs) == pytest.approx(m.mass(fs), abs=1e-12)


def test_total_conflict():
    m1 = bayes(FRAME2, [1.0, 0.0])
    m2 = bayes(FRAME2, [0.0, 1.0])
    m = conjunctive_combine(m1, m2)
    assert m.conflict_mass() == pytest.approx(1.0)
    assert decide_pignistic(m) == CONFLICT
    with pytest.raises(ValueError):
        m.pignistic()


def test_combine_keeps_tiny_products():
    # Both singleton products fall below 1e-12; nothing is pruned, and the
    # pignistic vector, over about 7e-13 of non-empty mass, sums to 1 (up to
    # the few digits that 1 - m(empty) holds of it).
    a, b = FRAME2.singleton(0), FRAME2.singleton(1)
    m1 = MassFunction(FRAME2, {a: 3e-13, b: 1.0 - 3e-13})
    m2 = MassFunction(FRAME2, {b: 4e-13, a: 1.0 - 4e-13})
    m = conjunctive_combine(m1, m2)
    assert m.mass(a) == 3e-13 * (1.0 - 4e-13)
    assert m.mass(b) == 4e-13 * (1.0 - 3e-13)
    assert m.pignistic().sum() == pytest.approx(1.0, rel=1e-3)
    assert m.pignistic() == pytest.approx([3 / 7, 4 / 7], rel=1e-3)
    assert decide_pignistic(m) == Decision(1)


def test_combine_leaves_out_underflowed_products():
    # Supports of 1e-200 keep their singletons; their product, on the empty
    # set, underflows to 0.0 and is not stored.
    ts = TrainingSet(
        FRAME2, [[0.0], [1.0]], [0, 1], k=2, alpha=1e-200, gamma=np.ones(2)
    )
    m = denoeux_classify_mass([0.0], ts)
    assert sorted(fs.bits for fs in m.focal_sets()) == [1, 2, 3]
    assert m.mass(FRAME2.singleton(0)) == 1e-200
    assert m.mass(FRAME2.singleton(1)) == 1e-200 * math.exp(-1.0)
    assert decide_pignistic(m) == Decision(0)


def test_combine_frame_mismatch():
    with pytest.raises(ValueError):
        conjunctive_combine(vacuous(FRAME2), vacuous(FRAME3))


def test_combine_matches_brute_force():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        frame = make_frame([f"c{i}" for i in range(n)])
        for _ in range(50):
            m1, m2 = random_mass(rng, frame), random_mass(rng, frame)
            expected = brute_combine(dense_from_mass(m1), dense_from_mass(m2))
            got = dense_from_mass(conjunctive_combine(m1, m2))
            assert np.max(np.abs(got - expected)) < 1e-9


@st.composite
def masses(draw, frame=FRAME3):
    size = 1 << frame.n
    count = draw(st.integers(1, min(5, size)))
    bits = draw(
        st.lists(
            st.integers(0, size - 1), min_size=count, max_size=count, unique=True
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    total = math.fsum(weights)
    subsets = list(frame.subsets())
    return MassFunction(
        frame, [(subsets[b], w / total) for b, w in zip(bits, weights)]
    )


@given(masses(), masses())
def test_combination_preserves_normalization(m1, m2):
    m = conjunctive_combine(m1, m2)
    assert math.fsum(v for _, v in m.items()) == pytest.approx(1.0, abs=1e-9)


@given(masses(), masses())
def test_combination_commutes(m1, m2):
    a = conjunctive_combine(m1, m2)
    b = conjunctive_combine(m2, m1)
    for fs in FRAME3.subsets():
        assert a.mass(fs) == pytest.approx(b.mass(fs), abs=1e-9)


@settings(max_examples=50)
@given(masses(), masses(), masses())
def test_combination_associates(m1, m2, m3):
    a = conjunctive_combine(conjunctive_combine(m1, m2), m3)
    b = conjunctive_combine(m1, conjunctive_combine(m2, m3))
    for fs in FRAME3.subsets():
        assert a.mass(fs) == pytest.approx(b.mass(fs), abs=1e-9)


# ---------------------------------------------------------------------------
# belief, plausibility, pignistic


def test_belief_plausibility_worked_example():
    m = MassFunction(
        FRAME2,
        {
            FRAME2.singleton(0): 0.3,
            FRAME2.singleton(1): 0.2,
            FRAME2.full(): 0.2,
            FRAME2.empty(): 0.3,
        },
    )
    assert m.belief(FRAME2.singleton(0)) == pytest.approx(0.3)
    assert m.plausibility(FRAME2.singleton(0)) == pytest.approx(0.5)
    assert m.belief(FRAME2.full()) == pytest.approx(1.0 - m.conflict_mass())
    assert m.belief(FRAME2.empty()) == 0.0
    assert m.plausibility(FRAME2.empty()) == 0.0


@given(masses())
def test_belief_plausibility_duality(m):
    empty = m.conflict_mass()
    for a in FRAME3.subsets():
        bel = m.belief(a)
        pl = m.plausibility(a)
        assert bel <= pl + 1e-12
        assert bel + m.plausibility(a.complement()) == pytest.approx(
            1.0 - empty, abs=1e-9
        )


def test_belief_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = random_mass(rng, FRAME3)
        vec = dense_from_mass(m)
        for a in FRAME3.subsets():
            assert m.belief(a) == pytest.approx(brute_belief(vec, a.bits), abs=1e-12)
            assert m.plausibility(a) == pytest.approx(
                brute_plausibility(vec, a.bits), abs=1e-12
            )


def test_pignistic_worked_example():
    m = MassFunction(
        FRAME2,
        {
            FRAME2.singleton(0): 0.3,
            FRAME2.singleton(1): 0.2,
            FRAME2.full(): 0.2,
            FRAME2.empty(): 0.3,
        },
    )
    assert m.pignistic() == pytest.approx([4.0 / 7.0, 3.0 / 7.0], abs=1e-12)
    assert decide_pignistic(m) == Decision(0)


def test_pignistic_vacuous_is_uniform():
    m = vacuous(FRAME3)
    assert m.pignistic() == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert decide_pignistic(m) == Decision(0)  # tie-break to lowest index


def test_pignistic_identity_on_bayesian_mass():
    m = bayes(FRAME2, [0.7, 0.3])
    assert m.pignistic() == pytest.approx([0.7, 0.3], abs=1e-12)
    assert decide_pignistic(m) == Decision(0)


@given(masses())
def test_pignistic_matches_brute_force(m):
    if 1.0 - m.conflict_mass() <= 0.0:
        return
    expected = brute_pignistic(dense_from_mass(m), FRAME3.n)
    got = m.pignistic()
    assert got == pytest.approx(expected, abs=1e-9)
    assert float(got.sum()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Appriou model


def _params(cond, alpha=None):
    cond = np.asarray(cond, dtype=float)
    r = 1.0 / cond.max(axis=1)
    if alpha is None:
        alpha = np.ones_like(cond)
    return AppriouParams(FRAME3, cond, r, alpha)


def test_appriou_halfway_point():
    # p = 0.5 with r = 2 puts equal mass on the class and its complement
    params = _params([[0.5, 0.3, 0.1]])
    m = appriou_mass(0, 0, params)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(0.5)
    assert m.mass(FRAME3.singleton(0).complement()) == pytest.approx(0.5)
    assert m.mass(FRAME3.full()) == 0.0


def test_appriou_perfect_source():
    params = _params([[1.0, 1.0, 1.0]])
    m = appriou_mass(0, 0, params)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(0.5)
    assert m.mass(FRAME3.singleton(0).complement()) == pytest.approx(0.5)


def test_appriou_full_discount_is_vacuous():
    params = _params([[0.5, 0.3, 0.1]], alpha=np.zeros((1, 3)))
    m = appriou_mass(0, 0, params)
    assert m.mass(FRAME3.full()) == pytest.approx(1.0)


def test_appriou_corrected_masses_sum_to_one():
    for p_max in (0.2, 0.5, 0.9, 1.0):
        r = 1.0 / p_max
        for p in np.linspace(0.0, p_max, 7):
            for alpha in (0.0, 0.3, 1.0):
                triple = appriou_raw_masses(p, r, alpha)
                assert math.fsum(triple) == pytest.approx(1.0, abs=1e-12)


def test_appriou_as_printed_breaks_additivity():
    # the uncorrected complement mass overshoots whenever r > 1
    for p_max in (0.2, 0.5, 0.9):
        r = 1.0 / p_max
        triple = appriou_raw_masses(p_max / 2, r, 1.0, as_printed=True)
        assert math.fsum(triple) > 1.0 + 1e-6
    # and agrees with the corrected model when r == 1
    assert math.fsum(appriou_raw_masses(0.7, 1.0, 1.0, as_printed=True)) == (
        pytest.approx(1.0, abs=1e-12)
    )


def test_appriou_as_printed_mass_is_renormalized():
    params = _params([[0.5, 0.3, 0.1]])
    m = appriou_mass(0, 0, params, as_printed=True)
    assert math.fsum(v for _, v in m.items()) == pytest.approx(1.0, abs=1e-12)


def test_appriou_params_validate_r():
    with pytest.raises(ValueError):
        AppriouParams(
            FRAME3, np.array([[0.5, 0.3, 0.1]]), np.array([3.0]), np.ones((1, 3))
        )
    with pytest.raises(ValueError):
        AppriouParams(
            FRAME3, np.zeros((1, 3)), np.array([1.0]), np.ones((1, 3))
        )


def test_appriou_two_to_one_majority_ties_with_unreported_class():
    # At alpha = 1 a source reporting its best-recognized class (r p = 1)
    # puts 1/2 on the class and 1/2 on its complement. Two such sources for
    # a leave 1/4 on {a}, 1/4 on {b, c} and 1/2 on the empty set; the third
    # source reports b with r p = 1/2, so 1/3 on {b} and 2/3 on {a, c}.
    params = _params([[0.8, 0.4, 0.4]] * 3)
    assert params.r.tolist() == [1.25] * 3
    row = [0, 0, 1]
    m = combine_all([appriou_mass(j, k, params) for j, k in enumerate(row)])
    assert m.conflict_mass() == pytest.approx(7 / 12, abs=1e-12)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(1 / 6, abs=1e-12)
    assert m.mass(FRAME3.singleton(2)) == pytest.approx(1 / 6, abs=1e-12)
    assert m.mass(FRAME3.singleton(1)) == pytest.approx(1 / 12, abs=1e-12)
    assert m.pignistic() == pytest.approx([0.4, 0.2, 0.4], abs=1e-12)
    d = decide_pignistic(m)
    decided, conflict = appriou_decide_batch(np.array([row]), params)
    assert decided.tolist() == [d.index]
    assert conflict[0] == pytest.approx(m.conflict_mass(), abs=1e-12)


def test_appriou_index_checks():
    params = _params([[0.5, 0.3, 0.1]])
    with pytest.raises(ValueError):
        appriou_mass(1, 0, params)
    with pytest.raises(ValueError):
        appriou_mass(0, 3, params)
    # Fractional labels are rejected, not truncated to a class.
    with pytest.raises(ValueError, match="class index 1.5 is not an integer"):
        appriou_mass(0, 1.5, params)
    with pytest.raises(ValueError, match="class index 1.5 is not an integer"):
        appriou_decide_batch(np.array([[1.5]]), params)


# ---------------------------------------------------------------------------
# Denoeux model


def _training_set(**kwargs):
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]])
    y = np.array([0, 0, 1, 2])
    return TrainingSet(FRAME3, x, y, **kwargs)


def test_denoeux_mass_at_zero_distance():
    ts = _training_set(alpha=0.95, gamma=np.ones(3))
    m = denoeux_mass([0.0, 0.0], 0, ts)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(0.95)
    assert m.mass(FRAME3.full()) == pytest.approx(0.05)


def test_denoeux_mass_far_away_is_ignorant():
    ts = _training_set(alpha=1.0, gamma=np.ones(3))
    m = denoeux_mass([100.0, 100.0], 0, ts)
    assert m.mass(FRAME3.full()) == pytest.approx(1.0, abs=1e-12)


def test_denoeux_mass_unit_distance():
    ts = _training_set(alpha=1.0, gamma=np.ones(3))
    m = denoeux_mass([1.0, 0.0], 0, ts)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(math.exp(-1.0))


def test_denoeux_mass_dimension_mismatch():
    ts = _training_set(gamma=np.ones(3))
    with pytest.raises(ValueError):
        denoeux_mass([1.0, 0.0, 0.0], 0, ts)


def test_denoeux_classify_certain_match():
    ts = _training_set(k=1, alpha=1.0, gamma=np.ones(3))
    m = denoeux_classify_mass([0.0, 0.0], ts)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(1.0)


def test_denoeux_classify_two_agreeing_prototypes():
    ts = _training_set(k=2, alpha=1.0, gamma=np.ones(3))
    x = [0.5, 0.0]  # equidistant from the two class-0 prototypes
    p = q = math.exp(-0.25)
    m = denoeux_classify_mass(x, ts)
    assert m.mass(FRAME3.singleton(0)) == pytest.approx(1 - (1 - p) * (1 - q))
    assert m.mass(FRAME3.full()) == pytest.approx((1 - p) * (1 - q))


def test_denoeux_classify_disjoint_prototypes_conflict():
    x_protos = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([0, 1])
    ts = TrainingSet(FRAME2, x_protos, y, k=2, alpha=1.0, gamma=np.ones(2))
    x = [0.5, 0.0]
    p = q = math.exp(-0.25)
    m = denoeux_classify_mass(x, ts)
    assert m.conflict_mass() == pytest.approx(p * q)


def test_denoeux_classify_matches_hand_combination():
    rng = np.random.default_rng(17)
    ts = _training_set(k=3, alpha=0.9)
    for _ in range(25):
        x = rng.uniform(-1, 3, size=2)
        d2 = np.sum((ts.prototypes - x) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[:3]
        expected = dense_from_mass(denoeux_mass(x, int(nearest[0]), ts))
        for t in nearest[1:]:
            expected = brute_combine(
                expected, dense_from_mass(denoeux_mass(x, int(t), ts))
            )
        got = dense_from_mass(denoeux_classify_mass(x, ts))
        assert np.max(np.abs(got - expected)) < 1e-9


def test_denoeux_distance_ties_break_low():
    x_protos = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    y = np.array([1, 2, 0])
    ts = TrainingSet(FRAME3, x_protos, y, k=1, alpha=1.0, gamma=np.ones(3))
    m = denoeux_classify_mass([1.0, 0.0], ts)
    assert m.mass(FRAME3.singleton(1)) == pytest.approx(1.0)


def test_default_gamma_per_class():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 0.0], [5.0, 4.0], [9.0, 0.0]])
    y = np.array([0, 0, 1, 1, 2])
    gamma = default_gamma(x, y, 3)
    assert gamma[0] == pytest.approx(1.0 / 2.0)  # pair at distance 2
    assert gamma[1] == pytest.approx(1.0 / 4.0)  # pair at distance 4
    # class 2 has one prototype: falls back to the global mean distance
    all_mean = np.mean(
        [np.linalg.norm(a - b) for i, a in enumerate(x) for b in x[i + 1 :]]
    )
    assert gamma[2] == pytest.approx(1.0 / all_mean)


def test_default_gamma_degenerate_prototypes():
    x = np.zeros((3, 2))
    gamma = default_gamma(x, np.array([0, 0, 1]), 2)
    assert gamma.tolist() == [1.0, 1.0]


def test_default_gamma_zero_spread_class_uses_global_mean():
    # Class 1 repeats one point exactly: zero spread, so it takes the
    # reciprocal of the mean distance over all six prototypes.
    x = np.array([[0, 0], [2, 0], [5, 0], [5, 0], [9, 3], [9, 0]], dtype=float)
    y = np.array([0, 0, 1, 1, 2, 2])
    gamma = default_gamma(x, y, 3)
    all_mean = np.mean(
        [np.linalg.norm(a - b) for i, a in enumerate(x) for b in x[i + 1 :]]
    )
    assert gamma[1] == pytest.approx(1.0 / all_mean)
    assert gamma.tolist() == [1.0 / 2.0, 1.0 / _mean_pairwise_distance(x), 1.0 / 3.0]


def _default_gamma_eager(prototypes, classes, n_classes):
    """default_gamma as first written: the global mean always comes first."""
    global_mean = _mean_pairwise_distance(prototypes)
    fallback = 1.0 / global_mean if global_mean is not None else 1.0
    gamma = np.full(n_classes, fallback)
    for i in range(n_classes):
        mean = _mean_pairwise_distance(prototypes[classes == i])
        if mean is not None:
            gamma[i] = 1.0 / mean
    return gamma


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    shapes=st.lists(
        st.tuples(st.sampled_from([0, 1, 2, 3, 7]), st.booleans()),
        min_size=1,
        max_size=5,
    ),
)
def test_default_gamma_matches_eager_fit(seed, d, shapes):
    # Each class has 0, 1 or several prototypes, optionally one point
    # repeated; points on a coarse grid make whole sets coincide at times.
    rng = np.random.default_rng(seed)
    blocks = [
        np.tile(rng.integers(0, 3, d) / 8.0, (size, 1))
        if repeated
        else rng.integers(0, 3, (size, d)) / 8.0 + rng.random((size, d))
        for size, repeated in shapes
    ]
    x = np.vstack([np.zeros((0, d)), *blocks])
    y = np.repeat(np.arange(len(shapes)), [size for size, _ in shapes])
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    got = default_gamma(x, y, len(shapes))
    want = _default_gamma_eager(x, y, len(shapes))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _mean_pairwise_distance_full(x):
    """The t-by-t formula the blocked sum replaced, kept as its reference."""
    t = x.shape[0]
    if t < 2:
        return None
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    mean = float(np.sqrt(np.maximum(d2[np.triu_indices(t, k=1)], 0.0)).mean())
    return mean if mean > 0.0 else None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 60),
    d=st.integers(1, 8),
    duplicates=st.booleans(),
)
def test_mean_pairwise_distance_matches_full_formula(seed, t, d, duplicates):
    rng = np.random.default_rng(seed)
    if duplicates:
        # Exactly representable repeats of one point: zero spread -> None.
        x = np.tile(rng.integers(0, 9, d) / 8.0, (t, 1))
    else:
        x = rng.random((t, d))
    got, want = _mean_pairwise_distance(x), _mean_pairwise_distance_full(x)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_mean_pairwise_distance_two_points_and_blocks(monkeypatch):
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert _mean_pairwise_distance(x) == pytest.approx(5.0, rel=1e-12)
    # Blocks of a few rows must give the one-block sum.
    y = np.random.default_rng(0).random((50, 3))
    whole = _mean_pairwise_distance(y)
    monkeypatch.setattr("evifuse.belief._BLOCK_FLOATS", 120)
    assert _mean_pairwise_distance(y) == pytest.approx(whole, rel=1e-12, abs=0.0)
    assert _mean_pairwise_distance(np.ones((4, 2))) is None


def _mean_pairwise_distance_allocating(x, block_floats):
    """The blocked sum as it was before its buffers, with fresh temporaries
    in every block: the reference that the buffered loop must equal."""
    t = x.shape[0]
    if t < 2:
        return None
    sq = np.sum(x * x, axis=1)
    rows = max(1, block_floats // t)
    total = 0.0
    for a in range(0, t - 1, rows):
        b = min(a + rows, t)
        d2 = sq[a:b, None] + sq[None, a:] - 2.0 * (x[a:b] @ x[a:].T)
        total += float(np.triu(np.sqrt(np.maximum(d2, 0.0)), k=1).sum())
    mean = total / (t * (t - 1) / 2)
    return mean if mean > 0.0 else None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 70),
    d=st.integers(1, 6),
    duplicates=st.sampled_from(["none", "some", "all"]),
    block_floats=st.sampled_from([1, 7, 64, 150, 1 << 16]),
)
def test_mean_pairwise_distance_is_the_allocating_loop(
    seed, t, d, duplicates, block_floats
):
    # Small blocks give many blocks of a few rows and a ragged last block;
    # the buffered loop must sum the same values in the same shapes.
    rng = np.random.default_rng(seed)
    x = rng.random((t, d))
    if duplicates == "some":
        x[rng.integers(0, t, t // 2)] = x[0]
    elif duplicates == "all":
        x[:] = rng.integers(0, 9, d) / 8.0
    want = _mean_pairwise_distance_allocating(x, block_floats)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(belief, "_BLOCK_FLOATS", block_floats)
        got = _mean_pairwise_distance(x)
    if want is None:
        assert got is None
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_training_set_validation():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        TrainingSet(FRAME3, x, np.array([0, 5]))
    with pytest.raises(ValueError):
        TrainingSet(FRAME3, x, np.array([0, 1]), k=3)
    with pytest.raises(ValueError):
        TrainingSet(FRAME3, x, np.array([0, 1]), gamma=np.zeros(3))


def test_training_set_rejects_non_integer_classes_and_k():
    x = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValueError, match="class index 0.5 is not an integer"):
        TrainingSet(FRAME3, x, [0.5, 1.7, 2.9])
    with pytest.raises(ValueError, match="not an integer"):
        TrainingSet(FRAME3, x, [0, 1, np.nan])
    for k in (2.5, 2.0, True, np.True_, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            TrainingSet(FRAME3, x, [0, 1, 2], k=k)
    ts = TrainingSet(FRAME3, x, [0.0, 1.0, 2.0], k=np.int64(2))
    assert ts.classes.dtype == np.int64 and ts.classes.tolist() == [0, 1, 2]
    decided, _ = denoeux_decide_batch(x, ts)
    assert decided.tolist() == [0, 1, 2]


def test_combine_all_requires_input():
    with pytest.raises(ValueError):
        combine_all([])
