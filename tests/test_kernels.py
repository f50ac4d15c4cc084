"""Batch fusion kernels against the scalar API, one test sample at a time.

The reference below is the per-sample loop the protocol used before the
kernels: it builds every calibration artifact from a list of pairs and
decides each sample with the public scalar functions. Decisions must be
identical; conflict masses may differ by rounding and by the dust the
scalar combination drops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse import (
    Dataset,
    FusionSettings,
    TrainingSet,
    build_confusion,
    combine,
    combine_all,
    conditional_probs,
    decide_absolute_majority,
    decide_majority,
    decide_pignistic,
    decide_possibilistic,
    decide_threshold,
    default_config,
    denoeux_classify_mass,
    make_frame,
    simulate,
    tally,
    to_possibility,
    vote_weights,
)
from evifuse.belief import appriou_mass, denoeux_decide_batch
from evifuse.experiment import KERNELS, METHODS, TrialCalibration

CONFLICT_ATOL = 1e-10


def scalar_method(name, ds, calib_idx, settings):
    """Per-sample decision function built the way the old protocol loop did."""
    frame, m = ds.frame, ds.m_sources
    if name in ("vote_weighted", "belief_appriou"):
        cms = [
            build_confusion(
                list(zip(ds.truth[calib_idx], ds.labels[calib_idx, j])), frame
            )
            for j in range(m)
        ]
    if name == "vote_majority":
        return lambda i: (decide_majority(tally(ds.labels[i], frame)), 0.0)
    if name == "vote_absolute":
        return lambda i: (decide_absolute_majority(tally(ds.labels[i], frame)), 0.0)
    if name == "vote_weighted":
        weights = vote_weights(cms)
        return lambda i: (
            decide_threshold(
                tally(ds.labels[i], frame, weights), settings.vote_c, settings.vote_b
            ),
            0.0,
        )
    if name.startswith("possibility_"):
        op = name.removeprefix("possibility_")

        def run(i):
            dists = [to_possibility(ds.scores[i, j]) for j in range(m)]
            return decide_possibilistic(combine(dists, op)), 0.0

        return run
    if name == "belief_appriou":
        params = conditional_probs(cms)

        def run(i):
            mass = combine_all(
                [
                    appriou_mass(
                        j, int(ds.labels[i, j]), params, settings.appriou_as_printed
                    )
                    for j in range(m)
                ]
            )
            return decide_pignistic(mass), mass.conflict_mass()

        return run
    assert name == "belief_denoeux"
    ts = TrainingSet(
        frame,
        ds.scores[calib_idx].reshape(calib_idx.shape[0], -1),
        ds.truth[calib_idx],
        k=min(settings.denoeux_k, calib_idx.shape[0]),
        alpha=settings.denoeux_alpha,
    )

    def run(i):
        mass = denoeux_classify_mass(ds.scores[i].ravel(), ts)
        return decide_pignistic(mass), mass.conflict_mass()

    return run


def scalar_outputs(name, ds, calib_idx, test_idx, settings):
    run = scalar_method(name, ds, calib_idx, settings)
    decided, conflict = [], []
    for i in test_idx:
        d, c = run(int(i))
        decided.append(-1 if d.is_conflict else d.index)
        conflict.append(c)
    return decided, conflict


def assert_kernels_match(ds, calib_idx, test_idx, settings, methods=METHODS):
    """Each kernel equals the scalar path, or both raise ValueError."""
    calib = TrialCalibration(ds, calib_idx, settings)
    for name in methods:
        try:
            want, want_conflict = scalar_outputs(name, ds, calib_idx, test_idx, settings)
        except ValueError:
            with pytest.raises(ValueError):
                KERNELS[name](ds, calib, test_idx, settings)
            continue
        decided, conflict = KERNELS[name](ds, calib, test_idx, settings)
        assert decided.dtype == np.int64, name
        assert decided.tolist() == want, name
        np.testing.assert_allclose(
            conflict, want_conflict, rtol=0.0, atol=CONFLICT_ATOL, err_msg=name
        )


def make_dataset(seed, n, m, size, scores="continuous", accuracy=0.6):
    """Random dataset; ``scores`` picks continuous, coarse (ties and duplicate
    prototypes) or sparse (many all-zero rows) score vectors."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, n, size)
    labels = np.where(
        rng.random((size, m)) < accuracy, truth[:, None], rng.integers(0, n, (size, m))
    )
    if scores == "coarse":
        values = rng.integers(0, 3, (size, m, n)) / 2.0
    else:
        values = rng.random((size, m, n))
        if scores == "sparse":
            values[rng.random((size, m)) < 0.4] = 0.0
    return Dataset(
        frame=make_frame([f"c{i}" for i in range(n)]),
        source_ids=tuple(f"s{j}" for j in range(m)),
        sample_ids=np.arange(size, dtype=np.int64),
        truth=truth.astype(np.int64),
        labels=labels.astype(np.int64),
        scores=values,
    )


def protocol_split(size, seed):
    perm = np.random.default_rng(seed).permutation(size)
    third = size // 3
    return perm[third : 2 * third], perm[2 * third :]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    m=st.integers(1, 4),
    size=st.integers(3, 60),
    scores=st.sampled_from(["continuous", "coarse", "sparse"]),
    k=st.integers(1, 25),
    alpha=st.sampled_from([0.5, 0.95, 1.0]),
    vote_c=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_kernels_match_scalar_path(seed, n, m, size, scores, k, alpha, vote_c):
    ds = make_dataset(seed, n, m, size, scores)
    calib_idx, test_idx = protocol_split(size, seed)
    fusion = FusionSettings(vote_c=vote_c, denoeux_k=k, denoeux_alpha=alpha)
    assert_kernels_match(ds, calib_idx, test_idx, fusion)


def test_kernels_match_scalar_path_on_default_scenario():
    cfg = default_config(seed=3, n_samples=600)
    ds = simulate(cfg)
    calib_idx, test_idx = protocol_split(ds.n_samples, 3)
    assert_kernels_match(ds, calib_idx, test_idx, cfg.fusion)


def test_single_class_single_source():
    ds = make_dataset(0, n=1, m=1, size=12)
    calib_idx, test_idx = protocol_split(12, 0)
    assert_kernels_match(ds, calib_idx, test_idx, FusionSettings())


def test_k_at_least_calibration_size():
    ds = make_dataset(1, n=3, m=2, size=30)
    calib_idx, test_idx = protocol_split(30, 1)
    for k in (calib_idx.shape[0], calib_idx.shape[0] + 5):
        assert_kernels_match(
            ds, calib_idx, test_idx, FusionSettings(denoeux_k=k), ["belief_denoeux"]
        )


def test_duplicate_prototypes_tie_on_distance():
    # Coarse scores repeat whole prototypes, so the k-th neighbour ties with
    # the candidates beyond it and the (distance, index) order decides.
    ds = make_dataset(2, n=2, m=2, size=300, scores="coarse")
    calib_idx, test_idx = protocol_split(300, 2)
    for k in (1, 3, 7):
        assert_kernels_match(
            ds, calib_idx, test_idx, FusionSettings(denoeux_k=k), ["belief_denoeux"]
        )


def test_pignistic_near_tie_follows_scalar_path():
    # Equidistant neighbours of two classes tie on BetP up to rounding, and
    # the scalar combination rounds this tie toward the other class than the
    # closed form would.
    ds = make_dataset(2917408430, n=2, m=1, size=143, scores="coarse")
    calib_idx, test_idx = protocol_split(143, 2917408430)
    fusion = FusionSettings(denoeux_k=4)
    assert_kernels_match(ds, calib_idx, test_idx, fusion, ["belief_denoeux"])


def test_dust_pruned_masses_follow_scalar_path():
    # Supports of 1 - 1e-7 and 1 - 2e-7 for two classes leave every
    # non-empty mass near 1e-14: the scalar combination drops them all as
    # dust and decides class 0 over an all-zero pignistic vector.
    frame = make_frame(["a", "b", "c"])
    protos = np.sqrt([[1e-7], [2e-7], [1e-7], [2e-7], [1.0], [1.0]])
    ts = TrainingSet(
        frame, protos, np.array([1, 2, 1, 2, 0, 0]), k=4, alpha=1.0, gamma=np.ones(3)
    )
    query = np.zeros((1, 1))
    mass = denoeux_classify_mass(query[0], ts)
    decided, conflict = denoeux_decide_batch(query, ts)
    assert decided.tolist() == [decide_pignistic(mass).index] == [0]
    assert conflict[0] == pytest.approx(mass.conflict_mass(), abs=CONFLICT_ATOL)


def test_total_conflict_gives_conflict_class():
    # Two coincident prototypes of different classes, each committing all
    # of its mass (alpha = 1), at the query's own position.
    ds = make_dataset(3, n=2, m=1, size=6)
    ds = Dataset(
        ds.frame,
        ds.source_ids,
        ds.sample_ids,
        np.array([0, 1, 0, 1, 0, 1]),
        ds.labels,
        np.full((6, 1, 2), 0.5),
    )
    calib_idx, test_idx = np.array([2, 3]), np.array([4, 5])
    fusion = FusionSettings(denoeux_k=2, denoeux_alpha=1.0)
    decided, conflict = KERNELS["belief_denoeux"](
        ds, TrialCalibration(ds, calib_idx, fusion), test_idx, fusion
    )
    assert decided.tolist() == [-1, -1]
    assert conflict.tolist() == [1.0, 1.0]
    assert_kernels_match(ds, calib_idx, test_idx, fusion)


def test_all_zero_score_rows():
    ds = make_dataset(4, n=3, m=3, size=45)
    scores = np.array(ds.scores)
    scores[::2] = 0.0  # every source silent on half of the samples
    scores[1::4, 0] = 0.0
    ds = Dataset(ds.frame, ds.source_ids, ds.sample_ids, ds.truth, ds.labels, scores)
    calib_idx, test_idx = protocol_split(45, 4)
    assert_kernels_match(ds, calib_idx, test_idx, FusionSettings())


def test_tied_possibility_values():
    ds = make_dataset(5, n=3, m=3, size=60)
    scores = np.array(ds.scores)
    scores[:, :, 1] = scores[:, :, 0]  # classes 0 and 1 tie everywhere
    ds = Dataset(ds.frame, ds.source_ids, ds.sample_ids, ds.truth, ds.labels, scores)
    calib_idx, test_idx = protocol_split(60, 5)
    possibility = [name for name in METHODS if name.startswith("possibility_")]
    assert_kernels_match(ds, calib_idx, test_idx, FusionSettings(), possibility)
    fusion = FusionSettings()
    calib = TrialCalibration(ds, calib_idx, fusion)
    decided, _ = KERNELS["possibility_max"](ds, calib, test_idx, fusion)
    assert 1 not in decided.tolist()


def test_class_absent_from_calibration_split():
    ds = make_dataset(6, n=3, m=3, size=60)
    truth = np.array(ds.truth)
    truth[truth == 2] = 1
    truth[40:50] = 2  # class 2 only in the test part
    ds = Dataset(ds.frame, ds.source_ids, ds.sample_ids, truth, ds.labels, ds.scores)
    calib_idx, test_idx = np.arange(20, 40), np.arange(40, 60)
    assert_kernels_match(ds, calib_idx, test_idx, FusionSettings())


@pytest.mark.parametrize("bad_label", [-1, 3])
def test_out_of_range_labels_raise(bad_label):
    ds = make_dataset(7, n=3, m=2, size=30)
    labels = np.array(ds.labels)
    labels[25, 1] = bad_label
    ds = Dataset(ds.frame, ds.source_ids, ds.sample_ids, ds.truth, labels, ds.scores)
    calib_idx, test_idx = np.arange(10, 20), np.arange(20, 30)
    symbolic = ["vote_majority", "vote_absolute", "vote_weighted", "belief_appriou"]
    for name in symbolic:
        with pytest.raises(ValueError):
            scalar_outputs(name, ds, calib_idx, test_idx, FusionSettings())
    assert_kernels_match(ds, calib_idx, test_idx, FusionSettings(), symbolic)


@pytest.mark.parametrize("bad_score", [-0.5, 1.5, float("nan"), float("inf")])
@pytest.mark.parametrize("position", [15, 25])  # calibration or test sample
def test_out_of_range_scores_raise(bad_score, position):
    # Possibility methods need scores in [0, 1]; the k-NN accepts any finite
    # vector and rejects non-finite ones.
    ds = make_dataset(8, n=3, m=2, size=30)
    scores = np.array(ds.scores)
    scores[position, 0, 1] = bad_score
    ds = Dataset(ds.frame, ds.source_ids, ds.sample_ids, ds.truth, ds.labels, scores)
    calib_idx, test_idx = np.arange(10, 20), np.arange(20, 30)
    numeric = [name for name in METHODS if name.startswith("possibility_")]
    if position in test_idx:
        for name in numeric:
            with pytest.raises(ValueError):
                scalar_outputs(name, ds, calib_idx, test_idx, FusionSettings())
    numeric.append("belief_denoeux")
    if not np.isfinite(bad_score):
        with pytest.raises(ValueError):
            scalar_outputs("belief_denoeux", ds, calib_idx, test_idx, FusionSettings())
    assert_kernels_match(ds, calib_idx, test_idx, FusionSettings(), numeric)
