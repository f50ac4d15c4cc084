"""Batch fusion kernels against the scalar API, one test sample at a time.

The reference below is the per-sample loop the protocol used before the
kernels: it builds every calibration artifact from a list of pairs and
decides each sample with the public scalar functions. Decisions must be
identical; conflict masses may differ by rounding. The batch vote and
Appriou functions are also checked directly against their scalar forms on
random parameters.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evifuse import (
    AppriouParams,
    Dataset,
    FusionSettings,
    MassFunction,
    SimConfig,
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
    denoeux_mass,
    make_frame,
    simulate,
    tally,
    to_possibility,
    vote_weights,
)
from evifuse import belief
from evifuse.belief import appriou_decide_batch, appriou_mass, denoeux_decide_batch
from evifuse.experiment import METHODS, TABLE
from evifuse.simulate import SourceProfile
from evifuse.voting import VoteWeights, decide_threshold_batch, tally_batch
from helpers import fit_decide

CONFLICT_ATOL = 1e-10
FRAME_ABC = make_frame(["a", "b", "c"])


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
            mass = appriou_combined(ds.labels[i], params, settings.appriou_as_printed)
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


def appriou_combined(row, params, as_printed):
    return combine_all(
        [appriou_mass(j, int(k), params, as_printed) for j, k in enumerate(row)]
    )


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
    for name in methods:
        try:
            want, want_conflict = scalar_outputs(name, ds, calib_idx, test_idx, settings)
        except ValueError:
            with pytest.raises(ValueError):
                fit_decide(name, ds, settings, calib_idx, test_idx)
            continue
        decided, conflict = fit_decide(name, ds, settings, calib_idx, test_idx)
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
    alpha=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
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
    # prototypes beyond it and the (distance, index) order decides.
    ds = make_dataset(2, n=2, m=2, size=300, scores="coarse")
    calib_idx, test_idx = protocol_split(300, 2)
    for k in (1, 3, 7):
        assert_kernels_match(
            ds, calib_idx, test_idx, FusionSettings(denoeux_k=k), ["belief_denoeux"]
        )


def _denoeux_bytes(queries, ts, block_floats):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(belief, "_BLOCK_FLOATS", block_floats)
        decided, conflict = denoeux_decide_batch(queries, ts)
    return decided.tobytes(), conflict.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 60),
    dim=st.integers(1, 3),
    k=st.integers(1, 60),
    size=st.integers(1, 30),
    block_floats=st.sampled_from([1, 17, 200]),
)
def test_denoeux_batch_does_not_depend_on_block_size(
    seed, t, dim, k, size, block_floats
):
    # Grid coordinates repeat prototypes and tie distances, also at the k-th
    # neighbour; k above t / 16 makes one group per neighbour, and k = t
    # makes every prototype a neighbour.
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, 3, (t, dim)) / 2.0
    ts = TrainingSet(FRAME_ABC, protos, rng.integers(0, 3, t), k=min(k, t))
    queries = rng.integers(0, 5, (size, dim)) / 4.0
    whole = _denoeux_bytes(queries, ts, 1 << 16)
    assert _denoeux_bytes(queries, ts, block_floats) == whole


def test_duplicate_prototypes_tied_across_the_candidate_boundary():
    # Fourteen copies of one prototype tie at squared distance 1 from the
    # first query, beyond its second neighbour at 0.36, whose index is higher
    # than all of theirs: a search that took the first indices up to the tied
    # distance would leave it out. The second query, in the same block, has
    # no tie, and the third has its k nearest inside the tie.
    protos = np.vstack(
        [[[0.5, 0.0], [0.7, 0.0]], np.tile([1.0, 0.0], (14, 1)), [[0.0, 0.6], [9, 9]]]
    )
    classes = [0] * 16 + [1, 2]
    queries = np.array([[0.0, 0.0], [9.0, 8.0], [1.0, 0.0]])
    ts = TrainingSet(FRAME_ABC, protos, classes, k=2, alpha=1.0, gamma=np.ones(3))
    want = [denoeux_classify_mass(x, ts) for x in queries]
    assert [decide_pignistic(m).index for m in want] == [0, 2, 0]
    assert want[0].conflict_mass() > 0.5
    decided, conflict = denoeux_decide_batch(queries, ts)
    assert decided.tolist() == [0, 2, 0]
    np.testing.assert_allclose(
        conflict, [m.conflict_mass() for m in want], rtol=0.0, atol=CONFLICT_ATOL
    )
    whole = _denoeux_bytes(queries, ts, 1 << 16)
    for block_floats in (1, 2 * ts.size):
        assert _denoeux_bytes(queries, ts, block_floats) == whole


def test_neighbour_margin_far_from_the_origin(monkeypatch):
    # Every coordinate is offset by 1e3, so |x|^2 is about 6e6 while the
    # squared distances are below 1, and the float32 ranks err by up to
    # about 1, more than the squared distances themselves.
    # In even clusters 15 prototypes tie exactly on distance around a query,
    # and the rounding bound must keep all of them, so that the three lowest
    # indices (the class-0 ones) are the neighbours. Odd clusters have clear
    # gaps. No row has a pignistic near tie, so none may reach the scalar
    # path: distance ties are decided by the closed form.
    dim, clusters = 6, 16
    rng = np.random.default_rng(5)
    protos, classes, queries = [], [], []
    for q in range(clusters):
        centre = np.full(dim, 1e3 + 50.0 * q)
        centre[0] += rng.random()
        queries.append(centre)
        if q % 2 == 0:
            pairs = itertools.combinations(range(dim), 2)
            for idx, (i, j) in enumerate(pairs):
                protos.append(centre + 0.25 * (np.eye(dim)[i] + np.eye(dim)[j]))
                classes.append(0 if idx < 3 else 1 + idx % 2)
        else:
            for idx in range(15):
                protos.append(centre + 0.1 * (idx + 1) * np.eye(dim)[idx % dim])
                classes.append(idx % 3)
    ts = TrainingSet(make_frame(["a", "b", "c"]), np.array(protos), classes, k=3)
    monkeypatch.setattr(belief, "_BLOCK_FLOATS", 3 * ts.size)  # 3 queries a block
    scalar_calls = []

    def counted(x, t, ts):
        scalar_calls.append(x)
        return denoeux_mass(x, t, ts)

    monkeypatch.setattr(belief, "denoeux_mass", counted)
    decided, conflict = denoeux_decide_batch(np.array(queries), ts)
    assert scalar_calls == []
    want = [denoeux_classify_mass(x, ts) for x in queries]
    assert decided.tolist() == [decide_pignistic(m).index for m in want]
    np.testing.assert_allclose(
        conflict, [m.conflict_mass() for m in want], rtol=0.0, atol=CONFLICT_ATOL
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 80),
    k=st.integers(1, 80),
    layout=st.sampled_from(["grid", "crisp", "scores", "one point"]),
    shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    offset=st.sampled_from([0.0, 1.0 / 3.0, 1e3, 1e3 / 3.0]),
    scale=st.sampled_from([1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150]),
    zero_queries=st.booleans(),
    size=st.integers(1, 12),
    block_floats=st.sampled_from([1, 17, 200]),
)
@example(0, 40, 5, "one point", (1, 2), 0.0, 1.0, False, 3, 200)
@example(1, 80, 3, "scores", (16, 16), 1e3, 1e150, True, 12, 200)
@example(2, 80, 3, "crisp", (16, 16), 0.0, 1e-300, True, 12, 17)
def test_k_nearest_is_the_stable_sort(
    seed, t, k, layout, shape, offset, scale, zero_queries, size, block_floats
):
    # Grid and one-hot prototypes repeat, so many distances tie exactly, also
    # at the k-th neighbour; at one point all of them tie, and with no offset
    # the rounding margin is 0, so every prototype ranks exactly at the
    # bound. Scores are rows of per-source probabilities, as the protocol's
    # prototypes are, and not dyadic. t below 16 gives one group per
    # neighbour, and k = t makes every prototype a neighbour. The offset
    # moves the rounding of the float32 ranks far above the gaps between
    # distances; the scale moves every value into float32 and float64
    # underflow (1e-300: every exact d^2 is 0) or near the largest
    # coordinates TrainingSet accepts, where it is capped. Up to 16 classes
    # times 16 sources give up to 256 dimensions.
    rng = np.random.default_rng(seed)
    k = min(k, t)
    n, m = shape
    dim = n * m
    if layout == "one point":
        protos, queries = np.zeros((t, dim)), np.zeros((size, dim))
    elif layout == "grid":
        protos = rng.integers(0, 3, (t, dim)) / 2.0
        queries = rng.integers(0, 5, (size, dim)) / 4.0
    elif layout == "crisp":
        protos = np.eye(n)[rng.integers(0, n, (t, m))].reshape(t, dim)
        queries = np.eye(n)[rng.integers(0, n, (size, m))].reshape(size, dim)
    else:
        protos = rng.dirichlet(np.ones(n), (t, m)).reshape(t, dim)
        queries = rng.dirichlet(np.ones(n), (size, m)).reshape(size, dim)
    top = 1.0 + offset
    limit = 2.0**510 / math.sqrt(dim)
    if top * scale > limit:
        scale = 2.0 ** math.floor(math.log2(limit / top))
    protos, queries = (protos + offset) * scale, (queries + offset) * scale
    if zero_queries:
        queries[::2] = 0.0
    want_nearest, want_d2 = [], []
    for x in queries:  # the search of denoeux_classify_mass
        diff = protos - x
        d2 = np.einsum("td,td->t", diff, diff)
        nearest = np.argsort(d2, kind="stable")[:k]
        want_nearest.append(nearest)
        want_d2.append(d2[nearest])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(belief, "_BLOCK_FLOATS", block_floats)
        nearest, d2 = belief._k_nearest(queries, protos, k)
    assert nearest.tobytes() == np.array(want_nearest).tobytes()
    assert d2.tobytes() == np.array(want_d2).tobytes()


def _assert_k_nearest_is_the_stable_sort(queries, protos, k):
    want_nearest, want_d2 = [], []
    for x in queries:  # the search of denoeux_classify_mass
        diff = protos - x
        d2 = np.einsum("td,td->t", diff, diff)
        nearest = np.argsort(d2, kind="stable")[:k]
        want_nearest.append(nearest)
        want_d2.append(d2[nearest])
    nearest, d2 = belief._k_nearest(queries, protos, k)
    assert nearest.tobytes() == np.array(want_nearest).tobytes()
    assert d2.tobytes() == np.array(want_d2).tobytes()


def test_k_nearest_keeps_a_tie_that_float32_rounding_ranks_apart():
    # The two prototypes lie on either side of the query at exactly the same
    # distance, so the stable sort takes the first. u = 2**-24 is the
    # float32 unit roundoff, and on [0.5, 1) the float32 spacing. Each float32
    # rounding is close to its limit in the direction that ranks the first
    # prototype high and the second low: p rounds down and q up by half a
    # spacing, p**2 up and q**2 down by a quarter of one, and 2 x p down and
    # 2 x q up by half of one. Summed in index order, as a sequential matrix
    # product does, the first ranks 2.5 u above the second, 0.44 of the
    # per-row bound r = rtol (|X|^2 + max |P|^2) = 5.7 u: a margin of 2 r
    # shrunk 4.6 times leaves the first prototype out. (Summed that way, two
    # tied prototypes stay below 0.5 r, so no input fails a 4-times shrink.)
    u = 2.0**-24
    x = 0.5 + 131981 * u
    p = 0.5 + (110307.5 - 2.0**-20) * u
    q = 2 * x - p
    assert (p - x) ** 2 == (q - x) ** 2
    _assert_k_nearest_is_the_stable_sort(np.array([[x]]), np.array([[p], [q]]), 1)


def test_k_nearest_keeps_a_tie_whose_float32_ranks_underflow():
    # The query 0.75 holds the scale at 2**0, so the query 2**-75 and the
    # prototypes 3 and 13 times 2**-78, tied at distance 5 * 2**-78 from it,
    # have float32 ranks below the least normal float32, on the grid of
    # 2**-149. |P|^2 and -2 X.P round to 0 and -0 for the first prototype, and
    # to 2**-149 and -2**-148 for the second, which then ranks 2**-149 below
    # the first. The relative part of the margin is about 2**-168 there, so
    # only the underflow term of atol, (12 d + 8) 2**-126, keeps the first.
    queries = np.array([[0.75], [2.0**-75]])
    protos = np.array([[3 * 2.0**-78], [13 * 2.0**-78]])
    _assert_k_nearest_is_the_stable_sort(queries, protos, 1)


@pytest.mark.parametrize("dim", [1, 6, 24])
def test_squared_distances_that_could_overflow_raise(dim):
    # Every coordinate must be within 2**510 / sqrt(d) of 0, so that no
    # squared distance (at most 4 d limit^2 = 2**1022) overflows. At 1e200
    # the products of the search overflowed, and no candidate was left.
    limit = 2.0**510 / math.sqrt(dim)
    rng = np.random.default_rng(dim)
    unit = rng.choice([-1.0, 1.0], (12, dim))
    classes = np.arange(12) % 3
    message = r"%s must have every coordinate within 2\*\*510 / sqrt\(d\) = "
    message += r".* of 0 \(d = %d\)" % dim
    ts = TrainingSet(FRAME_ABC, unit * limit, classes, k=3)
    for bad in (1e200, np.nextafter(limit, np.inf)):
        far = np.full((1, dim), bad)
        with pytest.raises(ValueError, match=message % "prototypes"):
            TrainingSet(FRAME_ABC, np.vstack([unit[1:], far]), classes, k=3)
        with pytest.raises(ValueError, match=message % "queries"):
            denoeux_decide_batch(np.vstack([unit[:2], far]), ts)
        with pytest.raises(ValueError, match=message % "query"):
            denoeux_classify_mass(far[0], ts)
    # At the limit itself both paths run, without overflow warnings (which
    # are errors here), and agree.
    queries = np.vstack([-unit[:6] * limit, unit[6:] * limit, np.zeros((1, dim))])
    decided, conflict = denoeux_decide_batch(queries, ts)
    want = [denoeux_classify_mass(x, ts) for x in queries]
    assert decided.tolist() == [
        -1 if d.is_conflict else d.index for d in map(decide_pignistic, want)
    ]
    np.testing.assert_allclose(
        conflict, [w.conflict_mass() for w in want], rtol=0.0, atol=CONFLICT_ATOL
    )


def test_crisp_scores_decide_distance_ties_in_the_closed_form(monkeypatch):
    # Every source at temperature 0 gives one-hot scores: prototypes repeat,
    # and most queries tie with prototypes beyond their k-th neighbour. The
    # batch must match the scalar path, and a row reaches that path, with
    # its k neighbours, exactly when the closed form flags its top two
    # pignistic values; this scenario and split flag at least one row.
    cfg = default_config(seed=0, n_samples=1800)
    cfg = replace(cfg, sources=tuple(replace(s, temperature=0.0) for s in cfg.sources))
    ds = simulate(cfg)
    calib_idx, test_idx = protocol_split(ds.n_samples, 4)
    protos = ds.scores[calib_idx].reshape(calib_idx.shape[0], -1)
    queries = ds.scores[test_idx].reshape(test_idx.shape[0], -1)
    d2 = np.sort(((queries[:, None, :] - protos) ** 2).sum(axis=2), axis=1)
    k = cfg.fusion.denoeux_k
    assert np.mean(d2[:, k - 1] == d2[:, k]) > 0.5
    calls, flagged = [], []
    closed_form, decide_triples = belief._closed_form, belief._decide_triples

    def counted(classes, masses, n, source_mass):
        def mass(r, j):
            calls.append((r, j))
            return source_mass(r, j)

        return decide_triples(classes, masses, n, mass)

    def recorded(classes, masses, n):
        out = closed_form(classes, masses, n)
        flagged.append(out[2])
        return out

    monkeypatch.setattr(belief, "_decide_triples", counted)
    monkeypatch.setattr(belief, "_closed_form", recorded)
    assert_kernels_match(ds, calib_idx, test_idx, cfg.fusion, ["belief_denoeux"])
    assert np.concatenate(flagged).sum() > 0
    assert len(calls) == k * np.concatenate(flagged).sum()


def test_pignistic_near_tie_follows_scalar_path():
    # Equidistant neighbours of two classes tie on BetP up to rounding, and
    # the scalar combination rounds this tie toward the other class than the
    # closed form would.
    ds = make_dataset(2917408430, n=2, m=1, size=143, scores="coarse")
    calib_idx, test_idx = protocol_split(143, 2917408430)
    fusion = FusionSettings(denoeux_k=4)
    assert_kernels_match(ds, calib_idx, test_idx, fusion, ["belief_denoeux"])


def test_near_tied_queries_never_call_denoeux_classify_mass(monkeypatch):
    # Each query sits midway between a class-0 and a class-1 prototype, so
    # its two neighbours tie on BetP and the closed form flags it; the
    # scalar combination takes the neighbours the batch search found, with
    # no second search.
    protos = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [2.0, 5.0]])
    ts = TrainingSet(make_frame(["a", "b"]), protos, [0, 1, 0, 1], k=2)
    queries = np.array([[1.0, 0.0], [1.0, 5.0], [1.0, 0.0], [1.0, 0.0]])
    want = [denoeux_classify_mass(x, ts) for x in queries]
    calls = []

    def counted(x, ts):
        calls.append(x.tolist())
        return denoeux_classify_mass(x, ts)

    monkeypatch.setattr(belief, "denoeux_classify_mass", counted)
    decided, conflict = denoeux_decide_batch(queries, ts)
    assert calls == []
    assert decided.tolist() == [decide_pignistic(m).index for m in want]
    assert conflict.tolist() == [m.conflict_mass() for m in want]


def test_near_tie_with_a_distance_tie_at_the_kth_neighbour(monkeypatch):
    # The query [1, 0] lies at distance 1 from all three prototypes. Its
    # k = 2 nearest are the first two, of classes b and a, by the index
    # order of the stable sort, so their BetP values tie and the row is
    # flagged. The third prototype, tied with the second, is of class b:
    # had it been taken, b would win with no conflict. The flagged row is
    # combined from the neighbours the batch search found, which must be the
    # scalar path's; every copy of the query gets the same bytes, and a
    # clear query beside them stays in the closed form.
    protos = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 1.0], [9.0, 9.0]])
    ts = TrainingSet(
        make_frame(["a", "b"]), protos, [1, 0, 1, 1], k=2, alpha=1.0, gamma=[0.1, 0.1]
    )
    tied, clear = [1.0, 0.0], [9.0, 8.0]
    queries = np.array([tied, clear, tied, tied])
    calls = []

    def counted(x, t, ts):
        calls.append(int(t))
        return denoeux_mass(x, t, ts)

    monkeypatch.setattr(belief, "denoeux_mass", counted)
    decided, conflict = denoeux_decide_batch(queries, ts)
    assert calls == [0, 1] * 3
    want = denoeux_classify_mass(tied, ts)
    assert want.conflict_mass() > 0.5
    d = decide_pignistic(want).index
    assert decided.tolist() == [d, 1, d, d] == [0, 1, 0, 0]
    assert conflict[0] == pytest.approx(want.conflict_mass(), abs=CONFLICT_ATOL)
    for i in (2, 3):
        assert decided[i].tobytes() == decided[0].tobytes()
        assert conflict[i].tobytes() == conflict[0].tobytes()


def test_tiny_masses_are_kept_by_denoeux_combination():
    # Supports of 1 - 1e-7 and 1 - 2e-7 for two classes leave every
    # non-empty mass near 1e-14. The scalar combination keeps them, so class
    # 1, with four times the mass of class 2, wins. Its pignistic vector is
    # rescaled by 1 - m(empty), which holds only a few digits of 5e-14.
    frame = make_frame(["a", "b", "c"])
    protos = np.sqrt([[1e-7], [2e-7], [1e-7], [2e-7], [1.0], [1.0]])
    ts = TrainingSet(
        frame, protos, np.array([1, 2, 1, 2, 0, 0]), k=4, alpha=1.0, gamma=np.ones(3)
    )
    query = np.zeros((1, 1))
    mass = denoeux_classify_mass(query[0], ts)
    decided, conflict = denoeux_decide_batch(query, ts)
    assert decided.tolist() == [decide_pignistic(mass).index] == [1]
    assert conflict[0] == pytest.approx(mass.conflict_mass(), abs=CONFLICT_ATOL)
    assert mass.pignistic().sum() == pytest.approx(1.0, rel=1e-3)


def test_rounding_level_masses_follow_scalar_path():
    # Supports within an ulp of 1 leave m({a}) and m({b}) at about 1e-16,
    # equal in the scalar combination. np.exp and math.exp may round the
    # supports apart by an ulp, which reorders these masses in the closed
    # form; a top-two gap far below 1e-9 of the total mass sends the row to
    # the scalar path (found by search).
    frame = make_frame(["a", "b"])
    ts = TrainingSet(
        frame, [[1.2692e-08], [8.29e-09]], [0, 1], k=2, alpha=1.0, gamma=np.ones(2)
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
    decided, conflict = fit_decide("belief_denoeux", ds, fusion, calib_idx, test_idx)
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
    decided, _ = fit_decide("possibility_max", ds, fusion, calib_idx, test_idx)
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


# ---------------------------------------------------------------------------
# Batch vote rules against tally / decide_*


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(1, 8),
    coarse=st.booleans(),
    c=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    b=st.sampled_from([0.0, 0.05, 1.0]),
)
def test_vote_batch_matches_scalar(seed, n, m, coarse, c, b):
    # Coarse weights take few distinct values, so weighted tallies tie exactly.
    rng = np.random.default_rng(seed)
    frame = make_frame([f"c{i}" for i in range(n)])
    raw = rng.integers(0, 3, (m, n)) if coarse else rng.random((m, n))
    raw[0, 0] += 1.0  # some weight somewhere
    weights = VoteWeights(raw / raw.sum())
    labels = rng.integers(0, n, (20, m))
    for w in (None, weights):
        counts = tally_batch(labels, frame, w)
        tallies = [tally(row, frame, w) for row in labels]
        for row_counts, t in zip(counts, tallies):
            assert np.array_equal(row_counts, t.counts)
        want = [decide_threshold(t, c, b) for t in tallies]
        assert decide_threshold_batch(counts, c, b).tolist() == [
            -1 if d.is_conflict else d.index for d in want
        ]
    want = [decide_absolute_majority(tally(row, frame)) for row in labels]
    assert vote_absolute(labels, frame).tolist() == [
        -1 if d.is_conflict else d.index for d in want
    ]


def vote_absolute(labels, frame):
    """vote_absolute's decide on every row of a (rows, sources) label matrix."""
    size, m = labels.shape
    ds = Dataset(
        frame,
        tuple(f"s{j}" for j in range(m)),
        np.arange(size),
        np.zeros(size, dtype=np.int64),
        labels,
        np.zeros((size, m, frame.n)),
    )
    return fit_decide("vote_absolute", ds, FusionSettings(), None, np.arange(size))[0]


def test_weighted_vote_exact_tie_is_conflict():
    # Every source has the same weight row, so a 2-2 split between classes
    # 0 and 1 ties exactly, and so do two votes for class 2 with one each
    # for classes 0 and 1.
    frame = make_frame(["a", "b", "c"])
    weights = VoteWeights(np.tile([0.1, 0.1, 0.05], (4, 1)))
    labels = np.array([[0, 1, 1, 0], [0, 1, 2, 0], [2, 0, 1, 2]])
    counts = tally_batch(labels, frame, weights)
    for c in (0.0, 0.3):
        decided = decide_threshold_batch(counts, c)
        assert decided.tolist() == [-1, 0, -1]
        for row, d in zip(labels, decided):
            want = decide_threshold(tally(row, frame, weights), c)
            assert d == (-1 if want.is_conflict else want.index)


def test_absolute_majority_at_half_is_conflict():
    frame = make_frame(["a", "b", "c"])
    labels = np.array([[0, 0, 1, 2], [0, 0, 0, 1], [1, 1, 2, 2]])
    decided = vote_absolute(labels, frame)
    assert decided.tolist() == [-1, 0, -1]
    for row, d in zip(labels, decided):
        want = decide_absolute_majority(tally(row, frame))
        assert d == (-1 if want.is_conflict else want.index)


def test_threshold_c_one_needs_every_vote():
    frame = make_frame(["a", "b", "c"])
    weights = VoteWeights(np.full((3, 3), 1.0 / 9.0))
    labels = np.array([[2, 2, 2], [2, 2, 1], [0, 0, 0]])
    for w in (None, weights):
        counts = tally_batch(labels, frame, w)
        assert decide_threshold_batch(counts, 1.0).tolist() == [2, -1, 0]
        for row, d in zip(labels, decide_threshold_batch(counts, 1.0)):
            want = decide_threshold(tally(row, frame, w), 1.0)
            assert d == (-1 if want.is_conflict else want.index)


def test_vote_batch_rejects_what_scalar_rejects():
    frame = make_frame(["a", "b"])
    with pytest.raises(ValueError, match="class index 2 out of range"):
        tally_batch(np.array([[0, 2]]), frame)
    with pytest.raises(ValueError, match="does not match"):
        tally_batch(np.array([[0, 1]]), frame, VoteWeights(np.full((3, 2), 1 / 6)))
    with pytest.raises(ValueError, match="threshold coefficient"):
        decide_threshold_batch(np.ones((1, 2)), 1.5)
    for b in (float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="threshold offset b"):
            decide_threshold_batch(np.array([[2.0, 1.0]]), 0.0, b)


# ---------------------------------------------------------------------------
# Closed-form Appriou combination against combine_all + decide_pignistic


def assert_appriou_matches(labels, params, as_printed=False):
    decided, conflict = appriou_decide_batch(labels, params, as_printed)
    want = [appriou_combined(row, params, as_printed) for row in labels]
    assert decided.dtype == np.int64
    assert decided.tolist() == [
        -1 if d.is_conflict else d.index for d in map(decide_pignistic, want)
    ]
    np.testing.assert_allclose(
        conflict, [m.conflict_mass() for m in want], rtol=0.0, atol=CONFLICT_ATOL
    )
    return decided, conflict


def appriou_params(cond, alpha):
    cond = np.asarray(cond, dtype=float)
    frame = make_frame([f"c{i}" for i in range(cond.shape[1])])
    return AppriouParams(frame, cond, alpha)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    m=st.integers(1, 8),
    coarse=st.booleans(),
    as_printed=st.booleans(),
)
def test_appriou_batch_matches_scalar(seed, n, m, coarse, as_printed):
    # Discounts are 0, 1 or uniform in between: g = 1 - alpha > 0 is reached
    # only here, as the protocol builds alpha = 1. Coarse rates and discounts
    # (quarter steps) make classes tie exactly on BetP.
    rng = np.random.default_rng(seed)
    if coarse:
        cond = rng.integers(0, 5, (m, n)) / 4.0
        alpha = rng.integers(0, 5, (m, n)) / 4.0
    else:
        cond = np.where(rng.random((m, n)) < 0.2, 0.0, rng.random((m, n)))
        pick = rng.random((m, n))
        alpha = np.where(pick < 0.3, 0.0, np.where(pick < 0.6, 1.0, rng.random((m, n))))
    cond[cond.max(axis=1) == 0.0, 0] = 1.0
    labels = rng.integers(0, n, (12, m))
    labels[:4] = rng.integers(0, min(n, 2), (4, m))  # rows with repeated classes
    assert_appriou_matches(labels, appriou_params(cond, alpha), as_printed)


@pytest.mark.parametrize("n", range(1, 17))
def test_decide_triples_gives_each_row_the_same_bytes_in_any_batch(monkeypatch, n):
    # Rows decided in one call of several blocks, one at a time, or shuffled
    # get the same bytes: nothing a row gets depends on the rows beside it,
    # in the closed form or on the scalar path. Quarter-step masses on half
    # of the rows, and every source putting most of its mass on the
    # complement of class 0 on a quarter of them, make near ties.
    rng = np.random.default_rng(n)
    m, rows = int(rng.integers(1, 9)), 40
    frame = make_frame([f"c{i}" for i in range(n)])
    classes = rng.integers(0, n, (rows, m))
    masses = rng.random((3, rows, m))
    masses[:, ::2] = rng.integers(0, 4, (3, rows // 2, m)) + 0.25
    masses[:, ::4] = np.array([0.25, 1.5, 0.25])[:, None, None]
    classes[::4] = 0
    masses /= masses.sum(axis=0)

    def source_mass(r, j):
        c = frame.singleton(classes[r, j])
        return MassFunction(
            frame,
            [
                (c, masses[0, r, j]),
                (c.complement(), masses[1, r, j]),
                (frame.full(), masses[2, r, j]),
            ],
        )

    monkeypatch.setattr(belief, "_BLOCK_FLOATS", 2 * n * n * 7)  # 7 rows a block

    def decide(at):
        # Row r of the call is row index[r] of the arrays.
        index = np.arange(rows)[at]
        return belief._decide_triples(
            classes[at], masses[:, at], n, lambda r, j: source_mass(index[r], j)
        )

    whole = decide(slice(None))
    one_by_one = [decide(slice(r, r + 1)) for r in range(rows)]
    order = rng.permutation(rows)
    shuffled = decide(order)
    if n > 2:
        assert belief._closed_form(classes, masses, n)[2].any()
    for i, want in enumerate(whole):
        joined = np.concatenate([got[i] for got in one_by_one])
        assert joined.tobytes() == want.tobytes()
        back = np.empty_like(want)
        back[order] = shuffled[i]
        assert back.tobytes() == want.tobytes()


def test_appriou_scalar_path_builds_each_source_mass_once(monkeypatch):
    # Every row is flagged as a near tie, so each distinct label row takes
    # the scalar path: it must build at most one mass per (source, label),
    # and give the bytes that combining fresh masses row by row gives.
    rng = np.random.default_rng(11)
    n, m = 5, 4
    params = appriou_params(rng.integers(1, 5, (m, n)) / 4.0, rng.random((m, n)))
    labels = rng.integers(0, n, (300, m))
    closed_form = belief._closed_form

    def all_tied(classes, masses, n):
        decided, conflict, _ = closed_form(classes, masses, n)
        return decided, conflict, np.ones(classes.shape[0], dtype=bool)

    calls = []

    def counted(j, i, params, as_printed=False):
        calls.append((j, i))
        return appriou_mass(j, i, params, as_printed)

    monkeypatch.setattr(belief, "_closed_form", all_tied)
    monkeypatch.setattr(belief, "appriou_mass", counted)
    for as_printed in (False, True):
        calls.clear()
        decided, conflict = appriou_decide_batch(labels, params, as_printed)
        assert len(calls) == len(set(calls)) <= m * n
        want = [appriou_combined(row, params, as_printed) for row in labels]
        assert decided.tolist() == [
            -1 if d.is_conflict else d.index for d in map(decide_pignistic, want)
        ]
        want_conflict = np.array([w.conflict_mass() for w in want])
        assert conflict.tobytes() == want_conflict.tobytes()


def test_appriou_batch_spans_several_blocks():
    # At n = 16 a block holds 128 rows, so 600 rows take five blocks.
    rng = np.random.default_rng(11)
    params = appriou_params(rng.random((3, 16)), np.ones((3, 16)))
    labels = rng.integers(0, 16, (600, 3))
    labels[::7] = rng.integers(0, 2, (86, 3))
    assert_appriou_matches(labels, params)


@pytest.mark.parametrize("n", [2, 3])
def test_appriou_total_conflict(n):
    # Source j reports class j, which it never recognizes: all of its mass
    # goes to the complement, and the complements of every class meet in the
    # empty set.
    params = appriou_params(1.0 - np.eye(n), np.ones((n, n)))
    decided, conflict = assert_appriou_matches(np.arange(n)[None, :], params)
    assert decided.tolist() == [-1]
    assert conflict.tolist() == [1.0]


def test_appriou_single_class():
    params = appriou_params([[0.5], [1.0], [0.2]], [[1.0], [0.5], [0.0]])
    for as_printed in (False, True):
        decided, _ = assert_appriou_matches(np.zeros((2, 3), int), params, as_printed)
        assert decided.tolist() == [0, 0]


def test_appriou_reported_class_never_recognized():
    cond = [[0.0, 0.8, 0.5, 0.5], [0.6, 0.7, 0.1, 0.9], [0.3, 0.0, 1.0, 0.2]]
    params = appriou_params(cond, np.ones((3, 4)))
    labels = np.array([[0, 0, 0], [0, 1, 2], [0, 3, 1], [1, 1, 1]])
    for as_printed in (False, True):
        assert_appriou_matches(labels, params, as_printed)


def test_appriou_exact_tie_among_unreported_classes():
    # Source 0 reports class 0 with a low rate, so most of its mass sits on
    # {1, 2, 3}, which splits it evenly: the lowest index wins.
    cond = [[0.1, 1.0, 1.0, 1.0], [0.2, 1.0, 0.5, 0.5]]
    params = appriou_params(cond, np.ones((2, 4)))
    decided, _ = assert_appriou_matches(np.array([[0, 0]]), params)
    assert decided.tolist() == [1]


def test_appriou_rounding_tie_follows_scalar_path():
    # Classes 0 and 1 tie on BetP; the scalar combination rounds the tie
    # toward class 0, the closed form toward class 1 (found by search).
    params = appriou_params(
        [[0.75, 0.75], [1.0, 0.0], [0.75, 0.25]],
        [[0.75, 0.75], [0.75, 0.75], [0.75, 0.5]],
    )
    decided, _ = assert_appriou_matches(np.array([[1, 0, 0]]), params, as_printed=True)
    assert decided.tolist() == [0]


def test_tiny_masses_are_kept_by_appriou_combination():
    # Each source commits about 3e-13 and 4e-13 to the class it reports and
    # the rest to its complement. The scalar combination keeps both
    # singleton products, so class 1 wins on a pignistic vector of 3/7, 4/7
    # (up to the few digits that 1 - m(empty) holds of 7e-13).
    params = appriou_params([[3e-13, 1.0], [1.0, 4e-13]], np.ones((2, 2)))
    decided, conflict = assert_appriou_matches(np.array([[0, 1]]), params)
    assert decided.tolist() == [1]
    assert 0.0 < 1.0 - conflict[0] < 1e-12
    bet = appriou_combined([0, 1], params, False).pignistic()
    assert bet.sum() == pytest.approx(1.0, rel=1e-3)
    assert bet == pytest.approx([3 / 7, 4 / 7], rel=1e-3)


def test_appriou_evidence_below_conflict_rounding_follows_scalar_path():
    # m(empty) rounds to 1 in the scalar combination, which decides the
    # conflict class; the closed form keeps about 1e-16 of non-empty mass and
    # would pick class 1. A top-two gap below 1e-9 of the total mass sends
    # the row to the scalar path (found by search).
    params = appriou_params([[3.1e-17, 1.0], [1.0, 8.1e-17]], np.ones((2, 2)))
    decided, conflict = assert_appriou_matches(np.array([[0, 1]]), params)
    assert decided.tolist() == [-1]
    assert conflict[0] == 1.0


def test_conflict_class_when_one_minus_empty_mass_rounds_to_zero():
    # {c0} and {c1} hold mass, but 1 - m(empty) rounds to 0: the conflict class
    # is decided and pignistic() raises, as when all mass is on the empty set.
    frame = make_frame(["c0", "c1"])
    m = MassFunction(
        frame,
        {frame.empty(): 1.0, frame.singleton(0): 1e-17, frame.singleton(1): 2e-17},
    )
    assert decide_pignistic(m).is_conflict
    with pytest.raises(ValueError, match="total conflict"):
        m.pignistic()
    # Appriou masses that combine to this m; the batch path agrees.
    params = appriou_params([[1e-17, 1.0], [1.0, 2e-17]], np.ones((2, 2)))
    assert dict(appriou_combined([0, 1], params, False).items()) == dict(m.items())
    decided, conflict = assert_appriou_matches(np.array([[0, 1]]), params)
    assert decided.tolist() == [-1]
    assert conflict[0] == 1.0


def test_appriou_batch_rejects_bad_labels():
    params = appriou_params([[1.0, 0.5], [0.5, 1.0]], np.ones((2, 2)))
    with pytest.raises(ValueError, match="class index 2 out of range"):
        appriou_decide_batch(np.array([[0, 2]]), params)
    with pytest.raises(ValueError, match="do not match 2 sources"):
        appriou_decide_batch(np.array([[0, 1, 1]]), params)


# ---------------------------------------------------------------------------
# Mass lost over long conjunctive_combine chains


def dropped_mass(mass):
    return 1.0 - math.fsum(v for _, v in mass.items())


def wide_scenario(m, size, seed):
    n = 16
    sources = tuple(
        SourceProfile(
            id=f"s{j}",
            reliability=tuple(0.3 + 0.06 * ((7 * i + 3 * j) % 11) for i in range(n)),
            temperature=0.35,
        )
        for j in range(m)
    )
    return simulate(
        SimConfig(
            classes=tuple(f"c{i}" for i in range(n)),
            priors=(1.0 / n,) * n,
            sources=sources,
            n_samples=size,
            seed=seed,
        )
    )


def test_mass_lost_by_denoeux_combination_is_bounded():
    # n = 16, k from 1 up to the whole calibration split.
    ds = wide_scenario(3, 200, 1)
    calib_idx, test_idx = np.arange(160), np.arange(160, 200)
    queries = ds.scores[test_idx].reshape(test_idx.shape[0], -1)
    for k in (1, 10, 40, 160):
        ts = TrainingSet(
            ds.frame, ds.scores[calib_idx].reshape(160, -1), ds.truth[calib_idx], k=k
        )
        _, conflict = denoeux_decide_batch(queries, ts)
        for x, c in zip(queries, conflict):
            mass = denoeux_classify_mass(x, ts)
            assert abs(dropped_mass(mass)) < 1e-10
            assert c == pytest.approx(mass.conflict_mass(), abs=CONFLICT_ATOL)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("k", [1, 5, 40])
def test_denoeux_batch_matches_scalar_at_sixteen_classes(k, alpha):
    # n = 16 takes the most quadrature nodes (8) in the pignistic share of
    # the frame.
    ds = wide_scenario(3, 240, 4)
    calib_idx, test_idx = np.arange(160), np.arange(160, 240)
    ts = TrainingSet(
        ds.frame,
        ds.scores[calib_idx].reshape(160, -1),
        ds.truth[calib_idx],
        k=k,
        alpha=alpha,
    )
    queries = ds.scores[test_idx].reshape(test_idx.shape[0], -1)
    decided, conflict = denoeux_decide_batch(queries, ts)
    want = [denoeux_classify_mass(x, ts) for x in queries]
    assert decided.tolist() == [
        -1 if d.is_conflict else d.index for d in map(decide_pignistic, want)
    ]
    np.testing.assert_allclose(
        conflict, [m.conflict_mass() for m in want], rtol=0.0, atol=CONFLICT_ATOL
    )


def test_mass_lost_by_appriou_combination_is_bounded():
    # m = 16 sources over n = 16 classes, calibrated as in the protocol and
    # with discounts below 1, which give up to 2^16 focal sets.
    ds = wide_scenario(16, 140, 2)
    cms = [
        build_confusion(np.column_stack((ds.truth[:100], ds.labels[:100, j])), ds.frame)
        for j in range(16)
    ]
    for alpha in (1.0, 0.9):
        params = conditional_probs(cms, np.full((16, 16), alpha))
        rows = ds.labels[100:110]
        _, conflict = appriou_decide_batch(rows, params)
        for row, c in zip(rows, conflict):
            mass = appriou_combined(row, params, False)
            assert abs(dropped_mass(mass)) < 1e-10
            assert c == pytest.approx(mass.conflict_mass(), abs=CONFLICT_ATOL)
    # Sixteen distinct reported classes: about 8000 products of the last
    # combination fall just below 1e-12. Dropping them all once lost 8e-9 of
    # mass, past the 1e-9 sum tolerance, so the combination raised.
    params = appriou_params(np.full((16, 16), 0.5), np.full((16, 16), 0.9))
    mass = appriou_combined(range(16), params, False)
    assert abs(dropped_mass(mass)) < 1e-10
    _, conflict = appriou_decide_batch(np.arange(16)[None, :], params)
    assert conflict[0] == pytest.approx(mass.conflict_mass(), abs=CONFLICT_ATOL)


# ---------------------------------------------------------------------------
# The method contract the protocol relies on: a method reads the dataset
# only at its trial's calibration rows and at its rows, and a row-wise
# method, which has no fit, not even at the calibration rows.

ROW_WISE = ["vote_majority", "vote_absolute"] + [
    f"possibility_{op}" for op in ("min", "max", "mean", "median")
]


@pytest.mark.parametrize("scores", ["continuous", "coarse"])
@pytest.mark.parametrize("name", METHODS)
def test_kernel_reads_only_calibration_rows_and_its_rows(name, scores):
    ds = make_dataset(12, n=4, m=3, size=90, scores=scores)
    perm = np.random.default_rng(12).permutation(90)
    calib_idx, rows = perm[30:60], perm[60:75]
    other = perm[np.r_[0:30, 75:90]]
    rng = np.random.default_rng(13)
    truth, labels, values = (np.array(a) for a in (ds.truth, ds.labels, ds.scores))
    truth[other] = (truth[other] + 1) % 4
    labels[other] = (labels[other] + rng.integers(1, 4, labels[other].shape)) % 4
    values[other] = rng.random(values[other].shape)
    changed = Dataset(ds.frame, ds.source_ids, ds.sample_ids, truth, labels, values)
    settings = FusionSettings(denoeux_k=4)
    want = fit_decide(name, ds, settings, calib_idx, rows)
    got = fit_decide(name, changed, settings, calib_idx, rows)
    for w, g in zip(want, got):
        assert w.dtype == g.dtype and w.tobytes() == g.tobytes(), name


@pytest.mark.parametrize("name", sorted(ROW_WISE))
def test_row_wise_kernel_does_not_need_a_calibration_split(name):
    # The protocol fits nothing for a method without fit, so its decide gets
    # no model and no calibration rows.
    assert TABLE[name].fit is None
