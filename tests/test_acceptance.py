"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Each test prints a single pass/fail line; run with ``pytest -s`` to see
them inline. Expected values are produced by independent oracles (dense
brute force, exhaustive enumeration, analytic binomial sums), never by the
code paths under test.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from evifuse import (
    MassFunction,
    SimConfig,
    SourceProfile,
    TrainingSet,
    appriou_raw_masses,
    combine,
    conjunctive_combine,
    decide_majority,
    decide_threshold,
    decide_absolute_majority,
    default_config,
    denoeux_classify_mass,
    denoeux_mass,
    load_dataset,
    load_report,
    make_frame,
    necessity_measure,
    possibility_measure,
    run_experiment,
    save_dataset,
    save_report,
    simulate,
    tally,
    to_possibility,
    vacuous,
)
from helpers import brute_combine, brute_pignistic, dense_from_mass, random_mass


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_mass_algebra_oracle_equivalence():
    with criterion(1, "mass-algebra oracle equivalence"):
        rng = np.random.default_rng(1001)
        frames = [make_frame([f"c{i}" for i in range(n)]) for n in (2, 3, 4)]
        start = time.perf_counter()
        for trial in range(1000):
            frame = frames[trial % 3]
            m1, m2 = random_mass(rng, frame), random_mass(rng, frame)
            expected = brute_combine(dense_from_mass(m1), dense_from_mass(m2))
            got = dense_from_mass(conjunctive_combine(m1, m2))
            assert np.max(np.abs(got - expected)) < 1e-9
        assert time.perf_counter() - start < 5.0


def _fold(masses, order, rng):
    """Combine a list in a random association order."""
    items = [masses[i] for i in order]
    while len(items) > 1:
        i = int(rng.integers(0, len(items) - 1))
        items[i : i + 2] = [conjunctive_combine(items[i], items[i + 1])]
    return items[0]


def test_criterion_02_normalization_closure():
    with criterion(2, "normalization closure under combination chains"):
        rng = np.random.default_rng(1002)
        frame = make_frame(["a", "b", "c"])
        for _ in range(200):
            chain = [random_mass(rng, frame) for _ in range(int(rng.integers(2, 6)))]
            results = []
            for _ in range(4):
                order = rng.permutation(len(chain))
                results.append(dense_from_mass(_fold(chain, order, rng)))
            for vec in results:
                assert abs(math.fsum(vec) - 1.0) < 1e-9
                assert np.max(np.abs(vec - results[0])) < 1e-9


def test_criterion_03_belief_plausibility_duality():
    with criterion(3, "belief/plausibility duality"):
        rng = np.random.default_rng(1003)
        frames = [make_frame([f"c{i}" for i in range(n)]) for n in (2, 3, 4)]
        for trial in range(1000):
            frame = frames[trial % 3]
            m = random_mass(rng, frame)
            empty = m.conflict_mass()
            for a in frame.subsets():
                bel, pl = m.belief(a), m.plausibility(a)
                assert bel <= pl + 1e-12
                assert abs(bel + m.plausibility(a.complement()) - (1.0 - empty)) < 1e-9


def test_criterion_04_pignistic_correctness():
    with criterion(4, "pignistic transform correctness"):
        rng = np.random.default_rng(1004)
        frame3 = make_frame(["a", "b", "c"])
        for _ in range(300):
            m = random_mass(rng, frame3)
            if 1.0 - m.conflict_mass() <= 0.0:
                continue
            betp = m.pignistic()
            assert abs(float(betp.sum()) - 1.0) < 1e-9
            assert np.max(np.abs(betp - brute_pignistic(dense_from_mass(m), 3))) < 1e-9
        # Bayesian identity
        bayes = MassFunction(
            frame3, [(frame3.singleton(i), v) for i, v in enumerate([0.5, 0.2, 0.3])]
        )
        assert np.max(np.abs(bayes.pignistic() - [0.5, 0.2, 0.3])) < 1e-12
        # vacuous uniformity
        assert np.max(np.abs(vacuous(frame3).pignistic() - 1.0 / 3.0)) < 1e-12
        # worked two-class example
        frame2 = make_frame(["a", "b"])
        m = MassFunction(
            frame2,
            {
                frame2.singleton(0): 0.3,
                frame2.singleton(1): 0.2,
                frame2.full(): 0.2,
                frame2.empty(): 0.3,
            },
        )
        assert np.max(np.abs(m.pignistic() - [4.0 / 7.0, 3.0 / 7.0])) < 1e-12


def test_criterion_05_appriou_model():
    with criterion(5, "recognition-rate (Appriou) mass model"):
        for p_max in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            r = 1.0 / p_max
            for p in np.linspace(0.0, p_max, 9):
                for alpha in np.linspace(0.0, 1.0, 5):
                    corrected = appriou_raw_masses(float(p), r, float(alpha))
                    assert abs(math.fsum(corrected) - 1.0) < 1e-12
                    printed = appriou_raw_masses(
                        float(p), r, float(alpha), as_printed=True
                    )
                    excess = math.fsum(printed) - 1.0
                    if r > 1.0 and alpha > 0.0:
                        # the uncorrected variant always overshoots
                        assert excess > 1e-12
                    elif r == 1.0:
                        assert abs(excess) < 1e-12


def test_criterion_06_denoeux_model():
    with criterion(6, "distance-based (Denoeux) mass model"):
        frame = make_frame(["a", "b", "c"])
        # phi(0) = 1 and phi strictly decreasing toward 0 on a log grid
        anchor = TrainingSet(
            frame, np.zeros((1, 1)), np.array([0]), k=1, alpha=1.0, gamma=np.ones(3)
        )
        phi0 = denoeux_mass([0.0], 0, anchor).mass(frame.singleton(0))
        assert phi0 == 1.0
        values = [
            denoeux_mass([float(d)], 0, anchor).mass(frame.singleton(0))
            for d in np.logspace(-3, np.log10(13.0), 40)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

        # categorical mass for a coincident prototype at alpha = 1
        x = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        y = np.array([1, 0, 2])
        ts1 = TrainingSet(frame, x, y, k=1, alpha=1.0, gamma=np.ones(3))
        m = denoeux_classify_mass([0.0, 0.0], ts1)
        assert m.mass(frame.singleton(1)) == pytest.approx(1.0, abs=1e-12)

        # k <= 3 combination matches a dense hand combination
        rng = np.random.default_rng(1006)
        protos = rng.uniform(0, 2, size=(12, 3))
        classes = rng.integers(0, 3, size=12)
        for k in (1, 2, 3):
            ts = TrainingSet(frame, protos, classes, k=k, alpha=0.9)
            for _ in range(20):
                q = rng.uniform(0, 2, size=3)
                d2 = np.sum((protos - q) ** 2, axis=1)
                nearest = np.argsort(d2, kind="stable")[:k]
                expected = dense_from_mass(denoeux_mass(q, int(nearest[0]), ts))
                for t in nearest[1:]:
                    expected = brute_combine(
                        expected, dense_from_mass(denoeux_mass(q, int(t), ts))
                    )
                got = dense_from_mass(denoeux_classify_mass(q, ts))
                assert np.max(np.abs(got - expected)) < 1e-9


def test_criterion_07_possibility_measures():
    with criterion(7, "possibility and necessity measures"):
        rng = np.random.default_rng(1007)
        for n in (2, 3, 4):
            frame = make_frame([f"c{i}" for i in range(n)])
            for _ in range(200):
                scores = rng.uniform(0.0, 1.0, size=n)
                if rng.random() < 0.1:
                    scores[:] = 0.0
                d = to_possibility(scores)
                assert abs(float(d.pi.max()) - 1.0) < 1e-9
                for a, b in itertools.product(frame.subsets(), repeat=2):
                    union = possibility_measure(d, a | b)
                    parts = max(possibility_measure(d, a), possibility_measure(d, b))
                    assert abs(union - parts) < 1e-12
                for a in frame.subsets():
                    expected = 1.0 - possibility_measure(d, a.complement())
                    assert necessity_measure(d, a) == expected
        # combined distributions stay normalized
        frame = make_frame(["a", "b", "c"])
        for op in ("min", "max", "mean", "median"):
            for _ in range(100):
                dists = [
                    to_possibility(rng.uniform(0, 1, size=3))
                    for _ in range(int(rng.integers(1, 5)))
                ]
                merged = combine(dists, op)
                assert abs(float(merged.pi.max()) - 1.0) < 1e-9


def test_criterion_08_vote_rules():
    with criterion(8, "vote decision rules"):
        rng = np.random.default_rng(1008)
        # threshold rule at c=0, b=0 agrees with relative majority
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 10))
            frame = make_frame([f"c{i}" for i in range(n)])
            t = tally(rng.integers(0, n, size=m).tolist(), frame)
            counts = t.counts
            top = counts.max()
            if top > 0 and int((counts == top).sum()) == 1:
                assert decide_threshold(t, c=0.0, b=0.0) == decide_majority(t)
        # absolute majority never fires at or below m/2 votes
        for n in (1, 2, 3, 4):
            frame = make_frame([f"c{i}" for i in range(n)])
            for m in range(1, 8):
                for votes in itertools.product(range(n), repeat=m):
                    t = tally(list(votes), frame)
                    decision = decide_absolute_majority(t)
                    if not decision.is_conflict:
                        assert t.counts[decision.index] > m / 2.0


def test_criterion_09_majority_vote_matches_binomial():
    with criterion(9, "independent-source majority vote vs analytic rate"):
        start = time.perf_counter()
        analytic = sum(
            math.comb(5, k) * 0.7**k * 0.3 ** (5 - k) for k in range(3, 6)
        )
        assert analytic == pytest.approx(0.83692, abs=1e-5)
        config = SimConfig(
            classes=("a", "b"),
            priors=(0.5, 0.5),
            sources=tuple(SourceProfile(f"s{j}", (0.7, 0.7)) for j in range(5)),
            n_samples=150_000,  # the protocol tests on the final third
            n_trials=1,
            seed=99,
        )
        report = run_experiment(config, ["vote_majority"])
        accuracy = report.methods["vote_majority"].accuracy
        assert abs(accuracy - analytic) <= 0.01
        assert accuracy > 0.7
        assert time.perf_counter() - start < 10.0


def test_criterion_10_protocol_regression(tmp_path):
    with criterion(10, "benchmark protocol regression on the default scenario"):
        start = time.perf_counter()
        config = default_config()
        methods = ["vote_majority", "vote_weighted", "belief_appriou", "belief_denoeux"]
        report = run_experiment(config, methods)
        rerun = run_experiment(config, methods)
        assert report == rerun  # bit-identical across reruns

        degraded = min(report.source_accuracy.values())
        assert report.methods["vote_weighted"].accuracy > degraded
        assert report.methods["belief_appriou"].accuracy > degraded
        assert report.methods["belief_denoeux"].accuracy > degraded
        assert (
            report.methods["belief_denoeux"].accuracy
            >= report.methods["vote_majority"].accuracy
        )

        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_report(report, str(p1))
        save_report(rerun, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert time.perf_counter() - start < 60.0


def test_criterion_11_io_round_trip(tmp_path):
    with criterion(11, "file formats survive save/load/save"):
        config = default_config(n_samples=240, n_trials=2)
        ds = simulate(config)
        d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        save_dataset(ds, str(d1))
        save_dataset(load_dataset(str(d1)), str(d2))
        assert d1.read_bytes() == d2.read_bytes()

        report = run_experiment(config, ["vote_majority", "belief_denoeux"])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_report(report, str(r1))
        save_report(load_report(str(r1)), str(r2))
        assert r1.read_bytes() == r2.read_bytes()
        # sanity: the files really carry the fixture
        assert json.loads(r1.read_text())["n_trials"] == 2
