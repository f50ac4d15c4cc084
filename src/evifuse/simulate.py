"""Seeded synthetic multi-source classification data.

Sources are parameterized noisy oracles standing in for trained
classifiers: each one decides the true class with a per-class reliability,
spreads its errors uniformly over the remaining classes, and reports a
numeric score vector peaked at its symbolic decision with a configurable
amount of uniform noise. Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .frame import (
    POSSIBILITY_OPERATORS,
    SUM_TOL,
    Frame,
    check_integer,
    check_number,
    check_seed,
    make_frame,
)

# Long-tailed six-class mix used by the default benchmark scenario.
_DEFAULT_PRIOR_SHARES = (54.52, 21.35, 8.80, 5.50, 0.77, 2.40)

# Sample ids _check_sample_ids compares at a time; a block's temporaries stay
# below glibc's default mmap threshold of 128 KiB.
_BLOCK_FLOATS = 1 << 13


@dataclass(frozen=True)
class SourceProfile:
    """One synthetic source: per-class reliability plus score noise."""

    id: str
    reliability: tuple[float, ...]  # per-class probability of a correct decision
    temperature: float = 0.0  # 0 = crisp one-hot scores, 1 = pure noise

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise ValueError(f"source id must be a string, got {self.id!r}")
        rel = tuple(check_number("reliabilities", r, 0, 1) for r in self.reliability)
        if not rel:
            raise ValueError("reliability needs one entry per class")
        object.__setattr__(self, "reliability", rel)
        temperature = check_number("temperature", self.temperature, 0, 1)
        object.__setattr__(self, "temperature", temperature)


@dataclass(frozen=True)
class FusionSettings:
    """Method parameters used by the experiment runner."""

    vote_c: float = 0.0
    vote_b: float = 0.0
    possibility_operator: str = "max"
    denoeux_k: int = 3
    denoeux_alpha: float = 0.95
    appriou_as_printed: bool = False

    def __post_init__(self) -> None:
        checked = {
            "vote_c": check_number("vote threshold coefficient", self.vote_c, 0, 1),
            "vote_b": check_number("vote threshold offset", self.vote_b),
            "denoeux_k": check_integer("k", self.denoeux_k, 1),
            "denoeux_alpha": check_number("denoeux discount", self.denoeux_alpha, 0, 1),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        flag = self.appriou_as_printed
        if not isinstance(flag, (bool, np.bool_)):
            raise ValueError(f"appriou_as_printed must be a boolean, got {flag!r}")
        object.__setattr__(self, "appriou_as_printed", bool(flag))
        op = self.possibility_operator
        if not isinstance(op, str) or op not in POSSIBILITY_OPERATORS:
            raise ValueError(f"unknown possibility operator {op!r}")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic benchmark scenario."""

    classes: tuple[str, ...]
    priors: tuple[float, ...]
    sources: tuple[SourceProfile, ...]
    n_samples: int
    n_trials: int = 10
    seed: int = 0
    fusion: FusionSettings = field(default_factory=FusionSettings)

    def __post_init__(self) -> None:
        classes = tuple(self.classes)
        priors = tuple(check_number("priors", p) for p in self.priors)
        sources = tuple(self.sources)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "sources", sources)
        frame = make_frame(classes)  # validates labels
        if len(priors) != frame.n:
            raise ValueError("one prior per class is required")
        if any(p < 0.0 for p in priors):
            raise ValueError("priors must be non-negative")
        if abs(sum(priors) - 1.0) > SUM_TOL:
            raise ValueError("priors must sum to 1")
        if not sources:
            raise ValueError("at least one source is required")
        if len({s.id for s in sources}) != len(sources):
            raise ValueError("source ids must be unique")
        for s in sources:
            if len(s.reliability) != frame.n:
                raise ValueError(
                    f"source {s.id!r} needs one reliability per class"
                )
        for name in ("n_samples", "n_trials"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", check_seed(self.seed))

    @property
    def frame(self) -> Frame:
        return make_frame(self.classes)


def _check_sample_ids(ids: np.ndarray) -> np.ndarray:
    """ids as int64, the same array if they are, unique whole numbers in the
    int64 range load_dataset reads; else ValueError for the first bad one."""
    if ids.dtype.kind not in "iuf":
        raise ValueError(f"sample ids must be integers, got dtype {ids.dtype}")
    top = np.iinfo(np.int64).max
    if ids.dtype.kind == "f":
        fraction = ids != np.trunc(ids)  # NaN too
        bad = fraction | ~((ids >= -(2.0**63)) & (ids < 2.0**63))
        if bad.any():
            i = bad.argmax()
            problem = "is not an integer" if fraction[i] else "does not fit in 64 bits"
            raise ValueError(f"sample id {ids[i]} {problem}")
    elif ids.size and ids.max() > top:  # only uint64 can exceed the range
        raise ValueError(f"sample id {ids[(ids > top).argmax()]} does not fit in 64 bits")
    ids = ids.astype(np.int64, copy=False)
    # Ids that increase, as simulate and a saved file's loader give them, are
    # unique; they are compared a block at a time, the others sorted.
    for a in range(0, len(ids), _BLOCK_FLOATS):
        block = ids[a : a + _BLOCK_FLOATS + 1]
        if not (block[1:] > block[:-1]).all():
            ordered = np.sort(ids)  # not np.unique, which imports numpy.ma
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("sample ids must be unique")
            break
    return ids


@dataclass(frozen=True)
class Dataset:
    """Simulated or loaded multi-source dataset, one block per array."""

    frame: Frame
    source_ids: tuple[str, ...]
    sample_ids: np.ndarray  # (N,)
    truth: np.ndarray  # (N,)
    labels: np.ndarray  # (N, m) symbolic decisions
    scores: np.ndarray  # (N, m, n) numeric outputs

    def __post_init__(self) -> None:
        n_samples = self.truth.shape[0]
        m = len(self.source_ids)
        if n_samples < 1:
            raise ValueError("at least one sample is required")
        if m < 1:
            raise ValueError("at least one source is required")
        for sid in self.source_ids:
            if not isinstance(sid, str):
                raise ValueError(f"source ids must be strings, got {sid!r}")
        if len(set(self.source_ids)) != m:
            raise ValueError("source ids must be unique")
        if self.sample_ids.shape != (n_samples,):
            raise ValueError("one sample id per sample is required")
        if self.labels.shape != (n_samples, m):
            raise ValueError("labels must be an (N, m) matrix")
        if self.scores.shape != (n_samples, m, self.frame.n):
            raise ValueError("scores must be an (N, m, n) array")
        for arr in (self.sample_ids, self.truth, self.labels, self.scores):
            arr.setflags(write=False)

    def checked(self) -> Dataset:
        """The dataset with int64 sample ids and classes and float64 scores,
        as save_dataset writes it, holding the same arrays where they have
        those dtypes: every score is a finite number in [0, 1], every class
        index in range, and the sample ids are unique whole numbers that fit
        in int64; else ValueError."""
        scores = check_number("scores", self.scores, 0, 1)
        truth, labels = map(self.frame.check_classes, (self.truth, self.labels))
        ids = _check_sample_ids(np.asarray(self.sample_ids))
        return replace(self, sample_ids=ids, truth=truth, labels=labels, scores=scores)

    @property
    def n_samples(self) -> int:
        return self.truth.shape[0]

    @property
    def m_sources(self) -> int:
        return len(self.source_ids)


def _stream(seed: int, key: int) -> np.random.Generator:
    """Independent deterministic RNG stream for (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """RNG stream for one trial; independent across trial indices."""
    return _stream(seed, 1 + trial)


def simulate(config: SimConfig) -> Dataset:
    """Draw a full dataset from the scenario; deterministic given the seed."""
    frame = config.frame
    n, m, total = frame.n, len(config.sources), config.n_samples
    rng = _stream(config.seed, 0)
    truth = rng.choice(n, size=total, p=np.asarray(config.priors))
    truth = truth.astype(np.int64, copy=False)
    labels = np.empty((total, m), dtype=np.int64)
    scores = np.empty((total, m, n))
    for j, src in enumerate(config.sources):  # column j, filled in place
        correct = rng.random(total) < np.asarray(src.reliability)[truth]
        offsets = rng.integers(1, n, size=total) if n > 1 else 0  # to a wrong class
        labels[:, j] = np.where(correct, truth, (truth + offsets) % n)
        # (1 - t) one_hot(label) + t noise, clipped to [0, 1]
        score, t = scores[:, j], src.temperature
        np.multiply(rng.random((total, n)), t, out=score)
        score[np.arange(total), labels[:, j]] += 1.0 - t
        np.clip(score, 0.0, 1.0, out=score)
    return Dataset(
        frame=frame,
        source_ids=tuple(s.id for s in config.sources),
        sample_ids=np.arange(total, dtype=np.int64),
        truth=truth,
        labels=labels,
        scores=scores,
    )


def default_priors() -> tuple[float, ...]:
    """Default long-tailed class mix, normalized to sum exactly 1."""
    total = sum(_DEFAULT_PRIOR_SHARES)
    return tuple(v / total for v in _DEFAULT_PRIOR_SHARES)


def default_config(seed: int = 214, n_samples: int = 2400, n_trials: int = 10) -> SimConfig:
    """Default benchmark scenario: six skewed classes, four sources.

    Three sources are reasonably reliable and one is degraded to roughly
    coin-flip quality, so the benchmark exercises robustness of the fusion
    rules to a bad source. Reliabilities vary by class, higher on the
    frequent classes, mimicking classifiers trained on imbalanced data.
    """
    classes = tuple(f"c{i}" for i in range(1, 7))
    base = (0.78, 0.50, 0.74, 0.70)
    shift = (0.06, 0.03, -0.02, -0.08, -0.14, -0.04)
    sources = tuple(
        SourceProfile(
            id=f"s{j + 1}",
            reliability=tuple(
                min(0.95, max(0.05, b + s)) for s in shift
            ),
            temperature=0.35,
        )
        for j, b in enumerate(base)
    )
    return SimConfig(
        classes=classes,
        priors=default_priors(),
        sources=sources,
        n_samples=n_samples,
        n_trials=n_trials,
        seed=seed,
    )
