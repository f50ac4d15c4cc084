"""Belief-function fusion: mass functions, evidence models, and decisions.

A mass function spreads one unit of belief over subsets of the frame, not
just over single classes. Two evidence models build masses from data:

* the Appriou model turns a source's per-class recognition rate into mass
  on the recognized class, its complement, and the whole frame;
* the Denoeux model lets each labeled prototype support its own class with
  strength decaying in the distance to the query, combined over the k
  nearest prototypes (evidential k-NN).

Evidence is pooled with the unnormalized conjunctive rule of Smets, so
disagreement accumulates as mass on the empty set instead of being
renormalized away. Decisions maximize the pignistic probability, which
splits each focal element's mass uniformly over its members.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, reduce
from numbers import Integral
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .frame import CONFLICT, SUM_TOL, Decision, FocalSet, Frame

# float64 entries in one block of pairwise distances (512 KB). Each blocked
# loop reuses buffers allocated once per call: a fresh temporary this large is
# new zeroed pages from glibc, and those page faults, not the arithmetic, took
# most of the k-NN time.
_BLOCK_FLOATS = 1 << 16


class MassFunction:
    """Sparse mass assignment over subsets of a frame.

    Total mass must be 1. The empty set may carry mass (the conflict left
    behind by the unnormalized conjunctive rule); zero-mass entries are
    never stored.
    """

    __slots__ = ("frame", "_masses")

    def __init__(
        self,
        frame: Frame,
        masses: Mapping[FocalSet, float] | Iterable[tuple[FocalSet, float]],
    ) -> None:
        items = masses.items() if isinstance(masses, Mapping) else masses
        acc: dict[int, float] = {}
        for fs, value in items:
            if fs.frame != frame:
                raise ValueError("focal set belongs to a different frame")
            value = float(value)
            if value < 0.0:
                raise ValueError(f"negative mass {value} on {fs!r}")
            if value == 0.0:
                continue
            acc[fs.bits] = acc.get(fs.bits, 0.0) + value
        self._init_from_bits(frame, acc)

    def _init_from_bits(self, frame: Frame, acc: dict[int, float]) -> None:
        total = math.fsum(acc.values())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_masses", acc)

    @classmethod
    def _from_bits(cls, frame: Frame, acc: dict[int, float]) -> "MassFunction":
        m = object.__new__(cls)
        m._init_from_bits(frame, acc)
        return m

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("mass functions are immutable")

    def mass(self, subset: FocalSet) -> float:
        if subset.frame != self.frame:
            raise ValueError("focal set belongs to a different frame")
        return self._masses.get(subset.bits, 0.0)

    __getitem__ = mass

    def items(self) -> Iterator[tuple[FocalSet, float]]:
        for bits, value in self._masses.items():
            yield FocalSet(self.frame, bits), value

    def focal_sets(self) -> list[FocalSet]:
        return [FocalSet(self.frame, bits) for bits in self._masses]

    def __len__(self) -> int:
        return len(self._masses)

    def conflict_mass(self) -> float:
        """Mass on the empty set, the disagreement left by combination."""
        return self._masses.get(0, 0.0)

    def belief(self, subset: FocalSet) -> float:
        """Total mass of the non-empty focal elements contained in the subset."""
        if subset.frame != self.frame:
            raise ValueError("focal set belongs to a different frame")
        a = subset.bits
        return math.fsum(
            v for bits, v in self._masses.items() if bits and bits | a == a
        )

    def plausibility(self, subset: FocalSet) -> float:
        """Total mass of the focal elements intersecting the subset."""
        if subset.frame != self.frame:
            raise ValueError("focal set belongs to a different frame")
        a = subset.bits
        return math.fsum(v for bits, v in self._masses.items() if bits & a)

    def pignistic(self) -> np.ndarray:
        """Pignistic probability vector over the classes.

        Each non-empty focal element shares its mass uniformly among its
        members; the result is rescaled by 1 - m(empty) so it sums to 1, up
        to the digits that 1 - m(empty) keeps when m(empty) is close to 1.
        Raises ValueError when 1 - m(empty) rounds to 0: when all mass sits
        on the empty set, and also when the non-empty masses are too small
        to change 1 - m(empty) at all.
        """
        scale = 1.0 - self._masses.get(0, 0.0)
        if scale <= 0.0:
            raise ValueError("total conflict: no pignistic distribution exists")
        out = np.zeros(self.frame.n)
        for bits, value in self._masses.items():
            if bits == 0:
                continue
            share = value / bits.bit_count()
            k = 0
            while bits:
                if bits & 1:
                    out[k] += share
                bits >>= 1
                k += 1
        out /= scale
        return out

    def __and__(self, other: "MassFunction") -> "MassFunction":
        return conjunctive_combine(self, other)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{FocalSet(self.frame, bits)!r}: {value:.6g}"
            for bits, value in sorted(self._masses.items())
        )
        return f"MassFunction({parts})"


def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return MassFunction._from_bits(frame, {(1 << frame.n) - 1: 1.0})


def conjunctive_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Unnormalized conjunctive rule: intersect focal pairs, multiply masses.

    Disagreement lands on the empty set and is kept there; nothing is
    renormalized or pruned.
    """
    if m1.frame != m2.frame:
        raise ValueError("mass functions are defined over different frames")
    acc: dict[int, float] = {}
    for b1, v1 in m1._masses.items():
        for b2, v2 in m2._masses.items():
            k = b1 & b2
            acc[k] = acc.get(k, 0.0) + v1 * v2
    # Only products that underflow to 0.0 are left out: zero masses are
    # never stored.
    return MassFunction._from_bits(m1.frame, {k: v for k, v in acc.items() if v})


def combine_all(masses: Sequence[MassFunction]) -> MassFunction:
    """Conjunctively combine any number of mass functions (at least one)."""
    if not masses:
        raise ValueError("at least one mass function is required")
    return reduce(conjunctive_combine, masses)


def decide_pignistic(m: MassFunction) -> Decision:
    """Pick the class with the highest pignistic probability.

    Ties go to the lowest class index. The conflict decision comes when
    1 - m(empty) rounds to 0, where pignistic() is undefined: all mass on
    the empty set, or non-empty masses too small to change 1 - m(empty).
    """
    if 1.0 - m.conflict_mass() <= 0.0:
        return CONFLICT
    return Decision(int(np.argmax(m.pignistic())))


# ---------------------------------------------------------------------------
# Appriou model: masses from per-class recognition rates


@dataclass(frozen=True)
class AppriouParams:
    """Recognition-rate parameters for the Appriou evidence model.

    cond_prob[j, i] is the probability that source j answers correctly when
    the true class is i, r[j] the reciprocal of source j's best rate, and
    alpha[j, i] a discount moving mass toward ignorance for shaky sources.
    """

    frame: Frame
    cond_prob: np.ndarray  # (m, n)
    r: np.ndarray  # (m,)
    alpha: np.ndarray  # (m, n)

    def __post_init__(self) -> None:
        cond = np.array(self.cond_prob, dtype=float)
        r = np.array(self.r, dtype=float)
        alpha = np.array(self.alpha, dtype=float)
        if cond.ndim != 2 or cond.shape[1] != self.frame.n:
            raise ValueError("cond_prob must be an (m, n) matrix over the frame")
        m = cond.shape[0]
        if r.shape != (m,) or alpha.shape != (m, self.frame.n):
            raise ValueError("r and alpha shapes must match cond_prob")
        if cond.min() < 0.0 or cond.max() > 1.0:
            raise ValueError("conditional probabilities must lie in [0, 1]")
        if alpha.min() < 0.0 or alpha.max() > 1.0:
            raise ValueError("discounts must lie in [0, 1]")
        maxes = cond.max(axis=1)
        if np.any(maxes <= 0.0):
            raise ValueError(
                "every source needs one class it recognizes with positive probability"
            )
        if np.max(np.abs(r * maxes - 1.0)) > SUM_TOL:
            raise ValueError("r must be the reciprocal of each source's best rate")
        for arr in (cond, r, alpha):
            arr.setflags(write=False)
        object.__setattr__(self, "cond_prob", cond)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alpha", alpha)

    @property
    def m_sources(self) -> int:
        return self.cond_prob.shape[0]


def appriou_raw_masses(
    p: float, r: float, alpha: float, as_printed: bool = False
) -> tuple[float, float, float]:
    """Raw Appriou mass triple (class, complement, frame), not renormalized.

    The corrected complement mass alpha / (1 + r*p) makes the triple sum to
    1 for any r. The widely circulated variant alpha*r / (1 + r*p), kept
    behind ``as_printed`` for comparison, only sums to 1 when r = 1.
    Arrays of p, r and alpha give the triples elementwise.
    """
    denom = 1.0 + r * p
    m_class = alpha * r * p / denom
    m_other = alpha * r / denom if as_printed else alpha / denom
    return m_class, m_other, 1.0 - alpha


def appriou_mass(
    j: int, i: int, params: AppriouParams, as_printed: bool = False
) -> MassFunction:
    """Mass contributed by source j for the hypothesis "class i".

    Focal elements are the singleton {C_i}, its complement, and the full
    frame. With ``as_printed`` the non-additive variant is used and the
    triple is renormalized to keep the result a valid mass function.
    """
    frame = params.frame
    if not 0 <= j < params.m_sources:
        raise ValueError(f"source index {j} out of range")
    i = frame.check_class(i)
    p = float(params.cond_prob[j, i])
    r = float(params.r[j])
    alpha = float(params.alpha[j, i])
    m_class, m_other, m_frame = appriou_raw_masses(p, r, alpha, as_printed)
    if as_printed:
        total = m_class + m_other + m_frame
        m_class, m_other, m_frame = m_class / total, m_other / total, m_frame / total
    single = frame.singleton(i)
    return MassFunction(
        frame,
        [(single, m_class), (single.complement(), m_other), (frame.full(), m_frame)],
    )


def appriou_decide_batch(
    labels: np.ndarray, params: AppriouParams, as_printed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Appriou decisions and conflict masses for many rows of source labels.

    Row by row this agrees with ``decide_pignistic(combine_all([appriou_mass(j,
    labels[r, j], params, as_printed) for j ...]))``: the same decision (-1
    for the conflict class) and the same conflict mass up to rounding.
    Source j's masses (a, b, g) sit on {l_j}, its complement and the frame,
    and are combined by the closed form of ``_decide_triples``; rows it
    hands to the scalar path are combined once per distinct label row.
    """
    frame = params.frame
    labels = frame.check_classes(labels)
    if labels.ndim != 2 or labels.shape[1] != params.m_sources:
        raise ValueError(
            f"labels of shape {labels.shape} do not match {params.m_sources} sources"
        )
    # (3, m, n) mass tables, with the floating-point operations of appriou_mass.
    r = params.r[:, None]
    tables = np.stack(appriou_raw_masses(params.cond_prob, r, params.alpha, as_printed))
    if as_printed:
        tables /= tables.sum(axis=0)
    masses = tables[:, np.arange(params.m_sources), labels]

    def scalar(row: np.ndarray) -> MassFunction:
        return combine_all(
            [appriou_mass(j, k, params, as_printed) for j, k in enumerate(row)]
        )

    return _decide_triples(labels, masses, frame.n, labels, scalar)


# ---------------------------------------------------------------------------
# Denoeux model: masses from distances to labeled prototypes


@dataclass(frozen=True)
class TrainingSet:
    """Labeled prototype vectors driving the distance-based evidence model.

    gamma holds one positive scale per class; when omitted it is fitted as
    the reciprocal of the mean pairwise distance among the prototypes of
    each class (classes with fewer than two prototypes, or zero spread,
    fall back to the global mean distance, computed only then, or to 1).
    """

    frame: Frame
    prototypes: np.ndarray  # (t, d)
    classes: np.ndarray  # (t,)
    k: int = 1
    alpha: float = 0.95
    gamma: np.ndarray | None = None

    def __post_init__(self) -> None:
        protos = np.array(self.prototypes, dtype=float)
        classes = self.frame.check_classes(self.classes)
        if protos.ndim != 2 or protos.shape[0] == 0:
            raise ValueError("prototypes must form a non-empty (t, d) matrix")
        if not np.all(np.isfinite(protos)):
            raise ValueError("prototypes must be finite")
        if classes.shape != (protos.shape[0],):
            raise ValueError("one class per prototype is required")
        if isinstance(self.k, bool) or not isinstance(self.k, Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if not 1 <= self.k <= protos.shape[0]:
            raise ValueError("k must lie between 1 and the number of prototypes")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.gamma is None:
            gamma = default_gamma(protos, classes, self.frame.n)
        else:
            gamma = np.array(self.gamma, dtype=float)
            if gamma.shape != (self.frame.n,):
                raise ValueError("one gamma per class is required")
            if gamma.min() <= 0.0 or not np.all(np.isfinite(gamma)):
                raise ValueError("gamma scales must be positive and finite")
        for arr in (protos, classes, gamma):
            arr.setflags(write=False)
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "gamma", gamma)

    @property
    def size(self) -> int:
        return self.prototypes.shape[0]


def _mean_pairwise_distance(x: np.ndarray) -> float | None:
    """Mean Euclidean distance over all point pairs; None if degenerate.

    Pairs are summed one block of rows at a time, in two buffers allocated
    once per call, so memory stays bounded by _BLOCK_FLOATS whatever the
    number of points.
    """
    t = x.shape[0]
    if t < 2:
        return None
    sq = np.sum(x * x, axis=1)
    rows = max(1, min(t, _BLOCK_FLOATS // t))
    gram, dist = np.empty(rows * t), np.empty(rows * t)
    lower = np.tri(rows, dtype=bool)
    total = 0.0
    for a in range(0, t - 1, rows):
        b = min(a + rows, t)
        # Row i of the block against points a.. : sq_i + sq_j - 2 x_i.x_j,
        # with the pairs j <= i (the block's lower triangle) zeroed.
        g = np.matmul(x[a:b], x[a:].T, out=_head(gram, b - a, t - a))
        g *= 2.0
        d = np.add(sq[a:b, None], sq[None, a:], out=_head(dist, b - a, t - a))
        d -= g
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        np.copyto(d[:, : b - a], 0.0, where=lower[: b - a, : b - a])
        total += float(d.sum())
    mean = total / (t * (t - 1) / 2)
    return mean if mean > 0.0 else None


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a flat buffer, viewed with the given shape."""
    return buf[: math.prod(shape)].reshape(shape)


def default_gamma(
    prototypes: np.ndarray, classes: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-class distance scales from mean within-class pairwise distances."""
    means = [
        _mean_pairwise_distance(prototypes[classes == c]) for c in range(n_classes)
    ]
    global_mean = _mean_pairwise_distance(prototypes) if None in means else None
    fallback = 1.0 / global_mean if global_mean is not None else 1.0
    return np.array([fallback if mean is None else 1.0 / mean for mean in means])


def denoeux_mass(x: Sequence[float], t: int, ts: TrainingSet) -> MassFunction:
    """Evidence from one prototype: support for its class, rest on the frame.

    The support is alpha * exp(-gamma_i * d^2) with d the Euclidean distance
    between the query and the prototype, so a coincident prototype commits
    alpha to its class and a remote one commits nothing.
    """
    x = np.asarray(x, dtype=float)
    if not 0 <= t < ts.size:
        raise ValueError(f"prototype index {t} out of range")
    proto = ts.prototypes[t]
    if x.shape != proto.shape:
        raise ValueError(f"query of shape {x.shape} does not match {proto.shape}")
    d2 = float(np.sum((x - proto) ** 2))
    i = int(ts.classes[t])
    support = ts.alpha * math.exp(-float(ts.gamma[i]) * d2)
    return MassFunction(
        ts.frame,
        [(ts.frame.singleton(i), support), (ts.frame.full(), 1.0 - support)],
    )


def denoeux_classify_mass(x: Sequence[float], ts: TrainingSet) -> MassFunction:
    """Combined evidence of the k prototypes nearest to the query.

    Distance ties are broken toward the lower prototype index, which keeps
    classification deterministic.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != ts.prototypes.shape[1:]:
        raise ValueError(
            f"query of shape {x.shape} does not match {ts.prototypes.shape[1:]}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("query must be finite")
    diff = ts.prototypes - x
    d2 = np.einsum("td,td->t", diff, diff)
    nearest = np.argsort(d2, kind="stable")[: ts.k]
    return combine_all([denoeux_mass(x, int(t), ts) for t in nearest])


# Candidates taken per query beyond k by the fast distance; with a margin
# check, they make the exact (distance, index) order of the k nearest safe.
_CANDIDATE_SLACK = 8
# Candidates rank by |p|^2 - 2 x.p; the outside value adds |x|^2 back. It errs
# against the exact d^2 by at most (4 d + 6) u (u = 2**-53: dot products, the
# sub and add, the exact path) of |x|^2 + |p|^2, below 1e-10 for d up to 2e5.
_FAST_D2_RTOL = 1e-10
# Top-two pignistic values closer than this, in units of the total mass 1,
# are a near tie. Rounding moves them by a few 1e-16 of that unit however
# small they are, also where the scalar path rounds an input mass otherwise
# (np.exp and math.exp can differ in the last bit).
_TIE_RTOL = 1e-9


def denoeux_decide_batch(
    queries: np.ndarray, ts: TrainingSet
) -> tuple[np.ndarray, np.ndarray]:
    """Evidential k-NN decisions and conflict masses for many queries.

    Row by row this agrees with ``decide_pignistic(denoeux_classify_mass(x,
    ts))``: the same decision (-1 for the conflict class) and the same
    conflict mass up to rounding. The k nearest prototypes are found by
    matrix products and ordered by (exact squared distance, index). Each
    neighbour's simple support s is the mass triple (s, 0, 1 - s), combined
    by the closed form of ``_decide_triples`` (with it, m({i}) = S_i
    prod_{j != i} (1 - S_j) for S_i = 1 - prod(1 - s) over the neighbours of
    class i, as in Denoeux 1995). Rows where a prototype outside the
    candidates may tie with the k-th neighbour go to the scalar path too.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1:] != ts.prototypes.shape[1:]:
        raise ValueError(
            f"queries of shape {queries.shape} do not match prototypes of "
            f"shape {ts.prototypes.shape}"
        )
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries must be finite")
    nearest, d2, unsafe = _k_nearest(queries, ts.prototypes, ts.k)
    classes = ts.classes[nearest]
    support = ts.alpha * np.exp(-ts.gamma[classes] * d2)
    masses = np.stack([support, np.zeros_like(support), 1.0 - support])

    def scalar(r: int) -> MassFunction:
        return denoeux_classify_mass(queries[r], ts)

    keys = np.arange(queries.shape[0])
    return _decide_triples(classes, masses, ts.frame.n, keys, scalar, unsafe)


def _k_nearest(
    x: np.ndarray, protos: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k nearest prototypes of each query row, with their squared distances.

    Query rows are taken one block at a time, and each block writes into
    buffers allocated once per call. The width = k + _CANDIDATE_SLACK
    prototypes of least fast distance are each row's candidates; their exact
    distances use the diff-and-einsum expression of denoeux_classify_mass and
    are ordered by (distance, index) like its stable sort. A row is flagged
    unsafe when a non-candidate may come within rounding of its k-th distance.
    """
    t, dim = protos.shape
    width = min(k + _CANDIDATE_SLACK, t)
    rows = max(1, _BLOCK_FLOATS // max(t, width * dim))
    nearest = np.empty((x.shape[0], k), dtype=np.intp)
    d2 = np.empty((x.shape[0], k))
    diffs = np.empty(rows * width * dim)
    if width < t:
        # -2 p is exact, so x.(-2 p) + |p|^2 ranks as |p|^2 - 2 x.p.
        scaled = np.ascontiguousarray(-2.0 * protos.T)
        psq = np.einsum("td,td->t", protos, protos)
        ranks = np.empty(rows * t)
        outside = np.empty(x.shape[0])
    else:
        cand = np.broadcast_to(np.arange(t), (rows, t))
    for a in range(0, x.shape[0], rows):
        block = x[a : a + rows]
        n = block.shape[0]
        if width < t:
            rank = np.matmul(block, scaled, out=_head(ranks, n, t))
            rank += psq
            part = np.argpartition(rank, width, axis=1)
            cand = part[:, :width]
            outside[a : a + n] = np.take_along_axis(rank, part[:, width, None], 1)[:, 0]
        # mode="clip" writes straight into out; every index is in range.
        diff = _head(diffs, n, width, dim)
        np.take(protos, cand[:n], axis=0, out=diff, mode="clip")
        diff -= block[:, None, :]
        dist = np.einsum("bcd,bcd->bc", diff, diff)
        order = np.lexsort((cand[:n], dist), axis=1)[:, :k]
        nearest[a : a + n] = np.take_along_axis(cand[:n], order, axis=1)
        d2[a : a + n] = np.take_along_axis(dist, order, axis=1)
    if width == t:
        return nearest, d2, np.zeros(x.shape[0], dtype=bool)
    xsq = np.einsum("bd,bd->b", x, x)
    slack = _FAST_D2_RTOL * (xsq + psq.max())
    return nearest, d2, outside + xsq - slack <= d2[:, -1]


# ---------------------------------------------------------------------------
# Closed-form combination shared by both evidence models


def _decide_triples(
    classes: np.ndarray,
    masses: np.ndarray,
    n: int,
    keys: np.ndarray,
    scalar: Callable[..., MassFunction],
    unsure: np.ndarray | bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Decisions and conflict masses for rows of mass triples, one per source.

    In row r, source j puts masses[:, r, j] = (a, b, g) on {classes[r, j]},
    its complement and the frame; a Denoeux neighbour's simple support s is
    the triple (s, 0, 1 - s). Rows flagged ``unsure`` by the caller, or by
    the closed form, are decided by ``scalar(keys[r])`` instead, once per
    distinct key.
    """
    decided = np.empty(classes.shape[0], dtype=np.int64)
    conflict = np.empty(classes.shape[0])
    flagged = np.empty(classes.shape[0], dtype=bool)
    # The quadrature holds (n + 1) // 2 values per class and row.
    rows = max(1, _BLOCK_FLOATS // n**2)
    for a in range(0, classes.shape[0], rows):
        block = slice(a, a + rows)
        decided[block], conflict[block], flagged[block] = _closed_form(
            classes[block], masses[:, block], n
        )
    unsure = np.flatnonzero(unsure | flagged)
    distinct, inverse = np.unique(keys[unsure], axis=0, return_inverse=True)
    outcomes = np.empty((distinct.shape[0], 2))
    for p, key in enumerate(distinct):
        m = scalar(key)
        d = decide_pignistic(m)
        outcomes[p] = -1 if d.is_conflict else d.index, m.conflict_mass()
    decided[unsure], conflict[unsure] = outcomes[inverse.reshape(-1)].T
    return decided, conflict


def _closed_form(
    classes: np.ndarray, masses: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision, conflict mass and an unsure flag per row of mass triples.

    Over the sources that report class c let A_c = prod(a + g), B_c =
    prod(b + g) and U_c = prod(g), each 1 when no source reports c. The
    conjunctive combination has m({c}) = (A_c - U_c) prod_{d != c} B_d and
    m(frame minus S) = prod_{d in S} (B_d - U_d) prod_{d not in S} U_d for
    each set S of reported classes; the empty set takes the rest. The
    frame-minus-S sets not holding c give c the pignistic share
    sum_S m(frame minus S) / (n - |S|) = U_c * integral_0^1 prod_{d != c}
    (B_d - U_d + U_d x) dx, a polynomial of degree n - 1 that (n + 1) // 2
    Gauss-Legendre nodes integrate exactly.
    """
    a, b, g = masses
    at = (np.arange(classes.shape[0])[:, None], classes)
    big_a, big_b, big_u = (np.ones((classes.shape[0], n)) for _ in range(3))
    np.multiply.at(big_a, at, a + g)
    np.multiply.at(big_b, at, b + g)
    np.multiply.at(big_u, at, g)
    before, after = _prods_around(big_b)
    singles = (big_a - big_u) * before * after
    gap = big_b - big_u
    nodes, weights = _gauss_legendre((n + 1) // 2)
    poly = gap[:, None, :] + big_u[:, None, :] * nodes[:, None]
    below, above = _prods_around(poly.reshape(-1, n))
    shares = (below * above).reshape(poly.shape)
    bet = singles + big_u * np.einsum("k,rkc->rc", weights, shares)
    nonempty = singles.sum(axis=1) + before[:, -1] * big_b[:, -1] - np.prod(gap, axis=1)
    conflict = np.maximum(1.0 - nonempty, 0.0)
    decided = np.where(nonempty > 0.0, np.argmax(bet, axis=1), -1)
    # Top-two pignistic values within _TIE_RTOL may be ordered either way by
    # rounding; with one class there is no second.
    top2 = np.sort(bet, axis=1)[:, -2:]
    unsure = (n > 1) & (top2[:, -1] - top2[:, 0] <= _TIE_RTOL)
    return decided, conflict, unsure


@cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Count-point Gauss-Legendre nodes and weights on [0, 1], exact below
    degree 2 * count, by Newton steps to the Legendre roots (numpy's leggauss
    would import numpy.polynomial, about 1.3 MB more resident memory)."""
    x = np.cos(np.pi * (np.arange(count) + 0.75) / (count + 0.5))
    for _ in range(8):
        p, q = x, np.ones(count)  # P_k(x) and P_{k-1}(x), from k = 1 up
        for k in range(2, count + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        slope = count * (x * p - q) / (x * x - 1.0)
        x = x - p / slope
    return (1.0 - x) / 2.0, 1.0 / ((1.0 - x * x) * slope * slope)


def _prods_around(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prod_{d < c} x[:, d] and prod_{d > c} x[:, d] for every column c."""
    ones = np.ones((x.shape[0], 1))
    before = np.cumprod(np.hstack([ones, x[:, :-1]]), axis=1)
    after = np.cumprod(np.hstack([ones, x[:, :0:-1]]), axis=1)[:, ::-1]
    return before, after
