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
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .frame import (
    CONFLICT, SUM_TOL, Decision, FocalSet, Frame, check_integer, check_number
)

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
            if not math.isfinite(value):
                raise ValueError(f"mass {value} on {fs!r} must be finite")
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
    the true class is i, alpha[j, i] a discount moving mass toward
    ignorance for shaky sources, and r[j], derived from cond_prob, the
    reciprocal of source j's best rate.
    """

    frame: Frame
    cond_prob: np.ndarray  # (m, n)
    alpha: np.ndarray  # (m, n)
    r: np.ndarray = field(init=False)  # (m,)

    def __post_init__(self) -> None:
        cond = check_number("cond_prob", np.array(self.cond_prob), 0, 1)
        alpha = check_number("alpha", np.array(self.alpha), 0, 1)
        if cond.ndim != 2 or cond.shape[1] != self.frame.n:
            raise ValueError("cond_prob must be an (m, n) matrix over the frame")
        if alpha.shape != cond.shape:
            raise ValueError("alpha shape must match cond_prob")
        maxes = cond.max(axis=1)
        if np.any(maxes <= 0.0):
            raise ValueError(
                "every source needs one class it recognizes with positive probability"
            )
        r = 1.0 / maxes
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
    flags are combined from their own sources' masses, each built once per
    (source, label) in a call.
    """
    frame, m = params.frame, params.m_sources
    labels = frame.check_classes(labels)
    if labels.ndim != 2 or labels.shape[1] != m:
        raise ValueError(f"labels of shape {labels.shape} do not match {m} sources")
    # (3, m, n) mass tables, with the floating-point operations of appriou_mass.
    r = params.r[:, None]
    tables = np.stack(appriou_raw_masses(params.cond_prob, r, params.alpha, as_printed))
    if as_printed:
        tables /= tables.sum(axis=0)
    masses = tables[:, np.arange(m), labels]

    mass = cache(partial(appriou_mass, params=params, as_printed=as_printed))
    return _decide_triples(
        labels, masses, frame.n, lambda r, j: mass(j, int(labels[r, j]))
    )


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
        _check_coordinates("prototypes", protos)
        if classes.shape != (protos.shape[0],):
            raise ValueError("one class per prototype is required")
        object.__setattr__(self, "k", check_integer("k", self.k, 1))
        if self.k > protos.shape[0]:
            raise ValueError("k must lie between 1 and the number of prototypes")
        object.__setattr__(self, "alpha", check_number("alpha", self.alpha, 0, 1))
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


def _check_coordinates(name: str, points: np.ndarray) -> None:
    """ValueError unless every coordinate is finite and at most 2**510 /
    sqrt(d) in magnitude, d the length of the last axis: two such points then
    differ by at most 2**511 / sqrt(d) per coordinate, and their squared
    distance, at most 2**1022, cannot overflow."""
    top = _magnitude(points)
    if not math.isfinite(top):
        raise ValueError(f"{name} must be finite")
    dim = points.shape[-1]
    limit = math.ldexp(1.0, 510) / math.sqrt(max(dim, 1))
    if top > limit:
        raise ValueError(
            f"{name} must have every coordinate within 2**510 / sqrt(d) = "
            f"{limit:.6g} of 0 (d = {dim}), so that no squared distance overflows"
        )


def _magnitude(points: np.ndarray) -> float:
    """The largest |coordinate| of the points (0 if there are none), or NaN if
    one is NaN, without a temporary array."""
    return float(max(-points.min(initial=0.0), points.max(initial=0.0)))


def _scale_exponent(*points: np.ndarray) -> int:
    """The s for which 2**s maps the points' largest magnitude m 2**-s (m in
    [0.5, 1)) to m. s is at most 1023, so 2**s is finite, and subnormal data
    scale to below 0.5. The scaling is exact but for values it takes below
    the normal range."""
    return min(-math.frexp(max(_magnitude(p) for p in points))[1], 1023)


def _mean_pairwise_distance(
    x: np.ndarray, buffers: tuple[np.ndarray, np.ndarray] | None = None
) -> float | None:
    """Mean Euclidean distance over all point pairs; None if degenerate.

    Pairs are summed one block of rows at a time, each row against the points
    from the block's first on. One matrix product,
    [x_i, |x_i|^2, 1] . [-2 x_j, 1, |x_j|^2], gives the block's squared
    distances in a flat buffer of at least max(_BLOCK_FLOATS, t) floats, with
    a boolean buffer of the same size; the caller may pass them, so memory
    stays bounded whatever the number of points. The points are first scaled
    by 2**s of ``_scale_exponent``, and the mean back by 2**-s, so squared
    distances of tiny coordinates do not underflow; a mean whose reciprocal
    is not finite, as for subnormal data, counts as degenerate. In the
    scaled coordinates, the product errs by at most
    4 (d + 2) u (|x_i|^2 + |x_j|^2 + tiny), u = 2**-53 and tiny the least
    normal float (the d + 2 terms of the product, the d of each |x|^2, and
    their underflow), and a squared distance within that bound counts as 0,
    so repeated points have zero spread, real-valued or not. The block's
    leading square holds each of its pairs twice, and counts half.
    """
    t, dim = x.shape
    if t < 2:
        return None
    s = _scale_exponent(x)
    x = x * math.ldexp(1.0, s)
    sq = np.einsum("td,td->t", x, x)
    left = np.empty((t, dim + 2))
    left[:, :dim], left[:, dim], left[:, dim + 1] = x, sq, 1.0
    right = np.empty((dim + 2, t))
    right[:dim], right[dim], right[dim + 1] = -2.0 * x.T, 1.0, sq
    rtol, tiny = 4 * (dim + 2) * 2.0**-53, np.finfo(float).tiny
    # Per row, the largest bound of its pairs: only rows with an entry at or
    # below it are searched for the entries within their own bound.
    row_bound = rtol * (sq + sq.max() + tiny)
    rows = max(1, min(t, _BLOCK_FLOATS // t))
    if buffers is None:
        buffers = np.empty(rows * t), np.empty(rows * t, dtype=bool)
    total = 0.0
    for a in range(0, t - 1, rows):
        n = min(rows, t - a)
        d2 = np.matmul(left[a : a + n], right[:, a:], out=_head(buffers[0], n, t - a))
        # A point and itself, entry (i, a + i), is left out of the search.
        diagonal = d2.reshape(-1)[:: t - a + 1][:n]
        diagonal[:] = np.inf
        if np.any(d2.min(axis=1) <= row_bound[a : a + n]):
            low = np.less_equal(
                d2, row_bound[a : a + n, None], out=_head(buffers[1], n, t - a)
            )
            i, j = np.divmod(np.flatnonzero(low), t - a)
            zero = d2[i, j] <= rtol * (sq[a + i] + sq[a + j] + tiny)
            d2[i[zero], j[zero]] = 0.0
        diagonal[:] = 0.0
        np.sqrt(d2, out=d2)
        total += float(d2.sum()) - 0.5 * float(d2[:, :n].sum())
    mean = math.ldexp(total / (t * (t - 1) / 2), -s)
    return mean if mean > 0.0 and 1.0 / mean < math.inf else None


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a flat buffer, viewed with the given shape."""
    return buf[: math.prod(shape)].reshape(shape)


def default_gamma(
    prototypes: np.ndarray, classes: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-class distance scales from mean within-class pairwise distances.

    All classes, and the global fallback, sum their pairs in one pair of
    block buffers.
    """
    floats = max(_BLOCK_FLOATS, prototypes.shape[0])
    bufs = np.empty(floats), np.empty(floats, dtype=bool)
    means = [
        _mean_pairwise_distance(prototypes[classes == c], bufs)
        for c in range(n_classes)
    ]
    global_mean = _mean_pairwise_distance(prototypes, bufs) if None in means else None
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
    _check_coordinates("query", x)
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
    _check_coordinates("query", x)
    diff = ts.prototypes - x
    d2 = np.einsum("td,td->t", diff, diff)
    nearest = np.argsort(d2, kind="stable")[: ts.k]
    return combine_all([denoeux_mass(x, int(t), ts) for t in nearest])


# Prototypes per group in the k-NN search, which makes at least k groups. A
# query compares the group minima first, and searches in full only the groups
# that may hold one of its k nearest.
_GROUP = 16
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
    conflict mass up to rounding. ``_k_nearest`` finds the same k nearest
    prototypes as the scalar stable sort, distance ties included. Each
    neighbour's simple support s is the mass triple (s, 0, 1 - s), combined
    by the closed form of ``_decide_triples`` (with it, m({i}) = S_i
    prod_{j != i} (1 - S_j) for S_i = 1 - prod(1 - s) over the neighbours of
    class i, as in Denoeux 1995); rows it flags are combined from
    ``denoeux_mass`` of the same k neighbours, so they get the mass function
    of ``denoeux_classify_mass`` without a second search.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1:] != ts.prototypes.shape[1:]:
        raise ValueError(
            f"queries of shape {queries.shape} do not match prototypes of "
            f"shape {ts.prototypes.shape}"
        )
    _check_coordinates("queries", queries)
    nearest, d2 = _k_nearest(queries, ts.prototypes, ts.k)
    classes = ts.classes[nearest]
    support = ts.alpha * np.exp(-ts.gamma[classes] * d2)
    masses = np.stack([support, np.zeros_like(support), 1.0 - support])
    mass = partial(denoeux_mass, ts=ts)
    return _decide_triples(
        classes, masses, ts.frame.n, lambda r, j: mass(queries[r], nearest[r, j])
    )


def _k_nearest(
    x: np.ndarray, protos: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest prototypes of each query row, with their squared distances.

    The order is by (exact squared distance, index), like the stable sort of
    denoeux_classify_mass. Query rows are taken one block at a time, and each
    block ranks all prototypes in float32, by one matrix product into a
    buffer allocated once per call. Group g holds the prototypes g, g +
    groups, ..., so the block's ranks viewed as (size, groups, rows) give the
    group minima as the elementwise minimum of size contiguous slabs. The
    groups whose minimum is within the margin derived below, and in them the
    prototypes within it, are the candidates: every prototype among the k
    nearest or tied with the k-th is one. Their exact distances use the
    diff-and-einsum expression of denoeux_classify_mass.
    """
    t, dim = protos.shape
    groups = max(k, -(-t // _GROUP))
    size = -(-t // groups)
    width = groups * size
    # Queries and prototypes are scaled by 2**s of _scale_exponent, which puts
    # their largest magnitude in [0.5, 1); values far below it may still fall
    # out of float32's range. X and P denote the scaled float64 values.
    s = _scale_exponent(protos, x)
    queries, scaled = x * math.ldexp(1.0, s), protos * math.ldexp(1.0, s)
    psq = np.einsum("td,td->t", scaled, scaled)
    # One float32 product of [-2 P, |P|^2] and [X, 1] ranks each prototype by
    # |P|^2 - 2 X.P, leaving out the |X|^2 shared by all prototypes of one
    # query. Padding ranks at the largest float32, above every bound below
    # (+inf there met zeros inside the product, and inf * 0 is NaN), and
    # group g always holds the prototype g.
    left = np.empty((dim + 1, x.shape[0]), dtype=np.float32)
    left[:dim], left[dim] = queries.T, 1.0
    right = np.zeros((width, dim + 1), dtype=np.float32)
    right[:t, :dim], right[:t, dim] = -2.0 * scaled, psq
    right[t:, dim] = np.finfo(np.float32).max
    # The margin. With u = 2**-24 and tau = 2**-126, the least normal float32,
    # below which any value may be flushed to 0:
    # * rounding X, P and |P|^2 (summed in float64) to float32 moves a rank by
    #   at most (3 u + O(u^2)) (|X|^2 + |P|^2) + (5 d + 1) tau;
    # * the product, d + 1 terms summed in any order, errs by at most
    #   gamma_{d+1} = (d + 1) u / (1 - (d + 1) u) times the sum of the terms'
    #   magnitudes, which is at most (2 + 4 u) (|X|^2 + |P|^2) + (5 d + 1) tau,
    #   plus (3 d + 2) tau for products and sums flushed to 0.
    # For d + 1 <= 2**22, gamma_{d+1} <= 4/3 (d + 1) u, and as |P|^2 <= max
    # |P|^2 a rank errs by at most r = rtol (|X|^2 + max |P|^2) + atol, with
    # rtol = (3 d + 8) u and atol = (12 d + 8) tau. That leaves (0.3 d + 2) u
    # for the float64 roundings of the exact d^2 (relative (d + 3) 2**-53) and
    # of the bound below. Where its squares underflow, the exact d^2 of the
    # diff-and-einsum expression also loses up to d 2**-1022, d 2**(2 s - 1022)
    # once scaled; let e be twice that. Let g_k be a query's k-th smallest
    # group minimum. Every group holds a prototype, which ranks below padding,
    # so k distinct prototypes rank at most g_k: their true d^2 are at most g_k
    # + |X|^2 + r, and the computed k-th distance at most that plus e / 2.
    # Every prototype computed at that distance or nearer (the k nearest, and
    # all that tie with the k-th) has a true d^2 of at most g_k + |X|^2 + r +
    # e, and ranks at most g_k + 2 r + e <= g_k + 2 s_x, s_x = r + e. Adding
    # g_k and 2 s_x rounds once, and cannot leave such a prototype out:
    # rounding is monotone and a rank is a float, so rank <= g_k + 2 s_x gives
    # rank <= fl(g_k + 2 s_x). Prototypes rank in [-d, 3 d], so e is capped at
    # 8 d, where g_k + 2 s_x already exceeds them all.
    rtol = (3 * dim + 8) * 2.0**-24
    atol = (12 * dim + 8) * 2.0**-126 + math.ldexp(dim, min(2 * s - 1021, 3))
    xsq = np.einsum("bd,bd->b", queries, queries)
    slack = 2.0 * (rtol * (xsq + psq.max()) + atol)
    # A block holds 2 _BLOCK_FLOATS float32 ranks, the bytes of _BLOCK_FLOATS
    # float64s, and k d candidate differences a row fit in _BLOCK_FLOATS too.
    rows = max(1, 2 * _BLOCK_FLOATS // max(width, 2 * k * dim))
    ranks = np.empty(rows * width, dtype=np.float32)
    nearest = np.empty((x.shape[0], k), dtype=np.intp)
    d2 = np.empty((x.shape[0], k))
    for a in range(0, x.shape[0], rows):
        block = x[a : a + rows]
        n = block.shape[0]
        rank = np.matmul(right, left[:, a : a + n], out=_head(ranks, width, n))
        slabs = rank.reshape(size, groups, n)
        least = slabs.min(axis=0)
        bound = np.partition(least, k - 1, axis=0)[k - 1] + slack[a : a + n]
        group, row = np.divmod(np.flatnonzero(least <= bound), n)
        kept = slabs[:, group, row] <= bound[row]
        member, pick = np.divmod(np.flatnonzero(kept), group.size)
        row, col = row[pick], member * groups + group[pick]
        diff = protos[col]
        diff -= block[row]
        dist = np.einsum("cd,cd->c", diff, diff)
        # Rows stay in order, and each has at least k candidates.
        order = np.lexsort((col, dist, row))
        counts = np.bincount(row, minlength=n)
        first = (np.cumsum(counts) - counts)[:, None] + np.arange(k)
        take = order[first]
        nearest[a : a + n] = col[take]
        d2[a : a + n] = dist[take]
    return nearest, d2


# ---------------------------------------------------------------------------
# Closed-form combination shared by both evidence models


def _decide_triples(
    classes: np.ndarray,
    masses: np.ndarray,
    n: int,
    source_mass: Callable[[int, int], MassFunction],
) -> tuple[np.ndarray, np.ndarray]:
    """Decisions and conflict masses for rows of mass triples, one per source.

    In row r, source j puts masses[:, r, j] = (a, b, g) on {classes[r, j]},
    its complement and the frame; a Denoeux neighbour's simple support s is
    the triple (s, 0, 1 - s). Rows whose top two pignistic values the closed
    form flags as a near tie are decided by the scalar conjunctive rule
    instead, over source_mass(r, j) for each source j of the row.
    """
    decided = np.empty(classes.shape[0], dtype=np.int64)
    conflict = np.empty(classes.shape[0])
    flagged = np.empty(classes.shape[0], dtype=bool)
    # The quadrature's three (n, (n + 1) // 2, rows) arrays hold about
    # 1.5 n**2 floats a row; smaller blocks ran slower.
    rows = max(1, _BLOCK_FLOATS // (2 * n**2))
    for a in range(0, classes.shape[0], rows):
        block = slice(a, a + rows)
        decided[block], conflict[block], flagged[block] = _closed_form(
            classes[block], masses[:, block], n
        )
    for r in np.flatnonzero(flagged):
        m = combine_all([source_mass(r, j) for j in range(classes.shape[1])])
        d = decide_pignistic(m)
        decided[r], conflict[r] = -1 if d.is_conflict else d.index, m.conflict_mass()
    return decided, conflict


def _closed_form(
    classes: np.ndarray, masses: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision, conflict mass and a near-tie flag per row of mass triples.

    Over the sources that report class c let A_c = prod(a + g), B_c =
    prod(b + g) and U_c = prod(g), each 1 when no source reports c. The
    conjunctive combination has m({c}) = (A_c - U_c) prod_{d != c} B_d and
    m(frame minus S) = prod_{d in S} (B_d - U_d) prod_{d not in S} U_d for
    each set S of reported classes; the empty set takes the rest. The
    frame-minus-S sets not holding c give c the pignistic share
    sum_S m(frame minus S) / (n - |S|) = U_c * integral_0^1 prod_{d != c}
    (B_d - U_d + U_d x) dx, a polynomial of degree n - 1 that (n + 1) // 2
    Gauss-Legendre nodes integrate exactly.

    The products run class-major, on (n, rows) arrays, one source or class
    at a time in the order of a row-wise loop. Sums, products and sorts
    over the classes of a row run on C-contiguous (rows, n) copies, whose
    reductions add in the same order whatever the number of rows.
    """
    a, b, g = masses
    at = np.arange(classes.shape[0])
    big_a, big_b, big_u = np.ones((3, n, classes.shape[0]))
    for j, c in enumerate(classes.T):
        big_a[c, at] *= a[:, j] + g[:, j]
        big_b[c, at] *= b[:, j] + g[:, j]
        big_u[c, at] *= g[:, j]
    singles = big_a - big_u
    prod_b = _times_others(singles, big_b)
    gap = big_b - big_u
    nodes, weights = _gauss_legendre((n + 1) // 2)
    others = np.ones((n, nodes.size, classes.shape[0]))
    _times_others(others, gap[:, None] + big_u[:, None] * nodes[:, None])
    bet = singles + big_u * np.einsum("k,ckr->cr", weights, others)
    singles, gap, bet = (np.ascontiguousarray(x.T) for x in (singles, gap, bet))
    nonempty = singles.sum(axis=1) + prod_b - np.prod(gap, axis=1)
    conflict = np.maximum(1.0 - nonempty, 0.0)
    decided = np.where(nonempty > 0.0, np.argmax(bet, axis=1), -1)
    # Top-two pignistic values within _TIE_RTOL may be ordered either way by
    # rounding; with one class there is no second.
    top2 = np.sort(bet, axis=1)[:, -2:]
    tie = (n > 1) & (top2[:, -1] - top2[:, 0] <= _TIE_RTOL)
    return decided, conflict, tie


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


def _times_others(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply out[c] in place by prod_{d < c} x[d], then by prod_{d > c}
    x[d], for every class c of the first axis, each product in the order of
    a cumulative product; return prod_d x[d], in the same order."""
    total, after = np.ones_like(x[0]), np.ones_like(x[0])
    for c in range(x.shape[0]):
        out[c] *= total
        total *= x[c]
    for c in range(x.shape[0] - 1, 0, -1):
        after *= x[c]
        out[c - 1] *= after
    return total
