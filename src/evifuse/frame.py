"""Frame of discernment, focal-set algebra, and shared decision types.

Every fusion method in this package works over the same frame: an ordered
tuple of mutually exclusive class labels. Subsets of the frame are stored
as integer bit sets, which keeps power-set manipulation cheap across the
supported frame widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Iterator

import numpy as np

MAX_CLASSES = 16

# How far a value that must be 1 (a sum of masses, weights or priors, or a
# possibility maximum) may be off.
SUM_TOL = 1e-9

# Largest seed numpy's SeedSequence takes as one unsigned 64-bit word.
MAX_SEED = 2**64 - 1

# The names of possibility.OPERATORS, here so that FusionSettings checks an
# operator without loading the fusion modules.
POSSIBILITY_OPERATORS = ("min", "max", "mean", "median")


def check_integer(name: str, value, low: float = -math.inf) -> int:
    """value as an int; ValueError unless it is an integer other than a bool,
    and at least low."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


def check_number(name: str, value, low: float = -math.inf, high: float = math.inf):
    """value as a float, or an array of values as a float64 array (the same
    array if it is one); ValueError unless every value is a real number other
    than a bool, finite and in [low, high]."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)  # a Python or numpy scalar, checked without an array
        except OverflowError:  # an int beyond the largest float
            raise ValueError(f"{name} does not fit in a float") from None
        extremes = (x,)
    else:
        x = np.asarray(value)
        if x.dtype.kind not in "iuf":
            raise ValueError(f"{name} must be a number, got {value!r}")
        x = x.astype(np.float64, copy=False)
        extremes = (x.min(), x.max()) if x.size else ()  # a NaN propagates
        x = float(x) if x.ndim == 0 else x
    if not all(map(math.isfinite, extremes)):
        raise ValueError(f"{name} must be finite")
    if not all(low <= v <= high for v in extremes):
        raise ValueError(f"{name} must lie in [{low:g}, {high:g}]")
    return x


def check_seed(value) -> int:
    """value as an int; ValueError unless it is an integer in [0, MAX_SEED]."""
    seed = check_integer("seed", value)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def make_frame(labels: Iterable[str]) -> "Frame":
    """Build a frame from an ordered collection of distinct class names."""
    return Frame(tuple(labels))


@dataclass(frozen=True)
class Frame:
    """Ordered set of exclusive, exhaustive class labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("a frame needs at least one class")
        if len(labels) > MAX_CLASSES:
            raise ValueError(
                f"at most {MAX_CLASSES} classes are supported, got {len(labels)}"
            )
        if any(not isinstance(lbl, str) or not lbl for lbl in labels):
            raise ValueError("class labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise ValueError("class labels must be unique")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """Position of a class name within the frame."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown class label {label!r}") from None

    def check_class(self, k: int) -> int:
        """k as an int; ValueError unless it is a whole number in range."""
        if not isinstance(k, Integral) and not float(k).is_integer():
            raise ValueError(f"class index {k} is not an integer")
        k = int(k)
        if not 0 <= k < self.n:
            raise ValueError(f"class index {k} out of range for {self.n} classes")
        return k

    def check_classes(self, k) -> np.ndarray:
        """Array form of check_class: k as int64, the same array if it is
        one, or its error for the first bad index."""
        k = np.asarray(k)
        if k.dtype.kind in "biu" and (k.size == 0 or 0 <= k.min() <= k.max() < self.n):
            return k.astype(np.int64, copy=False)  # checked without a temporary
        bad = (k < 0) | (k >= self.n)
        if k.dtype.kind not in "biu":  # integers need no fraction check
            bad |= k != np.trunc(k)
        if bad.any():
            self.check_class(k[bad][0])
        return k.astype(np.int64)

    def empty(self) -> "FocalSet":
        return FocalSet(self, 0)

    def full(self) -> "FocalSet":
        return FocalSet(self, (1 << self.n) - 1)

    def singleton(self, k: int) -> "FocalSet":
        return FocalSet(self, 1 << self.check_class(k))

    def subset(self, members: Iterable[int | str]) -> "FocalSet":
        """Focal set from a mix of class indices and class names."""
        bits = 0
        for item in members:
            k = self.index(item) if isinstance(item, str) else self.check_class(item)
            bits |= 1 << k
        return FocalSet(self, bits)

    def subsets(self) -> Iterator["FocalSet"]:
        """All 2**n subsets of the frame, empty set first."""
        for bits in range(1 << self.n):
            yield FocalSet(self, bits)


@dataclass(frozen=True)
class FocalSet:
    """Subset of a frame stored as a bit set (bit k set <=> class k present)."""

    frame: Frame
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.frame.n):
            raise ValueError("bit set does not fit the frame width")

    def _check(self, other: "FocalSet") -> None:
        if self.frame != other.frame:
            raise ValueError("focal sets belong to different frames")

    def __and__(self, other: "FocalSet") -> "FocalSet":
        self._check(other)
        return FocalSet(self.frame, self.bits & other.bits)

    def __or__(self, other: "FocalSet") -> "FocalSet":
        self._check(other)
        return FocalSet(self.frame, self.bits | other.bits)

    def complement(self) -> "FocalSet":
        """Complement relative to the full frame."""
        return FocalSet(self.frame, self.bits ^ ((1 << self.frame.n) - 1))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, k: int) -> bool:
        return bool(self.bits >> self.frame.check_class(k) & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.frame.n) if self.bits >> k & 1)

    def members(self) -> tuple[str, ...]:
        return tuple(self.frame.labels[k] for k in self.indices())

    def is_empty(self) -> bool:
        return self.bits == 0

    def issubset(self, other: "FocalSet") -> bool:
        self._check(other)
        return self.bits | other.bits == other.bits

    def __repr__(self) -> str:
        return "{" + ", ".join(self.members()) + "}"


@dataclass(frozen=True)
class Decision:
    """Outcome of a fusion rule: a class index, or the added conflict class.

    The conflict value stands for the extra class appended to the frame when
    a rule cannot single out one of the regular classes.
    """

    index: int | None

    @property
    def is_conflict(self) -> bool:
        return self.index is None

    def label(self, frame: Frame) -> str:
        return "conflict" if self.index is None else frame.labels[self.index]

    def __repr__(self) -> str:
        return "Decision(conflict)" if self.index is None else f"Decision({self.index})"


CONFLICT = Decision(None)
