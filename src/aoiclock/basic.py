"""Exact age-of-information analysis for the lossless, phase-aligned model.

Three periodic agents share a slotted clock: a source that regenerates its
value every ``b_period`` slots, a link that forwards the freshest value every
``n_period`` slots, and a reader that samples every ``a_period`` slots.  In
this model generation, forwarding and delivery are instantaneous, all three
schedules start at slot 0, and nothing is ever lost.

The age seen at the k-th read has a closed form built from floored moduli,
``kernels._seq``, which ``sequence_basic`` evaluates over a run of reads.
Over one hyperperiod its multiset of values decomposes into a small family
of arithmetic progressions, whose starts ``_start`` gives.  That family
gives the exact expectation, a two-sided band around it, and a hard upper
bound without enumerating anything.  The age formula and the family take a
shift triple (s_b, s_n, base), zero here, which ``extended`` sets for its
buffered, lossy model.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from . import kernels

__all__ = [
    "ConfigError",
    "NullSequenceError",
    "PeriodDecomposition",
    "AoiDistribution",
    "BandedValue",
    "decompose",
    "sequence_basic",
    "distribution_basic",
    "expected_exact_basic",
    "expected_approx_basic",
    "rel_error_bound_basic",
    "max_bound_basic",
]


class ConfigError(ValueError):
    """Raised for period combinations the theory does not cover."""


class NullSequenceError(ValueError):
    """Raised when the age is identically zero and relative error is undefined."""


@dataclass(frozen=True)
class PeriodDecomposition:
    """The three periods split into shared and private factors.

    Built from the periods alone, which derive the six factors:
    a = gcd(b_period, n_period), b = gcd(a_period, b_period) and
    n = gcd(a_period, n_period) are the pairwise shared factors; A, B, N are
    the private cofactors, so a_period = A*b*n, b_period = B*b*a and
    n_period = N*n*a.  Requires gcd(a_period, b_period, n_period) == 1, which
    also makes A, B, N pairwise coprime to the factors they sit next to.
    """

    a_period: int
    b_period: int
    n_period: int
    A: int = field(init=False)
    B: int = field(init=False)
    N: int = field(init=False)
    a: int = field(init=False)
    b: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        ap, bp, np_ = self.a_period, self.b_period, self.n_period
        if min(ap, bp, np_) < 1:
            raise ConfigError("periods must be >= 1")
        b, n = gcd(ap, bp), gcd(ap, np_)
        g = gcd(b, np_)
        if g != 1:
            raise ConfigError(
                f"periods {ap}, {bp}, {np_} share the common divisor {g}; "
                f"divide all three by it (rescale the time axis) and retry"
            )
        a = gcd(bp, np_)
        set_ = object.__setattr__  # the type is frozen
        set_(self, "A", ap // (b * n))
        set_(self, "B", bp // (b * a))
        set_(self, "N", np_ // (n * a))
        set_(self, "a", a)
        set_(self, "b", b)
        set_(self, "n", n)

    @property
    def period(self) -> int:
        """Length of one age hyperperiod, counted in reads: a*B*N."""
        return self.a * self.B * self.N


def decompose(a_period: int, b_period: int, n_period: int) -> PeriodDecomposition:
    """Split the periods into shared/private factors, rejecting common divisors.

    A common factor of all three periods would leave whole residue classes of
    slots unused; rescale the time axis (divide all periods by the factor)
    instead of modelling it.
    """
    return PeriodDecomposition(a_period, b_period, n_period)


@dataclass(frozen=True)
class BandedValue:
    """An exact center with a symmetric half-width: value in [c - w, c + w]."""

    center: Fraction
    half_width: Fraction

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")

    @property
    def low(self) -> Fraction:
        return self.center - self.half_width

    @property
    def high(self) -> Fraction:
        return self.center + self.half_width

    def contains(self, x) -> bool:
        return self.low <= x <= self.high


@dataclass(frozen=True, eq=False)
class AoiDistribution:
    """Multiset of age values as a progression family of one step and count.

    The multiset is the union of the progressions <s, ``step``, ``count``>,
    one per entry s of ``starts``: every progression of a hyperperiod's
    family has the step a*b and the count B, so its a*N starts describe it.
    Starts given as anything but an int64 array are read as Python ints and
    built by ``kernels._fit`` under their own maximum: an int64 array where
    every start fits, and an object array of Python ints otherwise.
    ``min``, ``max`` and ``mean`` follow from the array in O(len(starts)),
    however long the hyperperiod is; the mean sums it with
    ``kernels.exact_sum``.  ``to_sorted_array`` and ``values``
    (value -> multiplicity) expand the family in O(period) time and memory,
    through ``kernels._fit``, so they stay exact past int64; ``values`` is
    cached from its first access on.
    """

    starts: np.ndarray
    step: int
    count: int

    def __post_init__(self):
        starts = np.asarray(self.starts)
        if starts.dtype != np.int64:
            ints = [operator.index(s) for s in self.starts]
            (starts,) = kernels._fit(max(map(abs, ints), default=0), ints)
        if len(starts) and starts.min() < 0:
            raise ValueError(f"starts must be >= 0, got {starts.min()}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        starts = starts.view()
        starts.flags.writeable = False
        object.__setattr__(self, "starts", starts)

    @property
    def period(self) -> int:
        """Number of values in the multiset: reads in one hyperperiod."""
        return len(self.starts) * self.count

    @cached_property
    def values(self) -> Counter:
        values, counts = np.unique(self.to_sorted_array(), return_counts=True)
        return Counter(dict(zip(values.tolist(), counts.tolist())))

    def min(self) -> int:
        return int(self.starts.min())

    def max(self) -> int:
        return int(self.starts.max()) + self.step * (self.count - 1)

    def mean(self) -> Fraction:
        # each progression adds step * (0 + 1 + ... + count - 1) to count starts
        offsets = len(self.starts) * (self.count * (self.count - 1) // 2)
        return Fraction(self.count * kernels.exact_sum(self.starts) + self.step * offsets,
                        self.period)

    def to_sorted_array(self) -> np.ndarray:
        """The multiset as a sorted array, built from the starts array: int64
        where every value is below 2^63, and Python ints otherwise."""
        bound = kernels._max_abs(self.starts) + self.step * self.count
        starts, offsets = kernels._fit(bound, self.starts, np.arange(self.count))
        out = (starts[:, None] + offsets * self.step).ravel()
        out.sort()
        return out


def _start(d: PeriodDecomposition, i, j, shifts=(0, 0, 0)):
    """Start of progression (i, j) of the family for the shift triple (s_b, s_n, base).

    base + r_ab + ceil((r_an - r_ab + j*a*n) / (a*b)) * a*b, the ceiling
    written as a negated floor.  ``i`` and ``j`` are ints, or arrays that
    broadcast together and hold every intermediate value (``_family``).
    """
    s_b, s_n, base = shifts
    ab = d.a * d.b
    an = d.a * d.n
    r_ab = (i * d.a_period - s_b) % ab
    r_an = (i * d.a_period - s_n) % an
    return base + r_ab - (r_ab - r_an - j * an) // ab * ab


def _family(d: PeriodDecomposition, shifts=(0, 0, 0)) -> AoiDistribution:
    """The a*N progressions <_start(d, i, j, shifts), a*b, B> of one hyperperiod
    of ages, i-major, from one array evaluation of ``_start``."""
    ab = d.a * d.b
    # no intermediate of _start is larger in magnitude; past int64 the
    # arithmetic runs on Python ints
    bound = d.a * d.a_period + sum(map(abs, shifts)) + 2 * ab + d.a * d.n + d.n_period
    i, j = kernels._fit(bound, np.arange(d.a)[:, None], np.arange(d.N))
    return AoiDistribution(_start(d, i, j, shifts).ravel(), ab, d.B)


def sequence_basic(d: PeriodDecomposition, start_cycle: int, count: int) -> np.ndarray:
    """Ages at reads start_cycle, ..., start_cycle + count - 1 as int64."""
    kernels.check_sequence_args(d.a_period, d.b_period, d.n_period, 0, 0, 0, start_cycle, count)
    return kernels.seq_basic(d.a_period, d.b_period, d.n_period, start_cycle, count)


def distribution_basic(d: PeriodDecomposition) -> AoiDistribution:
    """Exact age distribution over one hyperperiod, from the progression family."""
    return _family(d)


def expected_exact_basic(d: PeriodDecomposition) -> Fraction:
    """Exact mean age: one hyperperiod's age sum, a floor sum at zero shifts, over its reads."""
    (total,) = kernels._period_sums(d.a_period, d.b_period, d.n_period, d.period, [(0, 0, 0)])
    return Fraction(total, d.period)


def _band(d: PeriodDecomposition, offset=0) -> BandedValue:
    """Band (B' + N' - n)/2 + offset +- a*b/2."""
    return BandedValue(Fraction(max_bound_basic(d), 2) + offset, Fraction(d.a * d.b, 2))


def _rel_error_bound(d: PeriodDecomposition, offset=0) -> Fraction:
    """a*b/2 over the low end (B-1)*a*b/2 + n*(a*N - 1)/2 + offset of ``_band(d, offset)``."""
    denom = max_bound_basic(d) - d.a * d.b + 2 * offset
    if denom == 0:
        raise NullSequenceError("age sequence is identically zero; relative error is unbounded")
    return Fraction(d.a * d.b) / denom


def expected_approx_basic(d: PeriodDecomposition) -> BandedValue:
    """Two-sided band (B' + N' - n)/2 +- a*b/2 around the exact mean."""
    return _band(d)


def rel_error_bound_basic(d: PeriodDecomposition) -> Fraction:
    """Worst-case relative error of the band center against the exact mean.

    Undefined when the age is identically zero (B == 1 and a*N == 1), the
    only case where the exact mean vanishes.
    """
    return _rel_error_bound(d)


def max_bound_basic(d: PeriodDecomposition) -> int:
    """Hard upper bound on any age: B' + N' - n."""
    return d.b_period + d.n_period - d.n
