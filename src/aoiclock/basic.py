"""Exact age-of-information analysis for the lossless, phase-aligned model.

Three periodic agents share a slotted clock: a source that regenerates its
value every ``b_period`` slots, a link that forwards the freshest value every
``n_period`` slots, and a reader that samples every ``a_period`` slots.  In
this model generation, forwarding and delivery are instantaneous, all three
schedules start at slot 0, and nothing is ever lost.

The age seen at the k-th read has a closed form built from floored moduli,
and over one hyperperiod its multiset of values decomposes into a small
family of arithmetic progressions.  That family gives the exact expectation,
a two-sided band around it, and a hard upper bound without enumerating
anything.  The age formula and the family take a shift triple (s_b, s_n,
base), zero here, which ``extended`` sets for its buffered, lossy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

import numpy as np

from . import kernels
from .modmath import ArithmeticProgression, Multiset, ceil_div, floor_mod

__all__ = [
    "ConfigError",
    "NullSequenceError",
    "PeriodDecomposition",
    "AoiDistribution",
    "BandedValue",
    "decompose",
    "aoi_basic",
    "sequence_basic",
    "c_basic",
    "progressions_basic",
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

    a = gcd(b_period, n_period), b = gcd(a_period, b_period) and
    n = gcd(a_period, n_period) are the pairwise shared factors; A, B, N are
    the private cofactors, so a_period = A*b*n, b_period = B*b*a and
    n_period = N*n*a.  Requires gcd(a_period, b_period, n_period) == 1, which
    also makes A, B, N pairwise coprime to the factors they sit next to.
    """

    a_period: int
    b_period: int
    n_period: int
    A: int
    B: int
    N: int
    a: int
    b: int
    n: int

    def __post_init__(self):
        ap, bp, np_ = self.a_period, self.b_period, self.n_period
        if min(ap, bp, np_) < 1:
            raise ConfigError("periods must be >= 1")
        if gcd(gcd(ap, bp), np_) != 1:
            raise ConfigError("periods share a common divisor")
        ok = (
            self.a == gcd(bp, np_)
            and self.b == gcd(ap, bp)
            and self.n == gcd(ap, np_)
            and self.A * self.b * self.n == ap
            and self.B * self.b * self.a == bp
            and self.N * self.n * self.a == np_
        )
        if not ok:
            raise ConfigError("inconsistent decomposition")

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
    if min(a_period, b_period, n_period) < 1:
        raise ConfigError("periods must be >= 1")
    g = gcd(gcd(a_period, b_period), n_period)
    if g != 1:
        raise ConfigError(
            f"periods {a_period}, {b_period}, {n_period} share the common divisor {g}; "
            f"divide all three by it (rescale the time axis) and retry"
        )
    a = gcd(b_period, n_period)
    b = gcd(a_period, b_period)
    n = gcd(a_period, n_period)
    return PeriodDecomposition(
        a_period,
        b_period,
        n_period,
        a_period // (b * n),
        b_period // (b * a),
        n_period // (n * a),
        a,
        b,
        n,
    )


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


@dataclass(frozen=True)
class AoiDistribution:
    """Multiset of age values over ``period`` reads, as a progression family.

    The multiset is the union of ``progressions``.  ``min``, ``max`` and
    ``mean`` follow from the family in O(len(progressions)), a*N for one
    hyperperiod, however long the hyperperiod is.  ``values`` (value ->
    multiplicity) expands the family on first access, in O(period) time and
    memory, and is cached from then on.
    """

    progressions: tuple[ArithmeticProgression, ...]
    period: int

    def __post_init__(self):
        total = sum(pr.count for pr in self.progressions)
        if total != self.period:
            raise ValueError(f"progressions hold {total} values, period says {self.period}")

    @cached_property
    def values(self) -> Multiset:
        return Multiset(chain.from_iterable(pr.elements() for pr in self.progressions))

    def min(self) -> int:
        return min(pr.start for pr in self.progressions)

    def max(self) -> int:
        return max(pr.last() for pr in self.progressions)

    def mean(self) -> Fraction:
        return Fraction(sum(pr.sum() for pr in self.progressions), self.period)

    def to_sorted_array(self) -> np.ndarray:
        """The multiset as a sorted int64 array, built in place from the progressions."""
        start, step, count = np.array(
            [(pr.start, pr.step, pr.count) for pr in self.progressions], dtype=np.int64
        ).reshape(-1, 3).T
        out = np.arange(self.period, dtype=np.int64)
        out -= np.repeat(np.cumsum(count) - count, count)
        out *= np.repeat(step, count)
        out += np.repeat(start, count)
        out.sort()
        return out


def _age(d: PeriodDecomposition, k: int, shifts=(0, 0, 0)) -> int:
    """Age at the k-th read for the shift triple (s_b, s_n, base) of both models."""
    s_b, s_n, base = shifts
    t = k * d.a_period
    e = floor_mod(t - s_n, d.n_period)
    return base + e + floor_mod(floor_mod(t - s_b, d.b_period) - e, d.b_period)


def _start(d: PeriodDecomposition, i: int, j: int, shifts=(0, 0, 0)) -> int:
    """Start of progression (i, j) of the family for the shift triple (s_b, s_n, base)."""
    if not 0 <= i < d.a:
        raise ValueError(f"i must be in [0, {d.a}), got {i}")
    if not 0 <= j < d.N:
        raise ValueError(f"j must be in [0, {d.N}), got {j}")
    s_b, s_n, base = shifts
    ab = d.a * d.b
    an = d.a * d.n
    r_ab = floor_mod(i * d.a_period - s_b, ab)
    r_an = floor_mod(i * d.a_period - s_n, an)
    return base + r_ab + ceil_div(r_an - r_ab + j * an, ab) * ab


def _progressions(d: PeriodDecomposition, shifts=(0, 0, 0)) -> tuple[ArithmeticProgression, ...]:
    """The a*N progressions <_start(d, i, j), a*b, B> of one hyperperiod of ages."""
    ab = d.a * d.b
    return tuple(
        ArithmeticProgression(_start(d, i, j, shifts), ab, d.B)
        for i in range(d.a)
        for j in range(d.N)
    )


def aoi_basic(d: PeriodDecomposition, k: int) -> int:
    """Age at the k-th read: kA' mod N' + (kA' mod B' - kA' mod N') mod B'."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _age(d, k)


def sequence_basic(d: PeriodDecomposition, start_cycle: int, count: int) -> np.ndarray:
    """Ages at reads start_cycle, ..., start_cycle + count - 1 as int64."""
    kernels.check_sequence_args(d.a_period, d.b_period, d.n_period, 0, 0, 0, start_cycle, count)
    return kernels.seq_basic(d.a_period, d.b_period, d.n_period, start_cycle, count)


def c_basic(d: PeriodDecomposition, i: int, j: int) -> int:
    """Starting offset of progression (i, j) of the hyperperiod decomposition.

    Index ranges: 0 <= i < a, 0 <= j < N.  The (i, j) progression is
    <c_basic(d, i, j), a*b, B>.
    """
    return _start(d, i, j)


def progressions_basic(d: PeriodDecomposition) -> tuple[ArithmeticProgression, ...]:
    """The a*N progressions whose union is one hyperperiod of ages."""
    return _progressions(d)


def distribution_basic(d: PeriodDecomposition) -> AoiDistribution:
    """Exact age distribution over one hyperperiod, from the progression family."""
    return AoiDistribution(progressions_basic(d), d.period)


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
