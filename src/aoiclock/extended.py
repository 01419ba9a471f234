"""Age analysis for the buffered model with phase shifts and lossy delivery.

This variant drops the instantaneous-delivery idealization: the source needs
its full period to produce an update (timestamped at the start slot, ready
one slot after), the link needs a slot to deliver, transmissions start at
slot delta_n and succeed independently with probability p, and generation
starts at slot delta_b.  A failed transmission discards nothing; the link
simply retries with the freshest buffered update at its next slot.

Conditioning on l, the number of transmission slots since the last success,
the age at the k-th read is again a closed form in floored moduli, and for
each fixed l the hyperperiod multiset decomposes into arithmetic progressions
exactly as in the lossless model, shifted up by 2 + l*n_period and rephased
by the deltas.  The failures enter a hyperperiod only through
l*n_period mod a*b = a*(l*N*n mod b), and gcd(b, N*n) == 1, so the
conditional mean is l*n_period plus a part periodic in l with period b.
Marginalizing over the geometric distribution of l is therefore an exact
finite sum of b terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .basic import AoiDistribution, BandedValue, ConfigError, PeriodDecomposition, max_bound_basic
from .basic import _age, _band, _check_index, _family, _rel_error_bound, _start
from .kernels import _shifts

__all__ = [
    "SystemConfig",
    "GeometricExpectation",
    "aoi_conditional",
    "sequence_conditional",
    "c_extended",
    "distribution_conditional",
    "freshness_offset_K",
    "expected_approx_extended",
    "expected_exact_extended",
    "rel_error_bound_extended",
    "max_bound_lossless",
    "max_bound_prob",
]

# The exact expectation takes b conditional hyperperiod sums (a floor sum
# each) and runs a b-step Horner loop over a denominator of about b*log2(v)
# bits, so its big-integer work grows as b^2: about 0.5 s at b = 10^5,
# periods (3b, 7b, 11) and p = 1/2, on a 2-core Xeon host (0.15 s of it the
# sums).
_MAX_TERMS = 10**5
# max_bound_prob decides (1-p)^(m+1) <= 1 - sigma on exact integers of about
# m*log10(v) digits; building both powers at 10^6 digits takes about 0.65 s
# on the same host (0.3 s at p = 1/30000, sigma = 99/100: 6.2*10^5 digits).
_MAX_POWER_DIGITS = 10**6


def _as_probability(p) -> Fraction:
    # a sweep builds one SystemConfig per config from the grid's Fractions
    if type(p) is Fraction and 0 < p.numerator <= p.denominator:
        return p
    if isinstance(p, (float, bool)):
        raise ConfigError(
            f"p must be an exact rational (Fraction, int or string), not {type(p).__name__}"
        )
    try:
        p = Fraction(p)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse probability {p!r}") from exc
    if not 0 < p <= 1:
        raise ConfigError(f"p must be in (0, 1], got {p}")
    return p


@dataclass(frozen=True)
class SystemConfig:
    """A full system description: periods, phase shifts and loss."""

    d: PeriodDecomposition
    delta_b: int = 0
    delta_n: int = 0
    p: Fraction = Fraction(1)

    def __post_init__(self):
        if self.delta_b < 0 or self.delta_n < 0:
            raise ConfigError("phase shifts must be >= 0")
        object.__setattr__(self, "p", _as_probability(self.p))


@dataclass(frozen=True)
class GeometricExpectation:
    """The exact expectation over the geometric failure count.

    value is exact, so tail_bound is always 0 and the interval
    [value, value + tail_bound] holds trivially; terms_used is the number of
    conditional hyperperiod sums the closed form needed (b).
    """

    value: Fraction
    tail_bound: Fraction
    terms_used: int

    def __post_init__(self):
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")


def aoi_conditional(cfg: SystemConfig, k: int, l: int) -> int:
    """Age at the k-th read given l transmission slots since the last success."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be >= 0")
    return _age(cfg.d, k, _shifts(cfg.d.n_period, cfg.delta_b, cfg.delta_n, l))


def sequence_conditional(cfg: SystemConfig, l: int, start_cycle: int, count: int) -> np.ndarray:
    """Conditional ages at reads start_cycle, ..., start_cycle + count - 1."""
    d = cfg.d
    args = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n, l, start_cycle, count)
    kernels.check_sequence_args(*args)
    return kernels.seq_conditional(*args)


def _conditional_shifts(cfg: SystemConfig, l: int):
    if l < 0:
        raise ValueError("l must be >= 0")
    return _shifts(cfg.d.n_period, cfg.delta_b, cfg.delta_n, l)


def c_extended(cfg: SystemConfig, i: int, j: int, l: int) -> int:
    """Starting offset of progression (i, j) of the conditional hyperperiod."""
    shifts = _conditional_shifts(cfg, l)
    _check_index(cfg.d, i, j)
    return _start(cfg.d, i, j, shifts)


def distribution_conditional(cfg: SystemConfig, l: int) -> AoiDistribution:
    """Exact conditional age distribution over one hyperperiod for fixed l."""
    return _family(cfg.d, _conditional_shifts(cfg, l))


def _freshness_offset(n, delta_n):
    """2 + comp_mod(delta_n + 1, n), for ints or for arrays that broadcast."""
    return 2 + (-delta_n - 1) % n


def freshness_offset_K(cfg: SystemConfig) -> int:
    """Constant age penalty of buffering and phase: 2 + comp_mod(delta_n + 1, n)."""
    return _freshness_offset(cfg.d.n, cfg.delta_n)


def _offset(cfg: SystemConfig) -> Fraction:
    """What buffering, phase and loss add to the basic band: K + (1-p)/p * N'."""
    return freshness_offset_K(cfg) + (1 - cfg.p) / cfg.p * cfg.d.n_period


def expected_approx_extended(cfg: SystemConfig) -> BandedValue:
    """Band (B' + N' - n)/2 + K + (1-p)/p * N' +- a*b/2 around the expectation."""
    return _band(cfg.d, _offset(cfg))


def _check_terms(d: PeriodDecomposition) -> None:
    """Raise ValueError when the exact expectation's b terms are over the cap."""
    if d.b > _MAX_TERMS:
        raise ValueError(
            f"b = gcd(a_period, b_period) = {d.b} is over the cap of {_MAX_TERMS}: the exact "
            f"expectation needs b conditional hyperperiod sums and big-integer work that "
            f"grows as b^2 (about 0.5 s at b = {_MAX_TERMS})"
        )


def expected_exact_extended(cfg: SystemConfig) -> GeometricExpectation:
    """Exact expectation of the age, marginalized over the geometric failure count.

    The conditional hyperperiod mean is m(l) = l*N' + m0(l mod b), so with
    p = u/v, w = v - u and S(r) the age sum of the conditional hyperperiod
    at r failures,

        E = w*N'/u + sum_{r<b} u*w^r*v^(b-1-r) * (S(r) - r*N'*period)
                     / (period * (v^b - w^b)).

    Costs O(a*b*log) integer work for the b sums plus O(b^2) big-integer
    work, since the denominator has about b*log2(v) bits; b over the cap
    raises ValueError before the sums.
    """
    d = cfg.d
    _check_terms(d)
    u, v = cfg.p.numerator, cfg.p.denominator
    w = v - u
    period = d.period
    sums = kernels.period_sums_conditional(
        d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n, d.b, period
    )
    acc = 0
    wr = 1
    # Horner in v, so acc = sum_r w^r * v^(b-1-r) * (S(r) - r*N'*period)
    for r, s in enumerate(sums):
        acc = acc * v + wr * (s - r * d.n_period * period)
        wr *= w
    den0 = period * (v**d.b - wr)  # wr == w^b here
    value = Fraction(w * d.n_period * den0 + u * u * acc, u * den0)
    return GeometricExpectation(value, Fraction(0), d.b)


def rel_error_bound_extended(cfg: SystemConfig) -> Fraction:
    """Worst-case relative error of the extended band center, always finite."""
    return _rel_error_bound(cfg.d, _offset(cfg))


def max_bound_lossless(cfg: SystemConfig) -> int:
    """Hard bound B' + N' - n + K on every age at l = 0, so on all ages when p == 1."""
    return max_bound_basic(cfg.d) + freshness_offset_K(cfg)


def _neg_log1m(x: Fraction) -> float:
    """-log(1 - x) for 0 < x < 1 as a float, without cancellation at either end."""
    if 2 * x <= 1:
        return -math.log1p(-float(x))
    return math.log(x.denominator) - math.log(x.denominator - x.numerator)


def max_bound_prob(cfg: SystemConfig, sigma: Fraction) -> int:
    """Age bound holding per read with probability at least sigma.

    Returns B' + N' - n + K + n_period * m with m the smallest integer such
    that (1-p)^(m+1) <= 1 - sigma, decided by exact rational comparison.
    m + 1 is estimated as log(1 - sigma) / log(1 - p) and then confirmed (or
    stepped) by exact integer powers, so the cost grows with the digits of
    (1-p)^(m+1), not with m steps.
    """
    sigma = Fraction(sigma)
    if not 0 < sigma < 1:
        raise ValueError(f"sigma must be in (0, 1), got {sigma}")
    d = cfg.d
    base = max_bound_lossless(cfg)
    p = cfg.p
    if p >= sigma:  # one transmission already leaves 1 - p <= 1 - sigma; p == 1 too
        return base
    u, v = p.numerator, p.denominator
    w = v - u
    rn, rd = (1 - sigma).numerator, (1 - sigma).denominator
    # k = m + 1; a p below float range estimates k by sigma/p, its small-p limit
    neg_log_q = _neg_log1m(p)
    if neg_log_q:
        est = _neg_log1m(sigma) / neg_log_q
    else:
        est = float(sigma / p) if sigma < p * _MAX_POWER_DIGITS else math.inf
    digits = est * math.log10(v)
    if not digits <= _MAX_POWER_DIGITS:
        raise ValueError(
            f"sigma = {sigma} at p = {p} needs a run of about {est:.3g} failed "
            f"transmissions; deciding it exactly takes integers of about {digits:.3g} "
            f"digits, over the cap of {_MAX_POWER_DIGITS} (about 0.65 s)"
        )
    k = max(2, math.ceil(est))
    wk, vk = pow(w, k), pow(v, k)
    while wk * rd > rn * vk:  # (1-p)^k > 1 - sigma: step up
        k += 1
        wk, vk = wk * w, vk * v
    while k > 2 and wk * rd * v <= rn * vk * w:  # (1-p)^(k-1) fits too: step down
        k -= 1
        wk, vk = wk // w, vk // v
    return base + d.n_period * (k - 1)
