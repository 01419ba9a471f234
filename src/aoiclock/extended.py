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
import sys
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
# each), a geometric sum by binary splitting and Fraction's gcd over a
# denominator of about b*log2(v) bits; the gcd grows as b^2 and with log(v).
# At b = 10^5 and periods (3b, 7b, 11), in a fresh process on a 2-core Xeon
# host, it took 0.18 s at p = 1/2 and 4.8 s at p = 1/30000 (1.3 s of it the
# sum); `analyze --model extended` of those configs took 0.20 s and 13 s.
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
        raise ConfigError(f"p must be in (0, 1], got {_fraction_text(p)}")
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
            f"grows as b^2 (about 0.18 s at b = {_MAX_TERMS} and p = 1/2, 4.8 s at p = 1/30000)"
        )


def expected_exact_extended(cfg: SystemConfig) -> GeometricExpectation:
    """Exact expectation of the age, marginalized over the geometric failure count.

    The conditional hyperperiod mean is m(l) = l*N' + m0(l mod b), so with
    p = u/v, w = v - u and S(r) the age sum of the conditional hyperperiod
    at r failures,

        E = w*N'/u + sum_{r<b} u*w^r*v^(b-1-r) * (S(r) - r*N'*period)
                     / (period * (v^b - w^b)).

    Costs O(a*b*log) integer work for the b sums, then, on a denominator of
    about b*log2(v) bits, about one product of that size for
    ``kernels.geometric_sum`` and O(b^2) for ``Fraction``'s gcd; b over the
    cap raises ValueError before the sums.
    """
    d = cfg.d
    _check_terms(d)
    u, v = cfg.p.numerator, cfg.p.denominator
    w = v - u
    period = d.period
    sums = kernels.period_sums_conditional(
        d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n, d.b, period
    )
    # acc = sum_r w^r * v^(b-1-r) * (S(r) - r*N'*period)
    terms = [s - r * d.n_period * period for r, s in enumerate(sums)]
    acc, vb, wb = kernels.geometric_sum(terms, v, w)
    den0 = period * (vb - wb)
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


def _log10_neg_log1m(x: Fraction) -> float:
    """log10(-log(1 - x)) for 0 < x < 1, also where -log(1 - x) is below float range."""
    y = _neg_log1m(x)
    if y >= sys.float_info.min:
        return math.log10(y)
    return math.log10(x.numerator) - math.log10(x.denominator)  # there -log(1 - x) = x


def _e_notation(lg: float) -> str:
    """10^lg to three digits, as ``f"{x:.2e}"`` writes a float x, also past float range."""
    exp = math.floor(lg)
    mantissa = f"{10 ** (lg - exp):.2f}"
    if mantissa == "10.00":
        mantissa, exp = "1.00", exp + 1
    return f"{mantissa}e{exp:+03d}"


# a refusal writes a fraction in full while both its terms are below 10^this
_SHOWN_DIGITS = 100


def _fraction_text(x: Fraction) -> str:
    """x in full, or, once a term passes ``_SHOWN_DIGITS`` digits, to three
    digits: between 1/2 and 2 as its distance from 1 (``1 - 1.00e-9``), and
    otherwise as x itself.  A big int passes ``str()``'s digit limit, and is
    no use to read."""
    n, d = x.numerator, x.denominator
    if abs(n) < 10**_SHOWN_DIGITS and d < 10**_SHOWN_DIGITS:
        return str(x)
    if 1 < 2 * x < 4:  # x != 1, since a term is big
        return f"1 {'-' if n < d else '+'} {_e_notation(math.log10(abs(n - d)) - math.log10(d))}"
    return f"{'-' if n < 0 else ''}{_e_notation(math.log10(abs(n)) - math.log10(d))}"


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
        raise ValueError(f"sigma must be in (0, 1), got {_fraction_text(sigma)}")
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
        # both sizes in logs, where a float of them may overflow
        log_est = _log10_neg_log1m(sigma) - _log10_neg_log1m(p)
        raise ValueError(
            f"sigma = {_fraction_text(sigma)} at p = {_fraction_text(p)} needs a run of about "
            f"{_e_notation(log_est)} failed transmissions; deciding it exactly takes integers "
            f"of about {_e_notation(log_est + math.log10(math.log10(v)))} digits, over the cap "
            f"of {_MAX_POWER_DIGITS} (about 0.65 s)"
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
