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

import functools
import math
import re
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from decimal import Inexact, localcontext
from fractions import Fraction

import numpy as np

from . import kernels
from .basic import AoiDistribution, BandedValue, ConfigError, PeriodDecomposition, max_bound_basic
from .basic import _band, _family, _rel_error_bound
from .kernels import _shifts

__all__ = [
    "SystemConfig",
    "GeometricExpectation",
    "sequence_conditional",
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
# At b = 10^5, periods (3b, 7b, 11), a whole `analyze --model extended` call,
# start-up included, took 0.35 s at p = 1/2 and 3.5 s at p = 1/30000 (medians of
# three fresh processes, 2-core Xeon host), most of the latter in the gcd.
_MAX_TERMS = 10**5
# max_bound_prob doubles its logarithms' precision up to this many digits; a
# near tie with 10^3-bit terms took 0.08 s to its refusal on the same host
_MAX_LOG_DIGITS = 1024


def _as_probability(p) -> Fraction:
    # enumerate_configs builds one SystemConfig per config from the grid's Fractions
    if type(p) is Fraction and 0 < p.numerator <= p.denominator:
        return p
    if isinstance(p, (float, bool)):
        raise ConfigError(
            f"p must be an exact rational (Fraction, int or string), not {type(p).__name__}"
        )
    try:
        p = Fraction(p)
    except (ValueError, TypeError) as exc:
        raise ConfigError(_past_digit_limit(p) or f"cannot parse probability {p!r}") from exc
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


def distribution_conditional(cfg: SystemConfig, l: int) -> AoiDistribution:
    """Exact conditional age distribution over one hyperperiod for fixed l."""
    return _family(cfg.d, _conditional_shifts(cfg, l))


def _freshness_offset(n, delta_n):
    """2 + (-delta_n - 1) mod n, for ints or for arrays that broadcast."""
    return 2 + (-delta_n - 1) % n


def freshness_offset_K(cfg: SystemConfig) -> int:
    """Constant age penalty of buffering and phase: 2 + (-delta_n - 1) mod n."""
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
            f"grows as b^2 (analyze takes about 0.35 s at b = {_MAX_TERMS} and p = 1/2, 3.5 s at "
            f"p = 1/30000)"
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


def _past_digit_limit(value) -> str | None:
    """Why ``value``, a string or what a JSON file holds, is no number when a term in
    its repr passes the int<->str digit limit (Python 3.11+): its size, not its digits."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = max(map(len, re.findall(r"\d+", repr(value).replace("_", ""))), default=0)
    if 0 < limit < digits:
        return (f"a term of {digits} digits is past the interpreter's "
                f"limit of {limit} digits for int<->str conversion")
    return None


# str() writes up to this many bits (632 digits), under any digit limit CPython admits
_STR_BITS = 2_100


def _int_text(n: int) -> str:
    """``str(n)``, past the digit limit too: a longer n is rebuilt as an exact
    Decimal from halves of its bits, hi * 2^h + lo, in a local context, as in
    CPython 3.12's ``_pylong``: Decimal products, not ``str()``'s quadratic loop."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    power = functools.cache(lambda h: Decimal(2) ** h)

    def exact(x: int, bits: int) -> Decimal:  # 0 <= x < 2^bits
        if bits <= 128:
            return Decimal(x)
        h = bits // 2
        return exact(x & (1 << h) - 1, h) + exact(x >> h, bits - h) * power(h)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        return ("-" if n < 0 else "") + str(exact(abs(n), n.bit_length()))


def _rat(x: Fraction) -> str:
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _text(x: Fraction) -> str:
    """``str(x)``: n, or n/d."""
    return _rat(x) if x.denominator != 1 else _int_text(x.numerator)


def _ln_bounds(a: int, b: int, floor: Context, ceiling: Context) -> tuple[Decimal, Decimal]:
    """lo <= ln(a/b) <= hi for ints a >= b >= 1, at the contexts' precision P.

    A term past 4P bits is cut to its leading 4P bits t, t*2^s <= x < (t+1)*2^s
    with 1/t < 10^-P, so the cost does not grow with it.  ``ln`` rounds
    correctly, so the neighbours of its result bracket it; with (s_a - s_b)*ln(2)
    added, a slack of 10^(2-P) covers the cuts and the quotient's rounding down."""
    prec = floor.prec
    sa, sb = (max(0, x.bit_length() - 4 * prec) for x in (a, b))
    y = floor.divide(Decimal(a >> sa), Decimal(b >> sb)).ln(floor)
    slack = ceiling.scaleb(1, 2 - prec)
    lo, hi = floor.subtract(floor.next_minus(y), slack), ceiling.add(ceiling.next_plus(y), slack)
    if sa > sb:  # a >= b, so sa >= sb
        ln2 = Decimal(2).ln(floor)
        lo = floor.add(lo, floor.multiply(sa - sb, floor.next_minus(ln2)))
        hi = ceiling.add(hi, ceiling.multiply(sa - sb, ceiling.next_plus(ln2)))
    return lo, hi


def max_bound_prob(cfg: SystemConfig, sigma: Fraction) -> int:
    """Age bound holding per read with probability at least sigma.

    Returns B' + N' - n + K + n_period * (k - 1), k the least integer with
    (1-p)^k <= 1 - sigma: with p = u/v, w = v - u and 1 - sigma = r_n/r_d,
    the least integer k >= L = ln(r_d/r_n) / ln(v/w).  Both logarithms bound
    L at P digits, with directed rounding; a bracket without an integer
    decides k.  Its one integer m is checked once for L == m, which holds
    only if v^m = r_d and w^m = r_n (integers under r_d^2), as both fractions
    are in lowest terms.  Else P doubles, up to ``_MAX_LOG_DIGITS``.  So the
    cost follows the digits of p, sigma and k, not k itself.
    """
    sigma = Fraction(sigma)
    if not 0 < sigma < 1:
        raise ValueError(f"sigma must be in (0, 1), got {_fraction_text(sigma)}")
    base = max_bound_lossless(cfg)
    p = cfg.p
    if p >= sigma:  # one transmission already leaves 1 - p <= 1 - sigma; p == 1 too
        return base
    u, v = p.numerator, p.denominator
    w = v - u
    rn, rd = (1 - sigma).as_integer_ratio()
    # in bits, the slack costs about log2(1/p) of ln(v/w) ~ p and log2(1/sigma)
    # of ln(r_d/r_n) ~ sigma, and L has up to log2(ln(r_d)/p) before the point
    prec = 12 + (2 * (v // u).bit_length() - (sigma.denominator // sigma.numerator).bit_length()
                 + rd.bit_length().bit_length()) * 3 // 10
    m = None  # the one integer of the last bracket that held one
    while prec <= _MAX_LOG_DIGITS:
        floor, ceiling = Context(prec, ROUND_FLOOR), Context(prec, ROUND_CEILING)
        (n_lo, n_hi), (d_lo, d_hi) = (_ln_bounds(*x, floor, ceiling) for x in ((rd, rn), (v, w)))
        lo, hi = floor.divide(n_lo, d_hi), ceiling.divide(n_hi, d_lo)  # n_lo, d_lo > 0
        k = lo.to_integral_value(ROUND_CEILING)
        if k > hi:
            return base + cfg.d.n_period * (int(k) - 1)
        if k == hi.to_integral_value(ROUND_FLOOR) != m:
            m = int(k)
            if m * (v.bit_length() - 1) < rd.bit_length() and v**m == rd and w**m == rn:
                return base + cfg.d.n_period * (m - 1)
        prec *= 2
    raise ValueError(
        f"sigma = {_fraction_text(sigma)} at p = {_fraction_text(p)} needs logarithms to "
        + (f"over {_MAX_LOG_DIGITS} digits, the cap (about 0.1 s): 1 - sigma is too near "
           f"(1-p)^{m} to tell at {prec // 2}" if m else
           f"about {prec} digits, over the cap of {_MAX_LOG_DIGITS} (about 0.1 s)")
    )
