"""Shared oracles: naive pure-python reference implementations and test grids.

The naive simulators below intentionally avoid the package's kernels and any
closed form: they step through slot events with plain integers, so they can
arbitrate between the analytic formulas and the optimized simulators.  The
series oracle for the extended expectation avoids the kernels and the finite
closed form: it sums conditional progression-family means term by term.
The trace CSV oracle formats one row at a time with f-strings.  The period
sum oracle reads every age of the hyperperiod with int64 numpy arrays.  The
analyze report oracle writes each progression as a dict through
``json.dumps(indent=2)``.
"""

import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import settings

from aoiclock.extended import distribution_conditional, freshness_offset_K

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")

# one line per acceptance criterion, echoed after the run summary so the
# verdicts stay visible under output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria", sep="-")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1


def splitmix64_ref(seed: int, counter: int) -> int:
    """Reference splitmix64 mix of (seed, counter), plain python ints."""
    z = (seed + (counter + 1) * _GOLD) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def naive_basic_ages(a_period, b_period, n_period, cycles):
    """Slot-by-slot replay of the instantaneous model; O(cycles * a_period)."""
    ages = []
    avail = -1
    recv = -1
    t = 0
    for k in range(cycles):
        while t <= k * a_period:
            if t % b_period == 0:
                avail = t
            if t % n_period == 0:
                recv = avail
            if t == k * a_period:
                ages.append(t - recv)
            t += 1
    return ages


def naive_extended(a_period, b_period, n_period, delta_b, delta_n, threshold, seed, cycles):
    """Slot-by-slot replay of the buffered lossy model with python ints.

    Returns (ages, fails) lists with -1 marking warm-up, matching the
    kernel simulators' conventions.
    """
    ages = []
    fails = []
    buf = -1
    recv = -1
    m = 0
    since = 0
    next_b = delta_b
    next_tx = delta_n
    for k in range(cycles):
        t = k * a_period
        while next_tx <= t - 1:
            tau = next_tx
            while next_b <= tau - 1:
                buf = next_b
                next_b += b_period
            hit = (splitmix64_ref(seed, m) >> 11) < threshold
            m += 1
            if hit:
                if buf >= 0:
                    recv = buf
                since = 0
            else:
                since += 1
            next_tx += n_period
        if recv >= 0:
            ages.append(t - recv)
            fails.append(since)
        else:
            ages.append(-1)
            fails.append(-1)
    return ages, fails


def naive_trace_csv(trace) -> str:
    """The trace CSV built row by row: header ``k,t,age,l``, warm-up rows
    with age and l empty, slot numbers as exact python ints."""
    out = ["k,t,age,l\n"]
    for k in range(trace.cycles):
        if trace.ages[k] >= 0:
            out.append(f"{k},{k * trace.a_period},{trace.ages[k]},{trace.fails[k]}\n")
        else:
            out.append(f"{k},{k * trace.a_period},,\n")
    return "".join(out)


def naive_report_json(report) -> str:
    """The analyze report as ``json.dumps(report, indent=2)``, with the
    progressions of ``report["distribution"]["progressions"]`` written as
    start/step/count dicts."""
    dist = report["distribution"]
    progressions = [
        {"start": pr.start, "step": pr.step, "count": pr.count}
        for pr in dist["progressions"]
    ]
    return json.dumps(
        {**report, "distribution": {**dist, "progressions": progressions}}, indent=2
    )


def naive_period_sums(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    """Conditional hyperperiod age sums for l < n_terms, every read of reads
    1..period evaluated in int64; O(n_terms * period) time, O(period) memory."""
    t = np.arange(1, period + 1, dtype=np.int64) * a_period
    e = (t - delta_n - 1) % n_period
    e_sum = int(e.sum())
    base = t - delta_b - 2
    out = np.empty(n_terms, dtype=np.int64)
    for l in range(n_terms):
        s = (base - l * n_period) % b_period
        out[l] = (2 + l * n_period) * period + e_sum + int(((s - e) % b_period).sum())
    return out


def coprime_triples(limit, lo=1):
    """All (a_period, b_period, n_period) in [lo, limit]^3 with triple gcd 1."""
    out = []
    for ap in range(lo, limit + 1):
        for bp in range(lo, limit + 1):
            g2 = gcd(ap, bp)
            for np_ in range(lo, limit + 1):
                if gcd(g2, np_) == 1:
                    out.append((ap, bp, np_))
    return out


# hyperperiods of 7*10^6 to 10^9 reads, for checks that never list them;
# their age sums are far past int64
LARGE_TRIPLES = [
    (7, 31607, 31627),  # a = b = n = 1
    (20, 28252, 35455),  # a = 7, b = 4, n = 5
    (132, 840308, 63021),  # a = 7, b = 4, n = 3
    (6, 999910, 14955),  # a = 5, b = 2, n = 3
]


@pytest.fixture(scope="session")
def triples_12():
    return coprime_triples(12)


def series_tail_ref(cfg, L):
    """Bound on sum_{l>=L} p(1-p)^l E[age | l], from E[age | l] <= B' + N' + l*N'."""
    d = cfg.d
    q = 1 - cfg.p
    return q**L * (d.b_period + d.n_period + d.n_period * (L + q / cfg.p))


def series_expectation_ref(cfg, tol):
    """Truncated geometric mixture of the conditional hyperperiod means.

    Sums p(1-p)^l * E[age | l] for l < L, with L the first depth whose
    analytic tail bound drops below tol.  Returns (value, tail): the true
    expectation lies in [value, value + tail].
    """
    tol = Fraction(tol)
    p, q = cfg.p, 1 - cfg.p
    value = Fraction(0)
    L = 0
    while True:
        value += p * q**L * distribution_conditional(cfg, L).mean()
        L += 1
        tail = series_tail_ref(cfg, L)
        if tail < tol:
            return value, tail


def max_bound_prob_ref(cfg, sigma):
    """The probabilistic max bound by a linear scan over m.

    Finds the smallest m with (1-p)^(m+1) <= 1 - sigma by stepping m up one
    at a time with exact integer powers; O(m) big-integer steps.
    """
    d = cfg.d
    u, v = cfg.p.numerator, cfg.p.denominator
    w = v - u
    rn, rd = (1 - sigma).numerator, (1 - sigma).denominator
    m = 0
    wpow, vpow = w, v
    while wpow * rd > rn * vpow:
        m += 1
        wpow *= w
        vpow *= v
    return d.b_period + d.n_period - d.n + freshness_offset_K(cfg) + d.n_period * m
