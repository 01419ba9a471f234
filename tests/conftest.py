"""Shared oracles: naive pure-python reference implementations and test grids.

The naive simulators below intentionally avoid the package's kernels and any
closed form: they step through slot events with plain integers, so they can
arbitrate between the analytic formulas and the optimized simulators.  The
series oracle for the extended expectation avoids the kernels and the finite
closed form: it sums conditional progression-family means term by term.
The sweep row oracle evaluates each config on its own with ``Fraction``
operations: exact mean, band center, their relative error and the a priori
bound; ``rows_of`` reads a block's three columns as one such row per
config.  The sweep fold oracle stitches ``sweep._eval_chunk`` rows onto the
factor tuples in one Python loop and sums each mean left to right, as the
sum oracle adds floats one ``+=`` at a time.  The trace CSV oracle formats one row at a time with
f-strings; ``stream_of`` and ``whole_trace`` turn a whole ``Trace`` into a
one-block ``TraceStream``, which ``write_trace_csv`` takes, and back, and
``assert_same_text`` compares two CSVs and names the first line that
differs.  The
period sum oracle reads every age of the hyperperiod with int64 numpy
arrays.  The analyze report oracle writes each progression as a dict
through ``json.dumps(indent=2)``.  The age oracle evaluates one read at a
time, and the progression start oracle one (i, j) at a time, with ``%``
and a ceiling division on Python ints.  The geometric sum oracle is
Horner's rule, one term at a time.  The probabilistic max bound oracle
steps the failure run up one exact power at a time, and ``ln_bracket``
bounds a logarithm by atanh series in exact rationals.

``ArithmeticProgression`` lists one progression <start, step, count> of a
family, for tests that need the progressions as objects.  The residue
lemmas that the progression families rest on, ``residue_orbit``,
``ap_reduce_mod`` and ``pairing_classes``, are stated here as functions, so
that AC11 and ``test_modmath.py`` can check them against brute force.

Every test must reap each child process it starts: an autouse fixture fails
the test that leaves one, a sweep's forked worker above all.
"""

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import numpy as np
import pytest
from hypothesis import settings

from aoiclock import sweep
from aoiclock.extended import (
    SystemConfig,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    freshness_offset_K,
    rel_error_bound_extended,
)
from aoiclock.simulate import Trace, TraceStream
from aoiclock.sweep import PARAMETERS, EmptyGridError, Histogram, SliceStat, SweepResult

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


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child, running or ended
        return
    pytest.fail(f"the test left a child process{f' (pid {pid})' if pid else ''}")


@pytest.fixture
def default_digit_limit():
    """CPython's default int<->str limit of 4,300 digits, whatever the
    environment set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


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
    simulator kernel's conventions.
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


def relative_error_ref(cfg):
    """(exact - band center) / exact, one ``Fraction`` operation at a time."""
    exact = expected_exact_extended(cfg).value
    center = expected_approx_extended(cfg).center
    return (exact - center) / exact


def eval_chunk_ref(payload):
    """``sweep._eval_chunk`` config by config: a (bin index, float error,
    bound verdict) row per (decomposition, combo), the error binned with
    ``floor`` on its ``Fraction``."""
    decomps, combos, bin_width = payload
    out = []
    for d in decomps:
        for combo in combos:
            cfg = SystemConfig(d, *combo)
            err = relative_error_ref(cfg)
            ok = abs(err) <= rel_error_bound_extended(cfg)
            out.append((floor(err / bin_width), float(err), ok))
    return out


def rows_of(rows):
    """A ``sweep._Rows``' columns as a list of (bin index, float error, bound
    verdict) rows of Python scalars, one per config."""
    return list(zip(rows.bins.tolist(), rows.errs.tolist(), rows.oks.tolist()))


def sum_ref(xs):
    """The float sum of ``xs``, one ``+=`` at a time from 0.0."""
    total = 0.0
    for x in xs:
        total += x
    return total


def run_sweep_ref(grid, bin_width=Fraction(1, 100)):
    """``sweep.run_sweep`` as one Python loop over the factor tuples.

    The tuples come from ``sweep._iter_candidates`` and the rows from one
    ``sweep._eval_chunk`` call, so a fault injected into either reaches the
    oracle too.  Each row is added to the global histogram and to the
    slices of its nine values, and every mean is a left-to-right sum.
    """
    factors_of = ("A", "B", "N", "a", "b", "n")
    combo_fields = ("delta_b", "delta_n", "p")

    def sliced(values):
        vals = list(values)
        return vals if len(vals) <= 3 else [vals[0], vals[len(vals) // 2], vals[-1]]

    def nearest_rank(srt, q):
        return srt[max(0, ceil(q * len(srt)) - 1)]

    tuples = list(sweep._iter_candidates(grid))
    decomps = [d for _, d, _ in tuples if d is not None]
    combos = list(product(grid.delta_b, grid.delta_n, grid.p))
    if not decomps:
        raise EmptyGridError("no grid candidate passes the factor constraints")
    rows = iter(rows_of(sweep._eval_chunk((decomps, combos, bin_width))))
    slice_plan = [(f, v) for f in PARAMETERS for v in sliced(getattr(grid, f))]
    position = {key: i for i, key in enumerate(slice_plan)}
    counts = [{} for _ in slice_plan]
    errors = [[] for _ in slice_plan]
    skipped = [0] * len(slice_plan)
    skip_counts, global_counts, float_errors, violations = {}, {}, [], 0
    for factors, d, reason in tuples:
        for combo in combos:
            slots = [
                position[key]
                for key in zip(factors_of + combo_fields, factors + combo)
                if key in position
            ]
            if d is None:
                skip_counts[reason] = skip_counts.get(reason, 0) + 1
                for i in slots:
                    skipped[i] += 1
                continue
            bin_idx, err, ok = next(rows)
            violations += not ok
            global_counts[bin_idx] = global_counts.get(bin_idx, 0) + 1
            float_errors.append(err)
            for i in slots:
                counts[i][bin_idx] = counts[i].get(bin_idx, 0) + 1
                errors[i].append(err)
    nan = float("nan")
    slices = tuple(
        SliceStat(
            parameter=f,
            value=str(v),
            histogram=Histogram(bin_width, hist),
            mean=sum_ref(errs) / len(errs) if errs else nan,
            q01=nearest_rank(sorted(errs), 0.01) if errs else nan,
            q50=nearest_rank(sorted(errs), 0.50) if errs else nan,
            q99=nearest_rank(sorted(errs), 0.99) if errs else nan,
            n_configs=len(errs),
            n_skipped=n_skipped,
        )
        for (f, v), errs, hist, n_skipped in zip(slice_plan, errors, counts, skipped)
    )
    return SweepResult(
        bin_width=bin_width,
        n_candidates=grid.n_candidates(),
        n_configs=len(float_errors),
        skip_counts=skip_counts,
        bound_violations=violations,
        global_hist=Histogram(bin_width, global_counts),
        float_errors=float_errors,
        slices=slices,
    )


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


def assert_same_text(got: str, want: str) -> None:
    """``got == want``; where they differ, the failure names their first line
    that differs instead of diffing both whole (a trace CSV can hold 10^6
    bytes, and the diff takes minutes)."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    pytest.fail(f"texts differ at line {i + 1} of {len(a)} and {len(b)}: "
                f"got {a[i:i + 1]!r}, want {b[i:i + 1]!r}", pytrace=False)


def stream_of(trace) -> TraceStream:
    """A whole trace as a stream of one block."""
    return TraceStream(trace.a_period, trace.cycles, [(0, trace.ages, trace.fails)])


def whole_trace(stream) -> Trace:
    """A stream's blocks, copied as they come (the kernels reuse their
    buffers), joined into one trace; this exhausts the stream."""
    ages, fails = zip(*[(a.copy(), f.copy()) for _, a, f in stream.blocks()])
    return Trace(stream.a_period, np.concatenate(ages), np.concatenate(fails))


def naive_report_json(report, starts, step, count) -> str:
    """The analyze report as ``json.dumps(report, indent=2)``, with the
    family's progressions, one per entry of ``starts``, written as
    start/step/count dicts in ``report["distribution"]["progressions"]``."""
    dist = report["distribution"]
    progressions = [{"start": s, "step": step, "count": count} for s in starts]
    return json.dumps(
        {**report, "distribution": {**dist, "progressions": progressions}}, indent=2
    )


def age_ref(d, k, shifts=(0, 0, 0)):
    """Age at read k of the model at the shift triple (s_b, s_n, base), in
    Python ints: base + e + ((t - s_b) mod B' - e) mod B', with t = k*A' and
    e = (t - s_n) mod N'.  ``kernels._shifts`` gives the triple at l failures."""
    s_b, s_n, base = shifts
    t = k * d.a_period
    e = (t - s_n) % d.n_period
    return base + e + ((t - s_b) % d.b_period - e) % d.b_period


def start_ref(d, i, j, shifts=(0, 0, 0)):
    """Start of progression (i, j), 0 <= i < a and 0 <= j < N, of the family
    for the shift triple (s_b, s_n, base), in Python ints:
    base + r_ab + ceil((r_an - r_ab + j*a*n) / (a*b)) * a*b."""
    if not (0 <= i < d.a and 0 <= j < d.N):
        raise ValueError(f"(i, j) = ({i}, {j}) is outside [0, {d.a}) x [0, {d.N})")
    s_b, s_n, base = shifts
    ab = d.a * d.b
    an = d.a * d.n
    r_ab = (i * d.a_period - s_b) % ab
    r_an = (i * d.a_period - s_n) % an
    # ceil(x / ab) as -floor(-x / ab), exact on Python ints
    return base + r_ab + -(-(r_an - r_ab + j * an) // ab) * ab


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


def geometric_sum_ref(terms, v, w):
    """``kernels.geometric_sum`` by Horner's rule in v, one term at a time on
    Python ints: (X, v^n, w^n) with X = sum_{r<n} terms[r]*w^r*v^(n-1-r)."""
    acc, wr = 0, 1
    for t in terms:
        acc = acc * v + wr * t
        wr *= w
    return acc, v ** len(terms), wr


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


def ln_bracket(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """lo <= ln(x) <= hi, hi - lo < 10^-digits, for a rational x >= 1, from series.

    ln(x) = j*ln(2) + ln(r) with r = x/2^j in [1, 2), and each logarithm is
    2*atanh(y) = 2*sum_i y^(2i+1)/(2i+1), y = (r-1)/(r+1) (1/3 for ln(2)),
    whose rest from term i on is under y^(2i+1)/(1 - y^2).
    """
    j = (x.numerator // x.denominator).bit_length() - 1
    r = x / 2**j
    lo = hi = Fraction(0)
    for y, times in ((Fraction(1, 3), j), ((r - 1) / (r + 1), 1)):
        if not times:
            continue
        total, i = Fraction(0), 0
        while (rest := y ** (2 * i + 1) / (1 - y * y)) * 4 * times * 10**digits >= 1:
            total += y ** (2 * i + 1) / (2 * i + 1)
            i += 1
        lo, hi = lo + 2 * times * total, hi + 2 * times * (total + rest)
    return lo, hi


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


@dataclass(frozen=True)
class ArithmeticProgression:
    """The multiset <start, step, count> = {start + i*step : 0 <= i < count}."""

    start: int
    step: int
    count: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def elements(self) -> range:
        return range(self.start, self.start + self.step * self.count, self.step)

    def last(self) -> int:
        return self.start + self.step * (self.count - 1)

    def sum(self) -> int:
        return self.count * self.start + self.step * (self.count * (self.count - 1) // 2)

    def mean(self) -> Fraction:
        return Fraction(self.sum(), self.count)


def progressions(dist):
    """The family ``dist`` (an ``AoiDistribution``) as ``ArithmeticProgression`` objects."""
    return tuple(ArithmeticProgression(s, dist.step, dist.count) for s in dist.starts.tolist())


def residue_orbit(x: int, y: int) -> Counter:
    """Multiset {k*x mod y : 1 <= k <= y} for coprime x, y.

    Coprimality makes the orbit a permutation of {0, ..., y-1}; without it
    whole residue classes go missing, so non-coprime inputs are rejected.
    """
    if x < 1 or y < 1:
        raise ValueError("x and y must be >= 1")
    if gcd(x, y) != 1:
        raise ValueError(f"x and y must be coprime, got gcd {gcd(x, y)}")
    return Counter((k * x) % y for k in range(1, y + 1))


def ap_reduce_mod(y: int, x: int, big_x: int, negate: bool = False) -> ArithmeticProgression:
    """Reduce the progression <y, x, X> (or <-y, x, X>) modulo X*x.

    The result is <y mod x, x, X> (or, negated, <(-y) mod x, x, X>): as a
    multiset, shifting a full-length progression by y modulo X*x only moves
    its starting offset within [0, x).
    """
    if x < 1 or big_x < 1:
        raise ValueError("step and count must be >= 1")
    start = (-y if negate else y) % x
    return ArithmeticProgression(start, x, big_x)


def pairing_classes(x: int, y: int) -> set[tuple[int, int]]:
    """Index pairs (i, j), 1 <= i <= x, 1 <= j <= y, with i = j (mod gcd(x, y)).

    Two cyclic index sequences of periods x and y co-occur at exactly these
    pairs over x*y/gcd(x, y) steps, each pair once.
    """
    if x < 1 or y < 1:
        raise ValueError("ranges must be >= 1")
    z = gcd(x, y)
    return {
        (i, j)
        for i in range(1, x + 1)
        for j in range(1, y + 1)
        if (i - j) % z == 0
    }
