"""Kernels: vectorized numpy age sequences, the simulator, and exact hyperperiod sums.

The sequence kernels and the simulator work in int64.  Callers go through
the ``check_*`` guards, which reject inputs whose intermediate values could
leave the int64 range; the kernels themselves assume the guards have run.
The package's exact integer arrays follow one rule, kept here: a stage runs
in int64 where a bound from its arguments' maxima proves that every
intermediate fits, and otherwise runs the same expressions on ``object``
arrays of Python ints.  ``_fit`` is the one place that picks between the
two: it builds every exact column, a stage's under the stage's bound and a
column of given ints under their own maximum.  ``exact_sum`` is the one
exact sum of an integer array, by the same rule.  The
hyperperiod age sums of both models are floor sums, and ``_period_sums``
and ``_row_sums`` share one contract for them.  ``_period_sums`` loops over
one decomposition in Python ints.  ``_row_sums`` runs many (decomposition,
shift triple) rows at once through ``floor_sums``, as arrays under that
rule.  ``geometric_sum`` weighs such sums by the geometric failure count,
for one config's Python ints and for a sweep's columns alike.

One simulator kernel, ``sim_blocks``, runs both models; the basic one is
the extended one with no shifts, no hand-over slot and p = 1.  It keeps its
own event arithmetic and takes nothing from the age formula (``_shifts``,
``_seq``), so a fault in one cannot move the other with it.  It draws
Bernoulli variates from a counter-based splitmix64 generator: the variate
for transmission slot index m depends only on (seed, m).  It reads the
stream at random: each read owns the transmissions since the previous read,
and a backward scan from the newest stops at the first success, or after
ceil(A'/N') transmissions, the most a window holds, so a read costs
min(ceil(A'/N'), ~1/p) draws, and none at p = 1, where every draw hits.

The kernel yields ``(k0, ages, fails)`` blocks of ``_CHUNK`` reads, in one
sequential pass, and carries the running max of the newest success from
each block to the next.  A window's newest success depends only on (seed,
window), and a running max is the same wherever its input is cut, so a
trace never depends on the chunking.  Every block reuses buffers of at most
a chunk, so a run of any length streams in O(chunk) memory however many
transmissions fall between reads.  ``sim_basic`` and ``sim_extended``
``_join`` the blocks into whole-run arrays.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .modmath import floor_sum

# splitmix64 constants
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Inputs are capped so every intermediate (slot numbers, k*A') stays well
# inside int64.
_SLOT_LIMIT = 1 << 62

# The success threshold at p = 1: every 53-bit draw falls below it.
_SURE = 1 << 53

# The simulator handles reads in blocks of _CHUNK.  The size bounds its
# working memory; it never changes a trace.
_CHUNK = 1 << 15


# the benchmark reports this name with its machine facts
def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# guards

def check_sequence_args(a_period, b_period, n_period, delta_b, delta_n, l, k0, count):
    if min(a_period, b_period, n_period) < 1:
        raise ValueError("periods must be >= 1")
    if delta_b < 0 or delta_n < 0 or l < 0 or k0 < 0 or count < 0:
        raise ValueError("delta_b, delta_n, l, k0 and count must be >= 0")
    top = (k0 + count) * a_period + delta_b + delta_n + (l + 2) * n_period + 2
    if top >= _SLOT_LIMIT:
        raise OverflowError("inputs too large for 64-bit kernels")


def check_simulate_args(a_period, b_period, n_period, delta_b, delta_n, cycles):
    if min(a_period, b_period, n_period) < 1:
        raise ValueError("periods must be >= 1")
    if delta_b < 0 or delta_n < 0:
        raise ValueError("phase shifts must be >= 0")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if cycles * a_period + delta_b + delta_n + b_period + n_period >= _SLOT_LIMIT:
        raise OverflowError("slot numbers would overflow int64")


# ---------------------------------------------------------------------------
# kernels

# the package's one age formula, of both models, for the shift triple (s_b, s_n, base)
def _seq(a_period, b_period, n_period, k0, count, shifts=(0, 0, 0)):
    s_b, s_n, base = shifts
    t = np.arange(k0, k0 + count, dtype=np.int64) * a_period
    e = (t - s_n) % n_period
    return ((t - s_b) % b_period - e) % b_period + e + base


def _fit(bound, *columns):
    """The columns, lists or arrays of ints, as int64 arrays if ``bound`` < 2^63
    bounds every intermediate, else as ``object`` arrays; each built in one
    step: numpy reads a list that straddles 2^63 as float64."""
    dtype = np.int64 if bound < 2**63 else object
    return [np.asarray(x, dtype=dtype) for x in columns]


def _max_abs(x) -> int:
    """max|x| as a Python int, 0 if x is empty; from max and -min, since abs(-2^63) wraps."""
    x = np.asarray(x)
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _shifts(n_period, delta_b, delta_n, l):
    """Shift triple (s_b, s_n, base) of the age formula at l failures, l an int or an array."""
    lag = 2 + l * n_period
    return delta_b + lag, delta_n + 1, lag


def floor_sums(n, m, alpha, beta):
    """``modmath.floor_sum(n, m, alpha, beta)`` lane by lane, for arrays that broadcast.

    Every lane takes the scalar function's Euclid steps at once, and leaves
    once alpha*n + beta < m.  No intermediate passes
    (|alpha| + |beta| + m + 3)*(n + 1)^2; where that bound, taken over the
    maxima, is below 2^63 the lanes run in int64, and otherwise in Python
    ints on ``object`` arrays.  The result has that dtype.
    """
    n, m, alpha, beta = np.broadcast_arrays(n, m, alpha, beta)
    if n.size and (int(n.min()) < 0 or int(m.min()) < 1):
        raise ValueError("need n >= 0 and m >= 1 in every lane")
    bound = (_max_abs(alpha) + _max_abs(beta) + _max_abs(m) + 3) * (_max_abs(n) + 1) ** 2
    n, m, alpha, beta = (x.ravel() for x in _fit(bound, n, m, alpha, beta))
    total = np.zeros(len(n), dtype=n.dtype)
    live = np.arange(len(n))
    while len(live):
        total[live] += alpha // m * (n * (n - 1) // 2) + beta // m * n
        alpha, beta = alpha % m, beta % m
        top = alpha * n + beta
        keep = np.flatnonzero(top >= m)
        live, m, alpha, top = live[keep], m[keep], alpha[keep], top[keep]
        n, beta = top // m, top % m
        m, alpha = alpha, m
    return total


# lanes per pass of _row_sums: its working memory, never its result
_LANES = 1 << 16


def _row_sums(a_period, ab, an, big_n, a, big_b, s_b, s_n, base):
    """``_period_sums``' contract row by row: the hyperperiod age sum of each
    row's decomposition at its shift triple (s_b, s_n, base).

    The arguments broadcast to one entry per row.  The (row, i) lanes
    N*r_ab + a*b*floor_sum(N, a*b, a*n, r_an - r_ab + a*b - 1), r_ab =
    (i*A' - s_b) mod a*b and r_an = (i*A' - s_n) mod a*n, go through
    ``floor_sums`` ``_LANES`` at a time, in int64 where the bound below is
    under 2^63, else in Python ints; i = -a..-1 stands for i + a, as a*A' is 0
    mod a*b and a*n, and the sums are assembled under a bound of their own.
    """
    args = np.broadcast_arrays(a_period, ab, an, big_n, a, big_b, s_b, s_n, base)
    a_period, ab, an, big_n, a, big_b, s_b, s_n, base = args
    top_a, top_n, top_ab, top_b = _max_abs(a), _max_abs(big_n), _max_abs(ab), _max_abs(big_b)
    bound = (top_a + 1) * (top_n + 1) ** 2 * (
        _max_abs(a_period) + _max_abs(s_b) + _max_abs(s_n) + 2 * _max_abs(an) + 2 * top_ab + 3
    )
    a_period, ab, an, big_n, s_b, s_n = _fit(bound, a_period, ab, an, big_n, s_b, s_n)
    a = a.astype(np.int64)
    out = np.zeros(len(a), dtype=ab.dtype)
    ends = np.cumsum(a)
    for lo in range(0, int(a.sum()), _LANES):
        lane = np.arange(lo, min(lo + _LANES, int(ends[-1])))
        row = np.searchsorted(ends, lane, side="right")
        i = (lane - ends[row]).astype(ab.dtype)
        t, m = i * a_period[row], ab[row]
        r_ab = (t - s_b[row]) % m
        r_an = (t - s_n[row]) % an[row]
        fs = floor_sums(big_n[row], m, an[row], r_an - r_ab + m - 1)
        first = np.flatnonzero(np.diff(row, prepend=-1))
        out[row[first]] += np.add.reduceat(big_n[row] * r_ab + m * fs, first)
    # _period_sums' assembly, B*(out + a*N*base) + a*N*a*b*B*(B - 1)/2
    bound = top_b * (_max_abs(out) + top_a * top_n * (_max_abs(base) + top_ab * top_b))
    out, a, big_n, ab, big_b, base = _fit(bound, out, a, big_n, ab, big_b, base)
    return big_b * out + a * big_n * (big_b * base + ab * (big_b * (big_b - 1) // 2))


# the hyperperiod age sum of both models for each shift triple of _seq:
# over the family's a*N progressions <c, a*b, B>, c = base + r_ab +
# ceil((r_an - r_ab + j*a*n)/(a*b))*a*b, the ceilings summed over j < N are
# one floor sum per i, so a sum costs O(a*log) whatever the hyperperiod
def _period_sums(a_period, b_period, n_period, period, shifts):
    a, b, n = gcd(b_period, n_period), gcd(a_period, b_period), gcd(a_period, n_period)
    ab, an = a * b, a * n
    B, N = b_period // ab, n_period // an
    if a * B * N != period:
        raise ValueError(f"period must be the hyperperiod a*B*N = {a * B * N}, got {period}")
    out = []
    for s_b, s_n, base in shifts:
        acc = 0
        for i in range(a):
            r_ab = (i * a_period - s_b) % ab
            r_an = (i * a_period - s_n) % an
            acc += N * (base + r_ab) + ab * floor_sum(N, ab, an, r_an - r_ab + ab - 1)
        out.append(B * acc + a * N * ab * (B * (B - 1) // 2))
    return out


def seq_basic(a_period, b_period, n_period, k0, count):
    return _seq(a_period, b_period, n_period, k0, count)


# l is one failure count for every read, or an int64 array of one per read
def seq_conditional(a_period, b_period, n_period, delta_b, delta_n, l, k0, count):
    return _seq(a_period, b_period, n_period, k0, count, _shifts(n_period, delta_b, delta_n, l))


def period_sums_conditional(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    """Age sums S(r) of one extended hyperperiod at r < n_terms failures, as exact ints.

    S(r) is ``_period_sums`` at the shift triple ``_shifts`` gives r
    failures.  ``period`` must be the hyperperiod, a*B*N reads, for periods
    that ``basic.decompose`` accepts; any other value raises ValueError.
    """
    shifts = (_shifts(n_period, delta_b, delta_n, r) for r in range(n_terms))
    return _period_sums(a_period, b_period, n_period, period, shifts)


def geometric_sum(terms, v, w):
    """(X, v^n, w^n) with X = sum_{r<n} terms[r]*w^r*v^(n-1-r), for n >= 1 terms:
    ints, or an array whose first axis is r, with v and w that broadcast.

    By binary splitting, so big products pair equal-size operands: [lo, hi)
    splits at mid into X_lo*v^(hi-mid) + w^(mid-lo)*X_hi.  For 0 <= w < v no
    value passes v^n or max|terms|*(v^n - w^n)/(v - w).
    """
    def split(lo, hi):
        if hi - lo == 1:
            return terms[lo], v, w
        mid = (lo + hi) // 2
        x_lo, v_lo, w_lo = split(lo, mid)
        x_hi, v_hi, w_hi = split(mid, hi)
        return x_lo * v_hi + w_lo * x_hi, v_lo * v_hi, w_lo * w_hi

    return split(0, len(terms))


def exact_sum(x):
    """Sum of a 1-d int64 or ``object`` array of ints as an exact Python int.

    An int64 sum wraps silently past 2^63, so it takes one pass only where
    len(x)*max|x| < 2^63 bounds every partial sum.  Otherwise, and for an
    object array, the values sum as Python ints.
    """
    if x.dtype != object and len(x) * _max_abs(x) < 2**63:
        return int(x.sum())
    return sum(x.tolist())


def _join(blocks, cycles):
    """Each column of a run's ``(k0, *columns)`` blocks, copied into one whole-run array."""
    whole = []
    for k0, *cols in blocks:
        whole = whole or [np.empty(cycles, dtype=np.int64) for _ in cols]
        for run, col in zip(whole, cols):
            run[k0 : k0 + len(col)] = col
    return whole


def sim_basic(a_period, b_period, n_period, cycles):
    blocks = sim_blocks(a_period, b_period, n_period, 0, 0, 0, _SURE, 0, cycles)
    return _join(((k0, age) for k0, age, _ in blocks), cycles)[0]


def _splitmix64_np(seed, counters, out, tmp):
    """splitmix64(seed, m) for each counter m, computed in ``out``.

    ``out`` and ``tmp`` are uint64 buffers of the counters' length.  int64
    counters are read as uint64, so m = -1 draws at 2^64 - 1.
    """
    # (m + 1)*gold + seed, with the constant terms folded mod 2^64
    z = np.multiply(counters.view(np.uint64), _GOLD, out=out)
    z += np.uint64((int(seed) + int(_GOLD)) % 2**64)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mix
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _misses(seed, threshold, counters, out, tmp):
    """-1 where the draw at a counter misses, 0 where it hits, as int64 in ``out``.

    A draw hits when its top 53 bits fall below the threshold.  They are
    below 2^53, so threshold - 1 - draw is negative exactly on a miss, and
    its sign fills the word: no branch on the random outcome.
    """
    z = _splitmix64_np(seed, counters, out, tmp)
    z >>= 11
    miss = np.subtract(threshold - 1, z.view(np.int64), out=z.view(np.int64))
    miss >>= 63
    return miss


def _first_success(n_period, delta_b, delta_n, delay) -> int:
    """The least transmission L whose success delivers: a delivery needs a source
    completion ``delay`` slots before tau_L, so L >= 0 and delta_n + L*N' - delay >= delta_b."""
    return max(0, -((delta_n - delay - delta_b) // n_period))


def sim_blocks(a_period, b_period, n_period, delta_b, delta_n, delay, threshold, seed, cycles):
    """Either model's reads as ``(k0, ages, fails)`` blocks of ``_CHUNK`` reads, in
    buffers the next block overwrites.  ``delay`` is a hand-over's lag in slots: 1
    in the buffered model, 0 in the basic one, with no shifts and threshold ``_SURE``."""
    # Window scan.  Transmission m leaves at tau_m = delta_n + m*N'; read k
    # at t = k*A' sees those with tau_m <= t - delay, the last being j_k.
    # Read k owns the window (j_{k-1}, j_k], and the newest success L_k <= j_k
    # is the running max of the windows' newest successes.  A window holds at
    # most ceil(A'/N') transmissions, and its scan stops at the first success
    # or after that many, so a read costs min(ceil(A'/N'), ~1/p) draws.  Then
    # age = t - buf(L_k), where buf is the newest source completion at or
    # before tau_L - delay, and fails = j_k - L_k.
    threshold = int(threshold)
    reads = min(_CHUNK, cycles)
    ages, fails = np.empty((2, reads), dtype=np.int64)
    # slots[i] = i*A', the slot of read k0 + i less that of read k0
    slots = np.arange(reads, dtype=np.int64)
    slots *= a_period
    span = -(-a_period // n_period) - 1  # draws a window makes after its first
    first = _first_success(n_period, delta_b, delta_n, delay)
    carry = -1  # L of the previous block's last read
    sure = threshold >= _SURE
    # working buffers, reused by every block: m holds the reads' slots, and a
    # scan step's draw indices, at most _CHUNK and span per window; at p = 1
    # no draw is made, and j is computed in L's buffer
    size = reads if sure else max(reads, min(_CHUNK, reads * span))
    m = np.empty(size, dtype=np.int64)
    if not sure:
        j_buf = np.empty(reads, dtype=np.int64)
        out, tmp = np.empty((2, size), dtype=np.uint64)
    for k0 in range(0, cycles, _CHUNK):
        n = min(_CHUNK, cycles - k0)
        age, last = ages[:n], fails[:n]
        # j for reads k0 .. k0+n-1; j < 0 before the first transmission.  At
        # p = 1 every draw hits and j never decreases, so j, in L's buffer, is L
        j = np.add(slots[:n], k0 * a_period - delay - delta_n, out=last if sure else j_buf[:n])
        j //= n_period
        if not sure:
            # every window's first draw is at its newest transmission j_k.  A
            # draw before a window's start (an empty or short window, or
            # j < 0) is harmless: a hit there is a success <= j_{k-1}, which
            # the running max already holds, or a negative index
            miss = _misses(seed, threshold, j, out[:n], tmp[:n])
            np.bitwise_or(j, miss, out=last)
            if span:
                # flatnonzero is about three times faster on bool than on int64
                idx = np.flatnonzero(miss < 0)
                _scan(seed, threshold, last, idx, j[idx] - 1, span, m, out, tmp)
            last[0] = max(last[0], carry)
            np.maximum.accumulate(last, out=last)
            carry = int(last[-1])
        # L never decreases, so the reads without a delivery are a prefix
        cut = int(np.searchsorted(last, first))
        age[:cut] = -1
        ok, age_ok = last[cut:], age[cut:]
        # age holds tau_L - delay - delta_b >= 0, then buf - delta_b, then t - buf
        np.multiply(ok, n_period, out=age_ok)
        age_ok += delta_n - delay - delta_b
        age_ok //= b_period
        age_ok *= b_period
        t = np.add(slots[cut:n], k0 * a_period - delta_b, out=m[cut:n])
        np.subtract(t, age_ok, out=age_ok)
        np.subtract(j[cut:], ok, out=ok)
        last[:cut] = -1
        yield k0, age, last


def sim_extended(a_period, b_period, n_period, delta_b, delta_n, threshold, seed, cycles):
    args = (a_period, b_period, n_period, delta_b, delta_n, 1, threshold, seed, cycles)
    return tuple(_join(sim_blocks(*args), cycles))


def _scan(seed, threshold, found, idx, top, span, m, out, tmp):
    """Newest success in [top - span + 1, top] of each window idx, into found.

    The windows are those whose first draw, at top + 1, missed.  All are
    scanned backwards at once, ``width`` indices of each per step; a window
    closes at its first success or after ``span`` draws, so it costs about
    min(span + 1, 2/p) draws in all.  A hit before a window's start is a
    success the previous windows already hold, or a negative index.  A step
    works in the first len(idx)*width entries of the buffers ``m`` (int64),
    ``out`` and ``tmp`` (uint64).
    """
    width = 1
    while len(idx):
        # the width doubles from the first draw's 1, so a long failure run
        # takes few steps, and a step draws at most _CHUNK variates
        width = min(span, 2 * width, _CHUNK // len(idx))
        span -= width
        size = len(idx) * width
        # column c holds index top - c of every window, then -1 where it missed
        draws = np.subtract(top, np.arange(width)[:, None], out=m[:size].reshape(width, -1))
        m[:size] |= _misses(seed, threshold, m[:size], out[:size], tmp[:size])
        # an open window's found is -1, as is the max where every draw missed
        new = found[idx] = draws.max(axis=0)
        if span <= 0:
            break  # every window has made its ceil(A'/N') draws
        sel = np.flatnonzero(new < 0)
        idx, top = idx[sel], top[sel] - width


# the benchmark times each kernel by name through this registry
IMPLS = {
    "numpy": {
        f.__name__: f
        for f in (seq_basic, seq_conditional, period_sums_conditional, sim_basic, sim_extended)
    }
}
