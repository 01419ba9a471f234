"""Kernels: vectorized numpy age sequences and simulators, and exact hyperperiod sums.

The sequence kernels and the simulators work in int64.  Callers go through
the ``check_*`` guards, which reject inputs whose intermediate values could
leave the int64 range; the kernels themselves assume the guards have run.
The hyperperiod age sums of both models are floor sums in Python ints, so
they need no guard, and ``exact_sum`` sums an int64 array without wrapping.

The simulators draw Bernoulli variates from a counter-based splitmix64
generator: the variate for transmission slot index m depends only on
(seed, m).  The extended simulator reads the stream at random: each read
owns the transmissions since the previous read, and a backward scan of that
window stops at its newest success, so a read costs min(A'/N', ~1/p) draws.
It works through the reads in chunks of ``_CHUNK``, in three phases:

1. per chunk, on ``_WORKERS`` threads: the newest success of each window,
   and their running max within the chunk;
2. in order: the running max carried from each chunk to the next;
3. per chunk, on the threads again: the carry applied, then ages and
   failure counts, written in place into the output.

A window's newest success depends only on (seed, window), and a running max
is the same wherever its input is cut, so a trace depends on neither the
worker count nor the chunking.  Each worker reuses one set of chunk-sized
buffers, so memory is O(cycles + workers*chunk) however many transmissions
fall between reads.
"""

from __future__ import annotations

import os
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

# The extended simulator handles reads in chunks of _CHUNK.  The size
# bounds its working memory; it never changes a trace.
_CHUNK = 1 << 15

# The extended simulator shares its chunks out among this many threads, one
# per core it may run on.  The count never changes a trace.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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

# the age of both models, for the shift triple (s_b, s_n, base) of basic._age
def _seq(a_period, b_period, n_period, k0, count, shifts=(0, 0, 0)):
    s_b, s_n, base = shifts
    t = np.arange(k0, k0 + count, dtype=np.int64) * a_period
    e = (t - s_n) % n_period
    return ((t - s_b) % b_period - e) % b_period + e + base


# the hyperperiod age sum of both models for each shift triple of basic._age:
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
    from .extended import _shifts  # extended imports this module
    return _seq(a_period, b_period, n_period, k0, count, _shifts(n_period, delta_b, delta_n, l))


def period_sums_conditional(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    """Age sums S(r) of one extended hyperperiod at r < n_terms failures, as exact ints.

    S(r) is ``_period_sums`` at the shift triple ``extended._shifts`` gives r
    failures.  ``period`` must be the hyperperiod, a*B*N reads, for periods
    that ``basic.decompose`` accepts; any other value raises ValueError.
    """
    from .extended import _shifts  # extended imports this module
    shifts = (_shifts(n_period, delta_b, delta_n, r) for r in range(n_terms))
    return _period_sums(a_period, b_period, n_period, period, shifts)


def exact_sum(x):
    """Sum of an int64 array as an exact Python int.

    An int64 sum wraps silently past 2^63.  Each value is split into its
    high and low 32-bit halves, and the halves of a block of 2^31 values
    sum inside int64.
    """
    total = 0
    for i in range(0, len(x), 1 << 31):
        block = x[i : i + (1 << 31)]
        total += (int((block >> 32).sum()) << 32) + int((block & 0xFFFFFFFF).sum())
    return total


def sim_basic(a_period, b_period, n_period, cycles):
    # delivery at a link slot is usable the same slot; the freshest update at
    # that slot is the newest source completion not after it
    t = np.arange(cycles, dtype=np.int64) * a_period
    tau = (t // n_period) * n_period
    return t - (tau // b_period) * b_period


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


class _Scratch:
    """One worker's buffers, reused by every chunk it handles."""

    def __init__(self):
        self.j = np.empty(_CHUNK + 1, dtype=np.int64)
        self.m = np.empty(_CHUNK, dtype=np.int64)
        self.out = np.empty(_CHUNK, dtype=np.uint64)
        self.tmp = np.empty(_CHUNK, dtype=np.uint64)
        self.wide = np.empty(_CHUNK, dtype=bool)


def _parallel(workers, task):
    """task(w) for each w < workers, w = 0 on the calling thread."""
    if workers == 1:
        task(0)
        return
    # imported here, as only a run of several chunks on several cores needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(task, w) for w in range(1, workers)]
        task(0)
        for f in futures:
            f.result()


def sim_extended(a_period, b_period, n_period, delta_b, delta_n, threshold, seed, cycles):
    # Window scan.  Transmission m leaves at tau_m = delta_n + m*N'; read k
    # at t = k*A' sees those with tau_m <= t - 1, the last being j_k.  Read k
    # owns the window (j_{k-1}, j_k], and the newest success L_k <= j_k is
    # the running max of the windows' newest successes.  Only the draws that
    # decide a read are made: min(A'/N', ~1/p) of them.  Then
    # age = t - buf(L_k), where buf is the newest source completion before
    # tau_L, and fails = j_k - L_k.
    threshold = int(threshold)
    ages = np.empty(cycles, dtype=np.int64)
    fails = np.empty(cycles, dtype=np.int64)
    starts = range(0, cycles, _CHUNK)
    workers = max(1, min(_WORKERS, len(starts)))
    scratch = [_Scratch() for _ in range(workers)]
    # slots[i] = i*A', the slot of read k0 + i less that of read k0
    slots = np.arange(min(_CHUNK, cycles) + 1, dtype=np.int64)
    slots *= a_period
    # a delivery needs a success L with a source completion before tau_L:
    # L >= 0 and delta_n + L*N' - 1 >= delta_b
    first = max(0, -((delta_n - 1 - delta_b) // n_period))

    def newest(w):
        s = scratch[w]
        for k0 in starts[w::workers]:
            n = min(_CHUNK, cycles - k0)
            # j for reads k0-1 .. k0+n-1; j < 0 before the first transmission
            j = np.add(slots[: n + 1], (k0 - 1) * a_period - 1 - delta_n, out=s.j[: n + 1])
            j //= n_period
            lo, hi = j[:-1], j[1:]
            # every window's first draw is at its newest transmission j_k.
            # A hit on an empty window, or at a negative j_k, is a success
            # <= lo, which the running max absorbs
            miss = _misses(seed, threshold, hi, s.out[:n], s.tmp[:n])
            found = np.bitwise_or(hi, miss, out=fails[k0 : k0 + n])
            # a window holds at most ceil(A'/N') transmissions
            if a_period > n_period:
                rest = np.subtract(hi, lo, out=s.m[:n])
                rest &= miss
                idx = np.flatnonzero(np.greater(rest, 1, out=s.wide[:n]))
                if len(idx):
                    _scan(s, seed, threshold, found, idx, hi[idx] - 1, lo[idx])
            np.maximum.accumulate(found, out=found)

    def finish(w):
        s = scratch[w]
        for k0 in starts[w::workers]:
            k1 = min(k0 + _CHUNK, cycles)
            last = fails[k0:k1]
            # L never decreases, so the reads the carry raises, and then the
            # reads without a delivery, are prefixes
            last[: np.searchsorted(last, carries[k0])] = carries[k0]
            cut = k0 + int(np.searchsorted(last, first))
            ages[k0:cut] = -1
            fails[k0:cut] = -1
            n = k1 - cut
            last, age = fails[cut:k1], ages[cut:k1]
            # age holds tau_L - 1 - delta_b >= 0, then buf - delta_b, then t - buf
            np.multiply(last, n_period, out=age)
            age += delta_n - 1 - delta_b
            age //= b_period
            age *= b_period
            np.subtract(np.add(slots[:n], cut * a_period - delta_b, out=s.j[:n]), age, out=age)
            j = np.add(slots[:n], cut * a_period - 1 - delta_n, out=s.j[:n])
            j //= n_period
            np.subtract(j, last, out=last)

    _parallel(workers, newest)
    carries, carry = {}, -1
    for k0 in starts:
        carries[k0] = carry
        carry = max(carry, int(fails[min(k0 + _CHUNK, cycles) - 1]))
    _parallel(workers, finish)
    return ages, fails


def _scan(s, seed, threshold, found, idx, top, lo):
    """Newest success in (lo, top] of each still-open window idx, into found.

    All windows are scanned backwards at once, ``width`` indices of each per
    step; a window closes at its first success or at its start, so it costs
    about min(top - lo, 2/p) draws.  A hit before a window's start is a
    success the previous window already holds, or a negative index.
    """
    span = int((top - lo).max())
    width = 1
    while len(idx):
        # the width doubles from the first draw's 1, so a long failure run
        # takes few steps, and a step draws at most _CHUNK variates
        width = max(1, min(span, 2 * width, _CHUNK // len(idx)))
        span -= width
        size = len(idx) * width
        # column c holds index top - c of every window, then -1 where it missed
        m = np.subtract(top, np.arange(width)[:, None], out=s.m[:size].reshape(width, -1))
        s.m[:size] |= _misses(seed, threshold, s.m[:size], s.out[:size], s.tmp[:size])
        # an open window's found is -1, as is the max where every draw missed
        new = found[idx] = m.max(axis=0)
        if span <= 0:
            break  # every window is scanned to its start
        sel = np.flatnonzero((new < 0) & (top - width > lo))
        idx, top, lo = idx[sel], top[sel] - width, lo[sel]


# the benchmark times each kernel by name through this registry
IMPLS = {
    "numpy": {
        f.__name__: f
        for f in (seq_basic, seq_conditional, period_sums_conditional, sim_basic, sim_extended)
    }
}
