"""Kernels: vectorized numpy age sequences and simulators, and exact period sums.

The sequence kernels and the simulators work in int64.  Callers go through
the ``check_*`` guards, which reject inputs whose intermediate values could
leave the int64 range; the kernels themselves assume the guards have run.
The period sums are closed forms in Python ints, so they need no guard.

The simulators draw Bernoulli variates from a counter-based splitmix64
generator: the variate for transmission slot index m depends only on
(seed, m), so traces are reproducible across chunk sizes.  The extended
simulator reads the stream at random: each read owns the transmissions since
the previous read, and a backward scan of that window stops at its newest
success, so a read costs min(A'/N', ~1/p) draws.  It works through the reads
in chunks of ``_CHUNK``, carrying the newest success between chunks, so its
memory is O(cycles + chunk) however many transmissions fall between reads.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .modmath import floor_sum

# splitmix64 constants
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Inputs are capped so every intermediate (slot numbers, k*A') stays well
# inside int64.
_SLOT_LIMIT = 1 << 62

# The extended simulator handles reads in chunks of _CHUNK.  The size
# bounds its working memory; it never changes a trace.
_CHUNK = 1 << 16


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


def seq_basic(a_period, b_period, n_period, k0, count):
    return _seq(a_period, b_period, n_period, k0, count)


# l is one failure count for every read, or an int64 array of one per read
def seq_conditional(a_period, b_period, n_period, delta_b, delta_n, l, k0, count):
    from .extended import _shifts  # extended imports this module
    return _seq(a_period, b_period, n_period, k0, count, _shifts(n_period, delta_b, delta_n, l))


def period_sums_conditional(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    """Age sums S(r) of one conditional hyperperiod for r < n_terms, as exact ints.

    S(r) sums the family at r failures: the a*N progressions <c, a*b, B>
    with c = base + r_ab + ceil((r_an - r_ab + j*a*n)/(a*b))*a*b.  Summed
    over j < N, the ceilings are one floor sum per i, so the cost is
    O(n_terms*a*log) whatever the hyperperiod.  ``period`` must be that
    hyperperiod, a*B*N reads, for periods that ``basic.decompose`` accepts.
    """
    from .extended import _shifts  # extended imports this module
    a, b, n = gcd(b_period, n_period), gcd(a_period, b_period), gcd(a_period, n_period)
    ab, an = a * b, a * n
    B, N = b_period // ab, n_period // an
    if a * B * N != period:
        raise ValueError(f"period must be the hyperperiod a*B*N = {a * B * N}, got {period}")
    out = []
    for r in range(n_terms):
        s_b, s_n, base = _shifts(n_period, delta_b, delta_n, r)
        acc = 0
        for i in range(a):
            r_ab = (i * a_period - s_b) % ab
            r_an = (i * a_period - s_n) % an
            acc += N * (base + r_ab) + ab * floor_sum(N, ab, an, r_an - r_ab + ab - 1)
        out.append(B * acc + a * N * ab * (B * (B - 1) // 2))
    return out


def sim_basic(a_period, b_period, n_period, cycles):
    # delivery at a link slot is usable the same slot; the freshest update at
    # that slot is the newest source completion not after it
    t = np.arange(cycles, dtype=np.int64) * a_period
    tau = (t // n_period) * n_period
    return t - (tau // b_period) * b_period


def _splitmix64_np(seed, counters):
    z = (counters + np.uint64(1)) * np.uint64(_GOLD) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _window_successes(seed, threshold, lo, hi):
    """Newest success index of each window (lo, hi], as input to a running max.

    A window without a success gets -1 or a success index <= lo, so the
    running max over consecutive windows is the newest success <= hi.  All
    windows are scanned backwards at once, ``width`` indices of each open
    window per step; a window closes at its first success or at its start,
    so it costs about min(hi - lo, 2/p) draws.
    """
    found = np.full(len(hi), -1, dtype=np.int64)
    idx = np.nonzero(hi > lo)[0]
    top, lo = hi[idx], lo[idx]
    span = int((top - lo).max()) if len(idx) else 0
    width = 0
    while len(idx):
        # the width doubles from 1, so a long failure run takes few steps,
        # and a step draws at most _CHUNK variates
        width = max(1, min(span, 2 * width, _CHUNK // len(idx)))
        # row r tests indices top[r], top[r] - 1, ..., top[r] - width + 1
        m = (top[:, None] - np.arange(width, dtype=np.int64)).ravel()
        hit = (_splitmix64_np(seed, m.astype(np.uint64)) >> np.uint64(11)) < threshold
        at = np.flatnonzero(hit)
        rows = at // width
        # the newest hit of a row wins; a hit before its window's start is a
        # success the previous window already holds, or a wrapped negative m
        np.maximum.at(found, idx[rows], m[at])
        keep = top - width > lo
        keep[rows] = False
        sel = np.flatnonzero(keep)
        idx, top, lo = idx[sel], top[sel] - width, lo[sel]
    return found


def sim_extended(a_period, b_period, n_period, delta_b, delta_n, threshold, seed, cycles):
    # Window scan.  Transmission m leaves at tau_m = delta_n + m*N'; read k
    # at t = k*A' sees those with tau_m <= t - 1, the last being j_k.  Read k
    # owns the window (j_{k-1}, j_k], and the newest success L_k <= j_k is
    # the running max of the windows' newest successes.  Reads go in chunks
    # of _CHUNK with the running max carried across, so memory is
    # O(cycles + chunk), and only the draws that decide a read are made:
    # min(A'/N', ~1/p) of them.  Then age = t - buf(L_k), where buf is the
    # newest source completion before tau_L, and fails = j_k - L_k.
    threshold = np.uint64(threshold)
    ages = np.empty(cycles, dtype=np.int64)
    fails = np.empty(cycles, dtype=np.int64)
    carry = -1
    for k0 in range(0, cycles, _CHUNK):
        k1 = min(k0 + _CHUNK, cycles)
        # j for reads k0-1 .. k1-1; read -1 (t = -A') has j = -1
        j = np.maximum((np.arange(k0 - 1, k1, dtype=np.int64) * a_period - 1 - delta_n) // n_period, -1)
        last = np.maximum.accumulate(_window_successes(seed, threshold, j[:-1], j[1:]))
        np.maximum(last, carry, out=last)
        carry = int(last[-1])
        j = j[1:]
        t = np.arange(k0, k1, dtype=np.int64) * a_period
        tau = delta_n + last * n_period
        buf = delta_b + (tau - 1 - delta_b) // b_period * b_period
        ok = (last >= 0) & (tau - 1 >= delta_b)
        ages[k0:k1] = np.where(ok, t - buf, -1)
        fails[k0:k1] = np.where(ok, j - last, -1)
    return ages, fails


# the benchmark times each kernel by name through this registry
IMPLS = {
    "numpy": {
        f.__name__: f
        for f in (seq_basic, seq_conditional, period_sums_conditional, sim_basic, sim_extended)
    }
}
