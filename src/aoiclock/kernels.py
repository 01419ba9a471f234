"""Array kernels with a numba fast path and a vectorized numpy fallback.

The backend is chosen once at import time: numba when it is importable and
the environment variable ``AOICLOCK_NO_NUMBA`` is unset (or "0"), numpy
otherwise.  Both implementations of every kernel are kept in ``IMPLS`` so
tests and benchmarks can run them side by side; they must agree bit for bit.

All kernels work in int64.  Callers go through the ``check_*`` guards, which
reject inputs whose intermediate values could leave the int64 range; the
kernels themselves assume the guards have run.

The simulators draw Bernoulli variates from a counter-based splitmix64
generator: the variate for transmission slot index m depends only on
(seed, m), so traces are reproducible across backends and chunk sizes.
The loop simulator draws every transmission in order.  The numpy one reads
the stream at random: each read owns the transmissions since the previous
read, and a backward scan of that window stops at its newest success, so a
read costs min(A'/N', ~1/p) draws.  It works through the reads in chunks of
``_CHUNK``, carrying the newest success between chunks, so its memory is
O(cycles + chunk) however many transmissions fall between reads.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("AOICLOCK_NO_NUMBA", "").strip() not in ("1", "true", "yes")

# splitmix64 constants
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Inputs are capped so every intermediate (slot numbers, k*A', sums over one
# period) stays well inside int64.
_SLOT_LIMIT = 1 << 62

# The numpy extended simulator handles reads in chunks of _CHUNK.  The size
# bounds its working memory; it never changes a trace.
_CHUNK = 1 << 16


def backend() -> str:
    return "numba" if USE_NUMBA else "numpy"


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


def check_period_sums_args(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    check_sequence_args(a_period, b_period, n_period, delta_b, delta_n, max(n_terms - 1, 0), period, 1)
    # one period's sum of conditional ages, worst case
    if period * (2 + b_period + (n_terms + 1) * n_period) >= _SLOT_LIMIT:
        raise OverflowError("period sums would overflow int64")


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
# numpy implementations

def _seq_basic_np(a_period, b_period, n_period, k0, count):
    t = np.arange(k0, k0 + count, dtype=np.int64) * a_period
    e = t % n_period
    return e + ((t % b_period) - e) % b_period


def _seq_conditional_np(a_period, b_period, n_period, delta_b, delta_n, l, k0, count):
    t = np.arange(k0, k0 + count, dtype=np.int64) * a_period
    e = (t - delta_n - 1) % n_period
    s = (t - delta_b - 2 - l * n_period) % b_period
    return 2 + l * n_period + e + (s - e) % b_period


def _period_sums_conditional_np(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    t = np.arange(1, period + 1, dtype=np.int64) * a_period
    e = (t - delta_n - 1) % n_period
    e_sum = int(e.sum())
    base = t - delta_b - 2
    out = np.empty(n_terms, dtype=np.int64)
    for l in range(n_terms):
        s = (base - l * n_period) % b_period
        out[l] = (2 + l * n_period) * period + e_sum + int(((s - e) % b_period).sum())
    return out


def _sim_basic_np(a_period, b_period, n_period, cycles):
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


def _sim_extended_np(a_period, b_period, n_period, delta_b, delta_n, threshold, seed, cycles):
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


# ---------------------------------------------------------------------------
# numba implementations (loop form of the same kernels)

def _seq_basic_loop(a_period, b_period, n_period, k0, count):
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        t = (k0 + i) * a_period
        e = t % n_period
        out[i] = e + ((t % b_period) - e) % b_period
    return out


def _seq_conditional_loop(a_period, b_period, n_period, delta_b, delta_n, l, k0, count):
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        t = (k0 + i) * a_period
        e = (t - delta_n - 1) % n_period
        s = (t - delta_b - 2 - l * n_period) % b_period
        out[i] = 2 + l * n_period + e + (s - e) % b_period
    return out


def _period_sums_conditional_loop(a_period, b_period, n_period, delta_b, delta_n, n_terms, period):
    out = np.zeros(n_terms, dtype=np.int64)
    for l in range(n_terms):
        acc = 0
        for k in range(1, period + 1):
            t = k * a_period
            e = (t - delta_n - 1) % n_period
            s = (t - delta_b - 2 - l * n_period) % b_period
            acc += 2 + l * n_period + e + (s - e) % b_period
        out[l] = acc
    return out


def _sim_basic_loop(a_period, b_period, n_period, cycles):
    ages = np.empty(cycles, dtype=np.int64)
    next_b = 0
    next_n = 0
    next_read = 0
    avail = -1
    recv = -1
    k = 0
    while k < cycles:
        t = next_b
        if next_n < t:
            t = next_n
        if next_read < t:
            t = next_read
        # same-slot order: source completes, link delivers, reader reads
        if t == next_b:
            avail = t
            next_b += b_period
        if t == next_n:
            recv = avail
            next_n += n_period
        if t == next_read:
            ages[k] = t - recv
            k += 1
            next_read += a_period
    return ages


def _sim_extended_loop(a_period, b_period, n_period, delta_b, delta_n, threshold, seed, cycles):
    ages = np.full(cycles, -1, dtype=np.int64)
    fails = np.full(cycles, -1, dtype=np.int64)
    thresh64 = np.uint64(threshold)
    seed64 = np.uint64(seed)
    next_b = delta_b  # next source generation start
    next_tx = delta_n  # next link transmission slot
    buf = -1  # newest completed update at the link
    recv = -1  # newest delivered update at the reader
    m = np.uint64(0)  # transmission slot index, drives the rng
    since = 0  # transmission slots since the last Bernoulli success
    for k in range(cycles):
        t = k * a_period
        # a read at t sees deliveries from slots <= t-1 only
        while next_tx <= t - 1:
            tau = next_tx
            while next_b <= tau - 1:
                buf = next_b
                next_b += b_period
            z = (m + np.uint64(1)) * np.uint64(_GOLD) + seed64
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
            m += np.uint64(1)
            if (z >> np.uint64(11)) < thresh64:
                if buf >= 0:
                    recv = buf
                since = 0
            else:
                since += 1
            next_tx += n_period
        if recv >= 0:
            ages[k] = t - recv
            fails[k] = since
    return ages, fails


_NUMPY_IMPLS = {
    "seq_basic": _seq_basic_np,
    "seq_conditional": _seq_conditional_np,
    "period_sums_conditional": _period_sums_conditional_np,
    "sim_basic": _sim_basic_np,
    "sim_extended": _sim_extended_np,
}

IMPLS = {"numpy": _NUMPY_IMPLS}

if HAVE_NUMBA:
    IMPLS["numba"] = {
        "seq_basic": njit(cache=True)(_seq_basic_loop),
        "seq_conditional": njit(cache=True)(_seq_conditional_loop),
        "period_sums_conditional": njit(cache=True)(_period_sums_conditional_loop),
        "sim_basic": njit(cache=True)(_sim_basic_loop),
        "sim_extended": njit(cache=True)(_sim_extended_loop),
    }

_ACTIVE = IMPLS[backend()]

seq_basic = _ACTIVE["seq_basic"]
seq_conditional = _ACTIVE["seq_conditional"]
period_sums_conditional = _ACTIVE["period_sums_conditional"]
sim_basic = _ACTIVE["sim_basic"]
sim_extended = _ACTIVE["sim_extended"]
