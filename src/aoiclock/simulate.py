"""Slot-exact simulators and trace handling.

The simulators replay the event semantics directly (no closed forms): agents
act on their own periodic schedules, the link forwards the freshest buffered
update, and in the lossy model each transmission succeeds independently with
probability p.  Traces record, per read cycle, the observed age and the
number of transmission slots since the last success; reads before the first
delivery have no age and are marked undefined (the warm-up prefix).

Randomness is counter-based: the Bernoulli variate for transmission slot
index m is splitmix64(seed, m), whether or not a simulator evaluates it, so
a trace is a pure function of (config, cycles, seed), and a run of n reads
is the first n reads of any longer run.  The extended simulator evaluates
only the draws that decide a read, in memory O(cycles) however many
transmissions fall between reads (see ``kernels``).  A success is
declared when the top 53 bits of the mix fall below round(p * 2^53); the
quantization error on p is at most 2^-54.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .basic import PeriodDecomposition
from .extended import SystemConfig
from .modmath import Multiset

__all__ = [
    "RngSpec",
    "Trace",
    "bernoulli_threshold",
    "simulate_basic",
    "simulate_extended",
    "empirical_distribution",
    "empirical_mean",
    "write_trace_csv",
]

# Trace CSVs are formatted and written _CSV_ROWS rows at a time, one write
# per block.  The size bounds a block's memory; it never changes a byte.
_CSV_ROWS = 1 << 14


@dataclass(frozen=True)
class RngSpec:
    """Seed of the counter-based splitmix64 stream."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in uint64")


def bernoulli_threshold(p: Fraction) -> int:
    """round(p * 2^53), the success threshold for 53-bit uniform draws."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return (p.numerator * (1 << 53) + p.denominator // 2) // p.denominator


@dataclass
class Trace:
    """Per-cycle simulation record.

    ages[k] is the age at slot k * a_period, fails[k] the number of
    transmission slots since the last Bernoulli success; both are -1 for the
    warm-up prefix (no delivery seen yet).  warmup_cycles is the first cycle
    with a defined age, equal to cycles when nothing was delivered at all.
    """

    a_period: int
    ages: np.ndarray
    fails: np.ndarray

    @property
    def cycles(self) -> int:
        return len(self.ages)

    @property
    def _slot_dtype(self) -> type:
        # slot numbers past int64 stay exact as python ints; a_period itself
        # must fit to scale even an empty int64 range
        return np.int64 if max(self.cycles, 1) * self.a_period < 2**63 else object

    @property
    def slots(self) -> np.ndarray:
        return np.arange(self.cycles, dtype=self._slot_dtype) * self.a_period

    @property
    def defined(self) -> np.ndarray:
        return self.ages >= 0

    @property
    def warmup_cycles(self) -> int:
        d = self.defined
        # ages are defined from the first delivery onwards, so the defined
        # region is a suffix and its start is the warm-up length
        return int(np.argmax(d)) if d.any() else self.cycles


def simulate_basic(d: PeriodDecomposition, cycles: int) -> Trace:
    """Replay the lossless instantaneous model for the given read count."""
    kernels.check_simulate_args(d.a_period, d.b_period, d.n_period, 0, 0, cycles)
    ages = kernels.sim_basic(d.a_period, d.b_period, d.n_period, cycles)
    return Trace(d.a_period, ages, np.zeros(cycles, dtype=np.int64))


def simulate_extended(cfg: SystemConfig, cycles: int, rng: RngSpec) -> Trace:
    """Replay the buffered lossy model under a counter-based seed."""
    d = cfg.d
    kernels.check_simulate_args(
        d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n, cycles
    )
    ages, fails = kernels.sim_extended(
        d.a_period,
        d.b_period,
        d.n_period,
        cfg.delta_b,
        cfg.delta_n,
        bernoulli_threshold(cfg.p),
        rng.seed,
        cycles,
    )
    return Trace(d.a_period, ages, fails)


def _check_window(trace: Trace, from_cycle: int, window: int):
    if window < 1:
        raise ValueError("window must be >= 1")
    if from_cycle < trace.warmup_cycles:
        raise ValueError(
            f"window starts at cycle {from_cycle}, inside the warm-up prefix "
            f"(first defined cycle is {trace.warmup_cycles})"
        )
    if from_cycle + window > trace.cycles:
        raise IndexError(
            f"window [{from_cycle}, {from_cycle + window}) exceeds trace length {trace.cycles}"
        )


def empirical_distribution(trace: Trace, from_cycle: int, window: int) -> Multiset:
    """Observed age multiset (value -> count) over a fully defined window of the trace."""
    _check_window(trace, from_cycle, window)
    seen, counts = np.unique(trace.ages[from_cycle : from_cycle + window], return_counts=True)
    return Multiset(dict(zip(seen.tolist(), counts.tolist())))


def empirical_mean(trace: Trace, from_cycle: int, window: int) -> Fraction:
    """Exact mean age over a fully defined window of the trace."""
    _check_window(trace, from_cycle, window)
    return Fraction(kernels.exact_sum(trace.ages[from_cycle : from_cycle + window]), window)


def write_trace_csv(trace: Trace, dest) -> None:
    """Write the trace as CSV with header ``k,t,age,l``.

    Warm-up rows keep their slot but leave age and l empty.  ``dest`` may be
    a path or a text file object.
    """
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        with open(dest, "w", newline="") as fh:
            _write_rows(trace, fh)
    else:
        _write_rows(trace, dest)


def _write_rows(trace: Trace, fh: io.TextIOBase) -> None:
    fh.write("k,t,age,l\n")
    defined = trace.defined
    # starts of the maximal runs of defined and of undefined rows; the
    # prepended opposite of row 0 makes row 0 a start (and no row at all none)
    starts = np.flatnonzero(np.diff(defined, prepend=~defined[:1])).tolist()
    for lo, hi in zip(starts, starts[1:] + [trace.cycles]):
        if defined[lo]:
            row, cols = "%d,%d,%d,%d\n", (trace.ages, trace.fails)
        else:
            row, cols = "%d,%d,,\n", ()
        for i in range(lo, hi, _CSV_ROWS):
            j = min(i + _CSV_ROWS, hi)
            k = np.arange(i, j, dtype=trace._slot_dtype)
            block = np.stack([k, k * trace.a_period, *(c[i:j] for c in cols)], axis=1)
            fh.write(row * (j - i) % tuple(block.ravel().tolist()))
