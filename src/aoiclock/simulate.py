"""Slot-exact simulators and trace handling.

The simulators replay the event semantics directly (no closed forms): agents
act on their own periodic schedules, the link forwards the freshest buffered
update, and in the lossy model each transmission succeeds independently with
probability p.  Traces record, per read cycle, the observed age and the
number of transmission slots since the last success; reads before the first
delivery have no age and are marked undefined (the warm-up prefix).

Randomness is counter-based: the Bernoulli variate for transmission slot
index m is splitmix64(seed, m), whether or not a simulator evaluates it, so
a trace is a pure function of (config, cycles, seed) on every backend, and a
run of n reads is the first n reads of any longer run.  The numpy backend
evaluates only the draws that decide a read, in memory O(cycles) however
many transmissions fall between reads (see ``kernels``).  A success is
declared when the top 53 bits of the mix fall below round(p * 2^53); the
quantization error on p is at most 2^-54.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .basic import AoiDistribution, PeriodDecomposition
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


@dataclass(frozen=True)
class RngSpec:
    """Seed plus algorithm tag; only counter-based splitmix64 is supported."""

    seed: int
    algorithm: str = "splitmix64"

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in uint64")
        if self.algorithm != "splitmix64":
            raise ValueError(f"unknown rng algorithm {self.algorithm!r}")


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
    model: str
    ages: np.ndarray
    fails: np.ndarray
    rng: RngSpec | None = None

    @property
    def cycles(self) -> int:
        return len(self.ages)

    @property
    def slots(self) -> np.ndarray:
        return np.arange(self.cycles, dtype=np.int64) * self.a_period

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
    return Trace(d.a_period, "basic", ages, np.zeros(cycles, dtype=np.int64))


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
        # plain ints >= 2^63 would not fit the jit backend's signed argument
        np.uint64(rng.seed),
        cycles,
    )
    return Trace(d.a_period, "extended", ages, fails, rng)


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


def empirical_distribution(trace: Trace, from_cycle: int, window: int) -> AoiDistribution:
    """Observed age multiset over a fully defined window of the trace."""
    _check_window(trace, from_cycle, window)
    chunk = trace.ages[from_cycle : from_cycle + window]
    values: Multiset = Multiset()
    for v, c in zip(*np.unique(chunk, return_counts=True)):
        values[int(v)] = int(c)
    return AoiDistribution(values, window)


def empirical_mean(trace: Trace, from_cycle: int, window: int) -> Fraction:
    """Exact mean age over a fully defined window of the trace."""
    _check_window(trace, from_cycle, window)
    chunk = trace.ages[from_cycle : from_cycle + window]
    return Fraction(int(chunk.sum()), window)


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
    ages = trace.ages
    fails = trace.fails
    a_period = trace.a_period
    for k in range(trace.cycles):
        if ages[k] >= 0:
            fh.write(f"{k},{k * a_period},{ages[k]},{fails[k]}\n")
        else:
            fh.write(f"{k},{k * a_period},,\n")
