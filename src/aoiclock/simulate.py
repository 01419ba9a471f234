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
only the draws that decide a read, however many transmissions fall between
reads (see ``kernels``).  A success is declared when the top 53 bits of the
mix fall below round(p * 2^53); the quantization error on p is at most
2^-54.

``stream_basic`` and ``stream_extended`` return a ``TraceStream``, which
yields the reads in the kernels' chunk-sized blocks and keeps the summary
as they go by, so that ``write_trace_csv`` writes a run of any length in
memory O(chunk).  ``simulate_extended`` returns the whole lossy run as a
``Trace``, in memory O(cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .basic import PeriodDecomposition
from .extended import SystemConfig, _fraction_text

__all__ = [
    "RngSpec",
    "Trace",
    "TraceStream",
    "bernoulli_threshold",
    "simulate_extended",
    "stream_basic",
    "stream_extended",
    "write_trace_csv",
]

# Trace CSVs are encoded and written at most _CSV_ROWS rows at a time, one
# write per block.  The size bounds a block's memory, a byte matrix and its
# compacted copy of one byte each per character (at most 0.7 MB at 2^14 rows
# of 20 characters) beside a few uint32 or int64 columns; it never changes a
# byte.  It is half the simulator's 2^15-read block on purpose: with each
# block's warm-up and defined rows encoded whole instead, trace-export read
# 6.4-7.4 M rows/s against 7.4-8.2 M (slower in 5 of 5 alternating runs,
# 2-core Xeon host), and its peak RSS was up to 1.3 MB higher.
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
        raise ValueError(f"p must be in (0, 1], got {_fraction_text(p)}")
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
    def warmup_cycles(self) -> int:
        d = self.ages >= 0
        # ages are defined from the first delivery onwards, so the defined
        # region is a suffix and its start is the warm-up length
        return int(np.argmax(d)) if d.any() else self.cycles


class TraceStream:
    """The reads of one run as ``(k0, ages, fails)`` blocks, yielded once.

    ``blocks()`` yields the blocks as the simulator kernel fills them, in
    buffers that the next block overwrites, so a run of any length takes
    memory O(chunk).  As the blocks go by, the stream keeps a whole trace's
    summary: ``warmup_cycles``, and the exact sum and the max of the defined
    ages (``age_sum`` and ``age_max``, the latter None while no read is
    defined).  They are final once ``blocks()`` is exhausted.  The warm-up
    ends at the first defined read; every read after it is summed as it
    arrives, since the kernels never yield a negative age past the warm-up.
    """

    def __init__(self, a_period: int, cycles: int, source):
        self.a_period = a_period
        self.cycles = cycles
        self._source = source
        self.warmup_cycles = cycles
        self.age_sum = 0
        self.age_max = None

    def blocks(self):
        for k0, ages, fails in self._source:
            if self.age_max is None:
                # the warm-up is the negative prefix of the block that ends it
                seen = ages >= 0
                if seen.any():
                    self.warmup_cycles, self.age_max = k0 + int(seen.argmax()), -1
            defined = ages[max(0, self.warmup_cycles - k0) :]
            if len(defined):
                self.age_max = max(self.age_max, int(defined.max()))
                self.age_sum += kernels.exact_sum(defined)
            yield k0, ages, fails


def _extended_args(cfg: SystemConfig, cycles: int, rng: RngSpec) -> tuple:
    """The extended simulator kernels' arguments, once their guard has passed."""
    d = cfg.d
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    kernels.check_simulate_args(*shape, cycles)
    return (*shape, bernoulli_threshold(cfg.p), rng.seed, cycles)


def simulate_extended(cfg: SystemConfig, cycles: int, rng: RngSpec) -> Trace:
    """Replay the buffered lossy model under a counter-based seed."""
    return Trace(cfg.d.a_period, *kernels.sim_extended(*_extended_args(cfg, cycles, rng)))


def stream_basic(d: PeriodDecomposition, cycles: int) -> TraceStream:
    """Replay the lossless instantaneous model for the given read count."""
    shape = (d.a_period, d.b_period, d.n_period)
    kernels.check_simulate_args(*shape, 0, 0, cycles)
    return TraceStream(d.a_period, cycles, kernels.sim_basic_blocks(*shape, cycles))


def stream_extended(cfg: SystemConfig, cycles: int, rng: RngSpec) -> TraceStream:
    """``simulate_extended``'s reads as a ``TraceStream``."""
    blocks = kernels.sim_extended_blocks(*_extended_args(cfg, cycles, rng))
    return TraceStream(cfg.d.a_period, cycles, blocks)


def write_trace_csv(trace: TraceStream, dest) -> None:
    """Write the stream as CSV with header ``k,t,age,l``.

    The stream is one the simulators make: warm-up reads, written with their
    slot and empty age and l, then defined reads, at int64 slots
    k * a_period.  Anything else raises ValueError: a period or slot past
    int64 before a byte is written, a negative value after the warm-up when
    its block comes.  ``dest`` is a path, written in binary mode, one write
    per block of at most _CSV_ROWS rows (see ``_encode_rows``), or a text
    file object, which gets each block decoded as ASCII.
    """
    last = max(trace.cycles - 1, 0) * trace.a_period
    if max(last, trace.a_period) >= 2**63:
        raise ValueError(f"trace slots must fit int64, got period {trace.a_period}, slot {last}")
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        with open(dest, "wb") as fh:
            fh.writelines(_csv_blocks(trace))
    else:
        dest.writelines(block.decode("ascii") for block in _csv_blocks(trace))


def _csv_blocks(trace: TraceStream):
    """The CSV's header, then its rows as one bytearray per sub-block, each
    block cut once at the stream's warm-up, which ``blocks()`` sets before it
    yields the block that ends it: warm-up rows before the cut, defined after."""
    yield b"k,t,age,l\n"
    for k0, ages, fails in trace.blocks():
        cut = min(len(ages), max(0, trace.warmup_cycles - k0))
        warm = 0, cut, (), (b",", b",,\n")
        defined = cut, len(ages), (ages, fails), (b",", b",", b",", b"\n")
        for lo, hi, cols, seps in (warm, defined):
            for i in range(lo, hi, _CSV_ROWS):
                j = min(i + _CSV_ROWS, hi)
                k = np.arange(k0 + i, k0 + j, dtype=np.int64)
                yield _encode_rows([k, k * trace.a_period, *(c[i:j] for c in cols)], seps)


# "00".."99" as uint16s, each holding its two ASCII digits in memory order
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % r for r in range(100)), np.uint16)


def _encode_rows(cols, seps) -> bytearray:
    """CSV rows of the int64 columns ``cols``, the first the read index k,
    each value followed by its column's separator in ``seps``, as ASCII
    bytes; a negative value raises ValueError naming its row's k.

    The rows are laid out in a fixed-width byte matrix over a zeroed
    bytearray, each column as wide as its largest value, with the digits
    right-aligned.  A column is divided by 100 at a time, in uint32 where
    its max is below 2^32 and in its own int64 above, and each remainder is
    looked up in ``_DIGIT_PAIRS`` and stored as one 2-byte value.  Leading
    zeros are set back to NUL, at the positions past the column's smallest
    value only, and one ``bytearray.translate`` deletes every NUL.
    """
    n = len(cols[0])
    fields = []  # (column as uint32 or int64, width, width of its smallest value)
    for col in cols:
        low, high = int(col.min()), int(col.max())
        if low < 0:
            k = cols[0][col.argmin()]
            raise ValueError(f"trace CSV values must be >= 0, got {low} at k={k}")
        x = col.astype(np.uint32, copy=False) if high < 2**32 else col
        fields.append((x, len(str(high)), len(str(low))))
    buf = bytearray(n * (sum(w for _, w, _ in fields) + sum(map(len, seps))))
    mat = np.frombuffer(buf, np.uint8).reshape(n, -1)
    c = 0
    for (x, w, w_low), sep in zip(fields, seps):
        v = x
        for e in range(c + w, c + 1, -2):  # pair ends, right to left
            q = v // 100 if e > c + 2 else 0  # the top pair's value is below 100
            mat[:, e - 2 : e].view(np.uint16)[:, 0] = _DIGIT_PAIRS.take(v - 100 * q)
            v = q
        if w % 2:
            np.add(v, ord("0"), out=mat[:, c], casting="unsafe")
        for p in range(c, c + w - w_low):
            mat[:, p] *= x >= 10 ** (c + w - 1 - p)
        c += w
        mat[:, c : c + len(sep)] = np.frombuffer(sep, np.uint8)
        c += len(sep)
    return buf.translate(None, b"\0")
