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
# byte.
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
            cut = 0
            if self.age_max is None:
                # the warm-up is the negative prefix of the block that ends it
                seen = ages >= 0
                cut = int(seen.argmax()) if seen.any() else len(ages)
            if cut < len(ages):
                if self.age_max is None:
                    self.warmup_cycles, self.age_max = k0 + cut, -1
                defined = ages[cut:]
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
    """Write the trace as CSV with header ``k,t,age,l``.

    Warm-up rows keep their slot but leave age and l empty.  ``dest`` may be
    a path, written in binary mode, or a text file object, which gets each
    block decoded as ASCII.  The rows are encoded at most _CSV_ROWS at a
    time by numpy digit arithmetic (see ``_encode_rows``), and each block's
    bytearray goes to a binary file as it is, one write per block, so the
    stream is written as it runs.  A defined row with a negative l raises
    ValueError.
    """
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        with open(dest, "wb") as fh:
            for block in _csv_blocks(trace):
                fh.write(block)
    else:
        for block in _csv_blocks(trace):
            dest.write(block.decode("ascii"))


def _csv_blocks(trace: TraceStream):
    """The CSV's header, then its rows as one bytearray per block."""
    yield b"k,t,age,l\n"
    for k0, ages, fails in trace.blocks():
        defined = ages >= 0
        # starts of the maximal runs of defined and of undefined rows; the
        # prepended opposite of row 0 makes row 0 a start (and no row at all none)
        starts = np.flatnonzero(np.diff(defined, prepend=~defined[:1])).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(ages)]):
            if defined[lo]:
                cols, seps = (ages, fails), (b",", b",", b",", b"\n")
            else:
                cols, seps = (), (b",", b",,\n")
            for i in range(lo, hi, _CSV_ROWS):
                j = min(i + _CSV_ROWS, hi)
                k = np.arange(k0 + i, k0 + j, dtype=np.int64)
                # slot numbers past int64 stay exact as python ints
                dtype = kernels._dtype_for((k0 + j) * trace.a_period)
                t = k.astype(dtype, copy=False) * trace.a_period
                yield _encode_rows([k, t, *(c[i:j] for c in cols)], seps)


# "00".."99" as uint16s, each holding its two ASCII digits in memory order
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % r for r in range(100)), np.uint16)


def _encode_rows(cols, seps) -> bytearray:
    """CSV rows of the non-negative integer columns ``cols``, each value
    followed by its column's separator in ``seps``, as ASCII bytes.

    The rows are laid out in a fixed-width byte matrix over a zeroed
    bytearray, each column as wide as its largest value, with the digits
    right-aligned.  A column is divided by 100 at a time, in uint32 where
    its max is below 2^32 and in its own int64 above, and each remainder is
    looked up in ``_DIGIT_PAIRS`` and stored as one 2-byte value.  Leading
    zeros are set back to NUL, at the positions past the column's smallest
    value only, and one ``bytearray.translate`` deletes every NUL.  Columns
    of python ints (slots past int64) are rendered by ``str`` into the same
    matrix, left-aligned, and their NUL padding is deleted with the rest.
    """
    n = len(cols[0])
    fields = []  # (column as uint32, int64 or bytes, width, width of its smallest value)
    for col in cols:
        if col.dtype == object:
            text = np.array([str(x) for x in col.tolist()], dtype=bytes)
            fields.append((text, text.itemsize, text.itemsize))
        else:
            low, high = int(col.min()), int(col.max())
            if low < 0:
                raise ValueError(f"trace CSV values must be >= 0, got {low}")
            x = col.astype(np.uint32, copy=False) if high < 2**32 else col
            fields.append((x, len(str(high)), len(str(low))))
    buf = bytearray(n * (sum(w for _, w, _ in fields) + sum(map(len, seps))))
    mat = np.frombuffer(buf, np.uint8).reshape(n, -1)
    c = 0
    for (x, w, w_low), sep in zip(fields, seps):
        if x.dtype.kind == "S":
            mat[:, c : c + w] = x.view(np.uint8).reshape(n, w)
        else:
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
