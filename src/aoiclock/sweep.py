"""Grid sweeps comparing the banded approximation against the exact mean.

A grid file lists candidate factor tuples (A, B, N, a, b, n), phase shifts
and loss probabilities.  Each factor tuple is rebuilt into concrete periods
(a_period = A*b*n and so on) and kept only when the periods decompose back
into exactly those factors; the verdict holds for every (delta_b, delta_n,
p) combination of the tuple, and skipped candidates are counted.  For
each surviving config the sweep computes the exact expectation and the band
center, bins the signed relative error (exact - center) / exact, and writes
deterministic CSV outputs: a global histogram, per-parameter slice
histograms, and a quantile summary.

The factor tuples are cut into blocks of ``_BLOCK`` consecutive tuples
whatever the number of processes is, so a sweep's plan follows from its grid
alone; the bundled grid is one block.  Every sweep runs its blocks through
one ``Pool`` of at most one process per block and per core, the calling
process included.  A block classifies its tuples with array gcds, evaluates
the kept ones and returns compact columns: a skip code per tuple, and a
``_Rows`` of a bin index, float error and bound verdict per config, which
stays in those columns from classification to the result.  A grid whose b
passes the exact expectation's term cap is refused when it is read, so every
kept config evaluates.  Evaluation runs the block's configs as integer
arrays.  The hyperperiod sums of a decomposition depend on the (delta_b,
delta_n) pair alone, so each (decomposition, pair, r) sum is one row of a
single floor-sum pass over the block, shared by every p; the geometric sum
over r, each config's exact relative error num / den, its bin (floor
division) and its bound verdict follow as columns, and num / den is turned
into a float by correctly rounded division.  Each stage runs in int64 where
a bound from the column maxima proves that its values fit, and otherwise the
same expressions run on Python ints; no ``Fraction`` is built.  The caller
joins the blocks in enumeration order and folds them with numpy: each
config's position in the grid gives its slices, and every mean is a
left-to-right float sum in enumeration order, taken by
``np.add.accumulate``.  So output files are bit-identical for any number of
worker processes, and on every Python version.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from . import kernels
from .kernels import _fit, _max_abs
from .basic import ConfigError, PeriodDecomposition, max_bound_basic
from .extended import _MAX_TERMS, SystemConfig, _as_probability, _freshness_offset
from .extended import _past_digit_limit

__all__ = [
    "EmptyGridError",
    "SweepGrid",
    "Histogram",
    "SliceStat",
    "SweepResult",
    "enumerate_configs",
    "run_sweep",
    "write_outputs",
]

_FACTORS = ("A", "B", "N", "a", "b", "n")
PARAMETERS = _FACTORS + ("delta_b", "delta_n", "p")
_INT_FIELDS = PARAMETERS[:-1]

_DEFAULTS = {
    "A": "2..21",
    "B": "2..21",
    "N": "2..21",
    "a": [1],
    "b": [1],
    "n": [1],
    "delta_b": [0],
    "delta_n": [0],
    "p": ["1"],
}


# The sweep lists every factor tuple and evaluates every kept config: at the
# cap, cofactors 1..100 and unit factors (2.8*10^5 configs), a median 1.05 s
# (0.92-1.37 s) with --jobs 2 on a 2-core Xeon host and 1.51 s (1.41-1.57 s)
# with --jobs 1, at 58.0-58.6 MB peak RSS in the calling process at either
# (eight alternating pairs of fresh processes).
_MAX_CANDIDATES = 10**6


class EmptyGridError(ValueError):
    """Raised when no grid candidate survives validation."""


def _check_nonempty(name, raw: list) -> None:
    if not raw:
        raise ValueError(f"grid field {name}: empty list")


def _int_entry(name, v) -> int:
    # int() would truncate 2.5 and turn True into 1, and fails on null, a list or "x"
    if not (isinstance(v, bool) or (isinstance(v, float) and not v.is_integer())):
        try:
            return int(v)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"grid field {name}: {_past_digit_limit(v) or f'{v!r} is not an integer'}")


def _int_values(name, raw) -> range | list[int]:
    """A field's distinct values in ascending order; a range stays unexpanded."""
    if isinstance(raw, bool):
        raise ValueError(f"grid field {name}: expected integers")
    if isinstance(raw, int):
        vals = [raw]
    elif isinstance(raw, str):
        # "lo..hi" or "lo..hi:step"
        body, _, step_s = raw.partition(":")
        lo_s, _, hi_s = body.partition("..")
        bad = f"grid field {name}: {_past_digit_limit(raw) or f'bad range {raw!r}'}"
        try:  # without "..", hi_s is empty and fails here too
            lo, hi = int(lo_s), int(hi_s)
            step = int(step_s) if step_s else 1
        except ValueError:
            raise ValueError(bad) from None
        if step < 1 or hi < lo:
            raise ValueError(bad)
        vals = range(lo, hi + 1, step)
    elif isinstance(raw, list):
        _check_nonempty(name, raw)
        vals = sorted({_int_entry(name, v) for v in raw})
    else:
        raise ValueError(f"grid field {name}: expected int, list or range string")
    floor = 0 if name.startswith("delta") else 1
    if vals[0] < floor:
        raise ValueError(f"grid field {name}: value {vals[0]} below {floor}")
    return vals


def _count(vals) -> int:
    """len(vals), also for a range of 2^63 values or more, where len() overflows."""
    if isinstance(vals, range):
        return (vals.stop - vals.start - 1) // vals.step + 1
    return len(vals)


def _parse_p_field(raw) -> tuple[Fraction, ...]:
    if not isinstance(raw, list):
        raw = [raw]
    _check_nonempty("p", raw)
    try:
        return tuple(sorted({_as_probability(v) for v in raw}))
    except ConfigError as exc:
        raise ConfigError(f"grid field p: {exc}") from None


@dataclass(frozen=True)
class SweepGrid:
    """Deduplicated, sorted value lists for each swept parameter."""

    A: tuple[int, ...]
    B: tuple[int, ...]
    N: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    n: tuple[int, ...]
    delta_b: tuple[int, ...]
    delta_n: tuple[int, ...]
    p: tuple[Fraction, ...]

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepGrid":
        unknown = set(raw) - set(PARAMETERS)
        if unknown:
            raise ValueError(f"unknown grid fields: {sorted(unknown)}")
        merged = {**_DEFAULTS, **raw}
        values = {f: _int_values(f, merged[f]) for f in _INT_FIELDS}
        values["p"] = _parse_p_field(merged["p"])
        count = math.prod(map(_count, values.values()))
        if count > _MAX_CANDIDATES:
            raise ValueError(
                f"grid has {count} candidates, over the cap of {_MAX_CANDIDATES}: the sweep lists "
                f"every factor tuple and evaluates every config (about 1-1.5 s and 58 MB at the cap)"
            )
        # a kept tuple's decomposition has the tuple's b, so no config whose
        # exact expectation refuses its b reaches evaluation
        if values["b"][-1] > _MAX_TERMS:
            raise ValueError(
                f"grid field b: value {values['b'][-1]} is over the cap of {_MAX_TERMS} on the "
                f"exact expectation's terms"
            )
        # each sliced value names an ASCII file, and NAME_MAX is 255 bytes
        for f, vals in values.items():
            for i in _slice_positions(len(vals)):
                if len(name := _slice_file(f, vals[i])) > 255:
                    raise ValueError(f"grid field {f}: a slice file name of {len(name)} bytes is "
                                     f"over the 255-byte limit on file names")
        return cls(**{f: tuple(v) for f, v in values.items()})

    @classmethod
    def from_json(cls, path) -> "SweepGrid":
        with open(path) as fh:
            # an integer past the int<->str digit limit stays text, which its field refuses
            raw = json.load(fh, parse_int=lambda t: t if _past_digit_limit(t) else int(t))
        if not isinstance(raw, dict):
            raise ValueError("grid file must hold a JSON object")
        return cls.from_dict(raw)

    def n_candidates(self) -> int:
        return math.prod(len(getattr(self, f)) for f in PARAMETERS)


# Factor tuples per block, whatever --jobs is, so a sweep's plan follows
# from its grid alone; a block is classified in one array pass.  A block must
# cost more than a worker's start-up.  On a 2-core Xeon host, a block of 8192
# tuples of the 10^6-candidate grid evaluates in about 11 ms (the median
# block), and the bundled grid's 5,832 tuples, one block, in 9 ms; forking,
# feeding and reaping one worker costs about 3 ms.  The bundled sweep at
# --jobs 2 ran faster in one block than in blocks of 4096 or 2048, and the
# 10^6-candidate grid ran alike in blocks of 4096 and 8192.
_BLOCK = 8192


def _iter_candidates(grid: SweepGrid, start: int = 0, stop: int | None = None):
    """Yield (factors, decomposition-or-None, skip reason) per factor tuple.

    ``factors`` is (A, B, N, a, b, n); only the tuples at positions
    [start, stop) of the enumeration are classified.  The tuple alone decides
    whether its candidates are kept: every (delta_b, delta_n, p) combination
    of a kept tuple is a config, and every combination of a skipped one is
    skipped.  The tuples are classified ``_BLOCK`` at a time, with array
    gcds of their periods, and a ``PeriodDecomposition`` is built from the
    periods of the kept ones only.
    """
    fields = [getattr(grid, f) for f in _FACTORS]
    n_tuples = math.prod(map(len, fields))
    # no period A*b*n, B*b*a or N*n*a, nor a gcd of them, passes this
    top = [values[-1] for values in fields]
    big = max(top[0] * top[4] * top[5], top[1] * top[4] * top[3], top[2] * top[5] * top[3])
    fields = _fit(big, *fields)
    stop = n_tuples if stop is None else min(stop, n_tuples)
    reasons = (None, *_SKIP_REASONS)
    for lo in range(start, stop, _BLOCK):
        position = np.arange(lo, min(lo + _BLOCK, stop))
        cols = []
        stride = n_tuples
        for values in fields:
            stride //= len(values)
            cols.append(values[position // stride % len(values)])
        A, B, N, a, b, n = cols
        ap, bp, np_ = A * b * n, B * b * a, N * n * a
        ab, an, bn = np.gcd(ap, bp), np.gcd(ap, np_), np.gcd(bp, np_)
        code = np.select(
            [np.gcd(ab, np_) != 1, (bn != a) | (ab != b) | (an != n), (ap == bp) & (bp == np_)],
            [1, 2, 3],
        )
        periods = zip(*(x[code == 0].tolist() for x in (ap, bp, np_)))
        for f, c in zip(zip(*(x.tolist() for x in cols)), code.tolist()):
            if c:
                yield f, None, reasons[c]
            else:
                yield f, PeriodDecomposition(*next(periods)), None


def _combos(grid: SweepGrid) -> list[tuple]:
    """The (delta_b, delta_n, p) combinations, in enumeration order."""
    return list(product(grid.delta_b, grid.delta_n, grid.p))


def enumerate_configs(grid: SweepGrid) -> list[SystemConfig]:
    """All valid configs of the grid, in deterministic enumeration order."""
    combos = _combos(grid)
    configs = [
        SystemConfig(d, *combo)
        for _, d, _ in _iter_candidates(grid)
        if d is not None
        for combo in combos
    ]
    if not configs:
        raise EmptyGridError("no grid candidate passes the factor constraints")
    return configs


def _config_error(m2k, ab, n_period, u, w, acc, den0):
    """(num, den, ok): the relative error is num / den with den > 0, ok its bound verdict.

    The arguments are int arrays of one entry per config.  The config has
    p = u/(u + w), M + 2K = ``m2k`` with M = B' + N' - n, a*b = ``ab`` and
    N' = ``n_period``; ``acc`` and ``den0`` = period*(v^b - w^b) are the
    integer parts of ``expected_exact_extended`` at its shifts and p, so
    E = P / (u*den0) with P = w*N'*den0 + u^2*acc.  The band center is
    M/2 + K + w*N'/u, and its w*N'/u cancels against E's:
    (E - center) / E = num / (2P) with
    num = 2P - den0*(u*(M + 2K) + 2w*N').  The a priori bound is
    a*b*u / (u*(M - a*b + 2K) + 2w*N'); as a*b <= M and K >= 2, both its
    terms lie in (0, u*(M + 2K) + 2w*N'].
    """
    wn2 = 2 * w * n_period
    den = 2 * (w * n_period * den0 + u * u * acc)
    num = den - den0 * (u * m2k + wn2)
    return num, den, abs(num) * (u * (m2k - ab) + wn2) <= ab * u * den


@dataclass(frozen=True)
class Histogram:
    """Counts per bin index; bin i covers [i*bin_width, (i+1)*bin_width)."""

    bin_width: Fraction
    counts: dict[int, int] = field(default_factory=dict)

    def to_rows(self):
        # int true division rounds correctly, as float(idx * bin_width) does
        bn, bd = self.bin_width.numerator, self.bin_width.denominator
        for idx in sorted(self.counts):
            yield idx * bn / bd, (idx + 1) * bn / bd, self.counts[idx]


def _sum(xs) -> float:
    """The float sum of ``xs`` added left to right from 0.0.

    Neither ``sum()``, which compensates since Python 3.12, nor numpy's
    pairwise ``np.sum``: ``np.add.accumulate`` adds strictly left to right, so
    a mean keeps its bits on every Python version.  Its first partial sum is
    x0 rather than 0.0 + x0, and the ``+ 0.0`` gives the same 0.0 where
    every term is -0.0.
    """
    return float(np.add.accumulate(xs)[-1]) + 0.0 if len(xs) else 0.0


@dataclass(frozen=True)
class SliceStat:
    """One summary row: errors of all configs sharing one parameter value."""

    parameter: str
    value: str
    histogram: Histogram
    mean: float
    q01: float
    q50: float
    q99: float
    n_configs: int
    n_skipped: int


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's counts, histograms and slices; ``float_errors`` is the read-only
    float64 column of every config's error, in enumeration order."""

    bin_width: Fraction
    n_candidates: int
    n_configs: int
    skip_counts: dict[str, int]
    bound_violations: int
    global_hist: Histogram
    float_errors: np.ndarray
    slices: tuple[SliceStat, ...]

    @property
    def mean_error(self) -> float:
        return _sum(self.float_errors) / len(self.float_errors)


def _nearest_rank(sorted_xs, q: float) -> float:
    rank = max(0, math.ceil(q * len(sorted_xs)) - 1)
    return float(sorted_xs[rank])


class _Columns(NamedTuple):
    """One entry per decomposition of ``_eval_chunk``, in the order it builds them."""

    a_period: np.ndarray
    ab: np.ndarray
    an: np.ndarray
    big_n: np.ndarray
    a: np.ndarray
    b: np.ndarray
    big_b: np.ndarray
    period: np.ndarray
    n_period: np.ndarray
    n: np.ndarray
    max_bound: np.ndarray


# rows of (decomposition, shift pair, r < b) per floor-sum pass of _accumulators
_ROWS = 1 << 16


def _accumulators(c: _Columns, delta_b, delta_n, vs, ws) -> tuple[np.ndarray, np.ndarray]:
    """``expected_exact_extended``'s geometric sum acc and den0 = period*(v^b - w^b)
    per (decomposition, shift pair) unit, k-major, and per p.

    The b hyperperiod sums of every unit are one ``kernels._row_sums`` pass,
    at most ``_ROWS`` rows at a time, at base 2: a sum holds its base only as
    period*base, so its row is t_r = S(r) - r*N'*period.  Then
    ``kernels.geometric_sum`` runs over r on columns, for the units of each b
    at once against every p, and the v^b and w^b of that same binary-splitting
    sum give den0.
    """
    b = c.b.astype(np.int64)
    n_pairs = len(delta_b)
    unit_b = np.repeat(b, n_pairs)
    first = np.cumsum(unit_b) - unit_b  # each unit's first row
    shift_bound = _max_abs(b) * _max_abs(c.n_period) + _max_abs(delta_b) + _max_abs(delta_n) + 3
    big_period, big_v = _max_abs(c.period), max(vs)
    parts = []
    lo = 0
    while lo < len(unit_b):
        hi = int(np.searchsorted(first, first[lo] + _ROWS))
        units = np.repeat(np.arange(lo, hi), unit_b[lo:hi])
        k, j = units // n_pairs, units % n_pairs
        r = np.arange(len(units)) + first[lo] - first[units]
        s_b, s_n, _ = kernels._shifts(*_fit(shift_bound, c.n_period[k], delta_b[j], delta_n[j], r))
        factors = (x[k] for x in (c.a_period, c.ab, c.an, c.big_n, c.a, c.big_b))
        t = kernels._row_sums(*factors, s_b, s_n, 2)
        for bv in set(unit_b[lo:hi].tolist()):
            sel = lo + np.flatnonzero(unit_b[lo:hi] == bv)
            # acc = sum_r w^r v^(b-1-r) t_r, and no partial sum passes max|t| times
            # the largest sum_r w^r v^(b-1-r) = (v^b - w^b)/(v - w).  Powers at e =
            # min(b, 64) pick the same dtype: past 64, v >= 2 gives 2^64, v = 1 gives 1
            e = min(bv, 64)
            geometric = max((v**e - w**e) // (v - w) for v, w in zip(vs, ws))
            terms = t[(first[sel] - first[lo])[:, None] + np.arange(bv)]
            rows, v, w = _fit(_max_abs(t) * geometric + big_v**e, terms, vs, ws)
            x, vb, wb = kernels.geometric_sum(rows.T[:, :, None], v, w)
            period, diff = _fit(big_period * big_v**e, c.period[sel // n_pairs, None], vb - wb)
            parts.append((sel, x, period * diff))
        lo = hi
    # the parts in unit order
    sels, xs, den0s = zip(*parts)
    where = np.argsort(np.concatenate(sels), kind="stable")
    acc = np.concatenate([np.broadcast_to(x, d.shape) for x, d in zip(xs, den0s)])
    return acc[where], np.concatenate(den0s)[where]


def _error_columns(consts: list[tuple], combos, bin_width: Fraction):
    """Bin index, float error and bound verdict per (decomposition, combo), as arrays.

    ``_config_error`` runs once, on columns: in int64 where a bound from the
    column maxima proves that every intermediate fits and that num and den
    are at most 2^53, so that num / den is the correctly rounded float; on
    Python ints otherwise.
    """
    # every constant, shift and p's numerator or complement is >= 0
    c = _Columns(*_fit(max(map(max, consts)), *zip(*consts)))
    pairs = list(dict.fromkeys((db, dn) for db, dn, _ in combos))
    probs = list(dict.fromkeys(p for _, _, p in combos))
    us = [p.numerator for p in probs]
    vs = [p.denominator for p in probs]
    ws = [v - u for u, v in zip(us, vs)]
    delta_b, delta_n = _fit(max(map(max, pairs)), *zip(*pairs))
    u_col, w_col = _fit(max(vs), us, ws)
    acc, den0 = _accumulators(c, delta_b, delta_n, vs, ws)

    # config (k, combo): its decomposition k, shift pair j and p h
    pair_of = {pair: j for j, pair in enumerate(pairs)}
    p_of = {p: h for h, p in enumerate(probs)}
    k = np.repeat(np.arange(len(consts)), len(combos))
    j = np.tile([pair_of[db, dn] for db, dn, _ in combos], len(consts))
    h = np.tile([p_of[p] for _, _, p in combos], len(consts))
    unit = k * len(pairs) + j
    acc, den0 = acc[unit, h], den0[unit, h]
    # M + 2K of the band center, M = B' + N' - n and K the freshness offset
    bound = _max_abs(c.max_bound) + 2 * _max_abs(c.n) + 2 * _max_abs(delta_n) + 8
    max_bound, n, dn = _fit(bound, c.max_bound[k], c.n[k], delta_n[j])
    m2k = max_bound + 2 * _freshness_offset(n, dn)

    bn, bd = bin_width.numerator, bin_width.denominator
    big_u, big_w, big_n_period = max(us), max(ws), _max_abs(c.n_period)
    den_b = 2 * (big_w * big_n_period * _max_abs(den0) + big_u**2 * _max_abs(acc))
    lin = big_u * _max_abs(m2k) + 2 * big_w * big_n_period
    num_b = den_b + _max_abs(den0) * lin
    bound = max(num_b * lin, num_b * bd, den_b * bn)
    if num_b > 2**53:  # an int64 num or den (den_b <= num_b) would round on its way to a float
        bound = 2**63
    num, den, ok = _config_error(*_fit(
        bound, m2k, c.ab[k], c.n_period[k], u_col[h], w_col[h], acc, den0
    ))
    # int true division rounds correctly, as Fraction.__float__ does
    return (num * bd) // (den * bn), (num / den).astype(np.float64), ok.astype(bool)


@dataclass(frozen=True, eq=False)
class _Rows:
    """A block's evaluated configs, from evaluation to fold: a bin index,
    float error and bound verdict per (decomposition, combo), as three
    columns in enumeration order.  The benchmark tracer counts its ``len``.
    """

    bins: np.ndarray
    errs: np.ndarray
    oks: np.ndarray

    def __len__(self) -> int:
        return len(self.errs)


def _eval_chunk(payload) -> _Rows:
    """Evaluate every combination of each decomposition, in enumeration order.

    The decompositions are evaluated together, as columns: their hyperperiod
    sums depend on the (delta_b, delta_n) pair alone, so each
    (decomposition, pair, r) sum is computed once and serves every p.
    """
    decomps, combos, bin_width = payload
    if not decomps:
        return _Rows(np.empty(0, np.int64), np.empty(0, np.float64), np.empty(0, bool))
    consts = [(d.a_period, d.a * d.b, d.a * d.n, d.N, d.a, d.b, d.B, d.period, d.n_period, d.n,
               max_bound_basic(d)) for d in decomps]
    return _Rows(*_error_columns(consts, combos, bin_width))


# per factor tuple of a block: 0 if kept, else 1 + the index of its skip reason
_SKIP_REASONS = ("common_factor", "factor_mismatch", "equal_periods")
_SKIP_CODE = {r: i for i, r in enumerate((None, *_SKIP_REASONS))}


# the cores this process may run on, which cap the sweep's processes; 1 where
# os.fork is missing (Windows), so every sweep runs in the calling process
# alone and writes the same bytes
if not hasattr(os, "fork"):
    _CORES = 1
elif hasattr(os, "sched_getaffinity"):
    _CORES = len(os.sched_getaffinity(0))
else:
    _CORES = os.cpu_count() or 1


def _serve(fn, items, fd: int) -> NoReturn:
    """A forked worker's whole run: ``fn`` of each item in turn, each result or
    exception pickled to the pipe ``fd``; it never returns to the caller's stack."""
    try:
        with open(fd, "wb") as out:
            for item in items:
                try:
                    result = fn(item)
                except Exception as exc:  # the parent raises it
                    result = exc
                out.write(pickle.dumps(result))
                out.flush()
        os._exit(0)
    finally:
        os._exit(1)


class Pool:
    """The calling process and ``processes - 1`` forked workers, for one
    ``imap``, with one pipe per worker and no task queue.

    ``Pool(processes)`` is a context manager, and ``imap(fn, items)`` forks
    the workers once the items are known, none at one process.  Item k goes
    to member k mod processes: the caller evaluates items 0, processes,
    2*processes, ... itself as the results are read, and worker i evaluates
    items i, i + processes, ... in turn, which it inherits by the fork, and
    sends each result back through its own pipe.  The results come in item
    order; an exception raised in a worker is raised there unchanged, and a
    worker that ends without sending its result raises
    ``ChildProcessError`` with its exit status.  ``__exit__`` reaps every
    worker, and kills those still running when it leaves on an error.  The
    workers inherit the caller's state, patches included; the package
    starts no thread, but a caller whose own threads hold locks at the fork
    should sweep with jobs=1.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self._workers = []  # (pid, read end of its pipe)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        for pid, reader in self._workers:
            reader.close()
            if exc_type is not None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._workers.clear()
        return False

    def imap(self, fn, items):
        items = list(items)
        for i in range(1, self.processes):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _serve(fn, items[i :: self.processes], w)
            os.close(w)
            self._workers.append((pid, open(r, "rb")))
        return self._results(fn, items, list(self._workers))

    def _results(self, fn, items, workers):
        for k, item in enumerate(items):
            member = k % self.processes
            if not member:
                yield fn(item)
                continue
            pid, reader = worker = workers[member - 1]
            try:
                result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                self._workers.remove(worker)
                reader.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise ChildProcessError(
                    f"sweep worker {pid} ended without sending a result (exit status {status})"
                ) from None
            if isinstance(result, Exception):
                raise result
            yield result


def _run_block(payload) -> tuple[np.ndarray, _Rows]:
    """Classify and evaluate the factor tuples at positions [start, stop).

    Returns the skip code of each tuple, and the ``_Rows`` of the kept
    tuples' configs in enumeration order.
    """
    grid, start, stop, bin_width = payload
    codes, decomps = [], []
    for _, d, reason in _iter_candidates(grid, start, stop):
        codes.append(_SKIP_CODE[reason])
        if d is not None:
            decomps.append(d)
    return np.array(codes, dtype=np.uint8), _eval_chunk((decomps, _combos(grid), bin_width))


def _slice_positions(n_values: int) -> list[int]:
    """The sliced values of a field: first, middle and last, so all of up to three."""
    return sorted({0, n_values // 2, n_values - 1})


def _histogram(bins: np.ndarray, bin_width: Fraction) -> Histogram:
    idx, counts = np.unique(bins, return_counts=True)
    return Histogram(bin_width, dict(zip(idx.tolist(), counts.tolist())))


def _slice_stat(parameter, value, bins, errs, holding, bin_width) -> SliceStat:
    n = len(errs)
    srt = np.sort(errs)
    return SliceStat(
        parameter=parameter,
        value=str(value),
        histogram=_histogram(bins, bin_width),
        mean=_sum(errs) / n if n else float("nan"),
        q01=_nearest_rank(srt, 0.01) if n else float("nan"),
        q50=_nearest_rank(srt, 0.50) if n else float("nan"),
        q99=_nearest_rank(srt, 0.99) if n else float("nan"),
        n_configs=n,
        n_skipped=holding - n,
    )


def _evaluate(grid: SweepGrid, bin_width: Fraction, jobs: int) -> tuple[np.ndarray, _Rows]:
    """The skip codes and the ``_Rows`` of the whole grid, the blocks' joined
    in enumeration order; ``jobs`` processes, the caller included, cut to one
    per core and one per block, evaluate the blocks, which are freed on return.
    """
    n_tuples = math.prod(len(getattr(grid, f)) for f in _FACTORS)
    payloads = [(grid, lo, lo + _BLOCK, bin_width) for lo in range(0, n_tuples, _BLOCK)]
    with Pool(min(jobs, _CORES, len(payloads))) as pool:
        codes, blocks = zip(*pool.imap(_run_block, payloads))
    columns = (np.concatenate([getattr(r, f) for r in blocks]) for f in ("bins", "errs", "oks"))
    return np.concatenate(codes), _Rows(*columns)


def _slices(grid: SweepGrid, position, bins, errs, bin_width) -> tuple[SliceStat, ...]:
    """The stats of each sliced value of each field.

    ``position`` is each config's index in the enumeration of all candidates,
    a mixed radix number over PARAMETERS, which gives its value of every field.
    """
    n_candidates = grid.n_candidates()
    slices = []
    stride = n_candidates
    for f in PARAMETERS:
        values = getattr(grid, f)
        stride //= len(values)
        column = position // stride % len(values)
        holding = n_candidates // len(values)  # candidates per value of f
        for i in _slice_positions(len(values)):
            mask = column == i
            slices.append(_slice_stat(f, values[i], bins[mask], errs[mask], holding, bin_width))
    return tuple(slices)


def run_sweep(
    grid: SweepGrid,
    bin_width: Fraction = Fraction(1, 100),
    jobs: int = 1,
) -> SweepResult:
    bin_width = Fraction(bin_width)
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    codes, rows = _evaluate(grid, bin_width, jobs)
    n_combos = len(grid.delta_b) * len(grid.delta_n) * len(grid.p)
    skip_counts = {
        reason: n * n_combos
        for code, reason in enumerate(_SKIP_REASONS, 1)
        if (n := int(np.count_nonzero(codes == code)))
    }
    kept = np.flatnonzero(codes == 0)
    if not len(kept):
        raise EmptyGridError("no grid candidate passes the factor constraints")

    # the position of each config: every combo of a kept tuple
    position = (kept[:, None] * n_combos + np.arange(n_combos)).ravel()
    slices = _slices(grid, position, rows.bins, rows.errs, bin_width)
    rows.errs.flags.writeable = False
    return SweepResult(
        bin_width=bin_width,
        n_candidates=grid.n_candidates(),
        n_configs=len(rows.errs),
        skip_counts=skip_counts,
        bound_violations=int(np.count_nonzero(~rows.oks)),
        global_hist=_histogram(rows.bins, bin_width),
        float_errors=rows.errs,
        slices=slices,
    )


def _hist_csv(hist: Histogram, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in hist.to_rows():
            fh.write(f"{left!r},{right!r},{count}\n")


def _slice_file(parameter: str, value) -> str:
    return f"slice_{parameter}_{str(value).replace('/', '-')}.csv"


def write_outputs(result: SweepResult, out_dir) -> list[Path]:
    """Write global.csv, slice_*.csv and summary.csv; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "global.csv"]
    _hist_csv(result.global_hist, written[0])
    for sl in result.slices:
        path = out / _slice_file(sl.parameter, sl.value)
        _hist_csv(sl.histogram, path)
        written.append(path)
    summary = out / "summary.csv"
    with open(summary, "w", newline="") as fh:
        fh.write("parameter,fixed_value,mean,q01,q50,q99,n_configs,n_skipped\n")
        for sl in result.slices:
            fh.write(
                f"{sl.parameter},{sl.value},{sl.mean!r},{sl.q01!r},{sl.q50!r},"
                f"{sl.q99!r},{sl.n_configs},{sl.n_skipped}\n"
            )
    written.append(summary)
    return written
