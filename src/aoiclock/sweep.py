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

The factor tuples are cut into blocks, one inline or a few per worker
process.  A block classifies its tuples, evaluates the kept ones and returns
compact columns: a skip code per tuple, and a bin index, float error and
bound verdict per config.  Evaluation runs one decomposition at a time.  Its
b conditional hyperperiod sums depend on the (delta_b, delta_n) pair alone,
so each pair's sums are computed once and shared by every p.  Each config's
relative error is then an exact integer ratio num / den, binned by floor
division and turned into a float by correctly rounded integer division; no
``Fraction`` is built.  The parent joins the blocks in enumeration order and
folds them with numpy: each config's position in the grid gives its slices,
and every mean is a left-to-right float sum in enumeration order.  So output
files are bit-identical for any number of worker processes, and on every
Python version.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .basic import ConfigError, PeriodDecomposition, decompose, max_bound_basic
from .extended import SystemConfig, _as_probability, _freshness_offset, _mixture_terms

__all__ = [
    "EmptyGridError",
    "SweepGrid",
    "Histogram",
    "SliceStat",
    "SweepResult",
    "enumerate_configs",
    "relative_error",
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
# cap, cofactors 1..100 and unit factors (2.8*10^5 configs), about 5.6 s at
# 71 MB peak RSS in the parent process (38 MB in a worker) with --jobs 2 on
# a 2-core Xeon host.
_MAX_CANDIDATES = 10**6


class EmptyGridError(ValueError):
    """Raised when no grid candidate survives validation, or none evaluates."""


def _check_nonempty(name, raw: list) -> None:
    if not raw:
        raise ValueError(f"grid field {name}: empty list")


def _int_entry(name, v) -> int:
    # int() would truncate 2.5 and turn True into 1
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"grid field {name}: {v!r} is not an integer")
    return int(v)


def _int_values(name, raw) -> range | list[int]:
    """A field's distinct values in ascending order; a range stays unexpanded."""
    if isinstance(raw, bool):
        raise ValueError(f"grid field {name}: expected integers")
    if isinstance(raw, int):
        vals = [raw]
    elif isinstance(raw, str):
        # "lo..hi" or "lo..hi:step"
        body, _, step_s = raw.partition(":")
        lo_s, sep, hi_s = body.partition("..")
        if not sep:
            raise ValueError(f"grid field {name}: bad range {raw!r}")
        lo, hi = int(lo_s), int(hi_s)
        step = int(step_s) if step_s else 1
        if step < 1 or hi < lo:
            raise ValueError(f"grid field {name}: bad range {raw!r}")
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
                f"every factor tuple and evaluates every config (about 6 s and 71 MB at the cap)"
            )
        return cls(**{f: tuple(v) for f, v in values.items()})

    @classmethod
    def from_json(cls, path) -> "SweepGrid":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("grid file must hold a JSON object")
        return cls.from_dict(raw)

    def n_candidates(self) -> int:
        out = 1
        for f in PARAMETERS:
            out *= len(getattr(self, f))
        return out

    def values_of(self, parameter: str):
        return getattr(self, parameter)


def _iter_candidates(grid: SweepGrid, start: int = 0, stop: int | None = None):
    """Yield (factors, decomposition-or-None, skip reason) per factor tuple.

    ``factors`` is (A, B, N, a, b, n); only the tuples at positions
    [start, stop) of the enumeration are classified.  The tuple alone decides
    whether its candidates are kept: every (delta_b, delta_n, p) combination
    of a kept tuple is a config, and every combination of a skipped one is
    skipped.
    """
    tuples = product(grid.A, grid.B, grid.N, grid.a, grid.b, grid.n)
    for factors in islice(tuples, start, stop):
        A, B, N, a, b, n = factors
        ap, bp, np_ = A * b * n, B * b * a, N * n * a
        try:
            d = decompose(ap, bp, np_)
        except ConfigError:
            yield factors, None, "common_factor"
            continue
        if (d.A, d.B, d.N, d.a, d.b, d.n) != factors:
            yield factors, None, "factor_mismatch"
        elif ap == bp == np_:
            yield factors, None, "equal_periods"
        else:
            yield factors, d, None


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


def _config_error(
    m2k: int, ab: int, n_period: int, u: int, w: int, acc: int, den0: int
) -> tuple[int, int, bool]:
    """(num, den, ok): the relative error is num / den with den > 0, ok its bound verdict.

    The config has p = u/(u + w), M + 2K = ``m2k`` with M = B' + N' - n,
    a*b = ``ab`` and N' = ``n_period``; ``acc`` and ``den0`` are
    ``_mixture_terms`` at its shifts and p, so E = P / (u*den0) with
    P = w*N'*den0 + u^2*acc.  The band center is M/2 + K + w*N'/u, and its
    w*N'/u cancels against E's: (E - center) / E = num / (2P) with
    num = 2P - den0*(u*(M + 2K) + 2w*N').  The a priori bound is
    a*b*u / (u*(M - a*b + 2K) + 2w*N'), whose denominator is positive since
    K >= 2.
    """
    wn2 = 2 * w * n_period
    den = 2 * (w * n_period * den0 + u * u * acc)
    num = den - den0 * (u * m2k + wn2)
    return num, den, abs(num) * (u * (m2k - ab) + wn2) <= ab * u * den


def _m2k(d: PeriodDecomposition, delta_n: int) -> int:
    """M + 2K of the band center, M = B' + N' - n and K the freshness offset."""
    return max_bound_basic(d) + 2 * _freshness_offset(d.n, delta_n)


def relative_error(cfg: SystemConfig) -> Fraction:
    """Signed relative error (exact - band center) / exact of the approximation."""
    d, u, v = cfg.d, cfg.p.numerator, cfg.p.denominator
    [(acc, den0)] = _mixture_terms(d, cfg.delta_b, cfg.delta_n, [(v, v - u)])
    num, den, _ = _config_error(_m2k(d, cfg.delta_n), d.a * d.b, d.n_period, u, v - u, acc, den0)
    return Fraction(num, den)


@dataclass(frozen=True)
class Histogram:
    """Counts per bin index; bin i covers [i*bin_width, (i+1)*bin_width)."""

    bin_width: Fraction
    counts: dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_rows(self):
        for idx in sorted(self.counts):
            yield float(idx * self.bin_width), float((idx + 1) * self.bin_width), self.counts[idx]


def _sum(xs) -> float:
    """The float sum of ``xs`` added left to right from 0.0.

    Neither ``sum()``, which compensates since Python 3.12, nor numpy's
    pairwise sum: a mean keeps its bits on every Python version.
    """
    total = 0.0
    for x in xs:
        total += x
    return total


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


@dataclass(frozen=True)
class SweepResult:
    bin_width: Fraction
    n_candidates: int
    n_configs: int
    skip_counts: dict[str, int]
    bound_violations: int
    global_hist: Histogram
    float_errors: list[float]
    slices: tuple[SliceStat, ...]

    @property
    def mean_error(self) -> float:
        return _sum(self.float_errors) / len(self.float_errors)


def _nearest_rank(sorted_xs, q: float) -> float:
    rank = max(0, math.ceil(q * len(sorted_xs)) - 1)
    return float(sorted_xs[rank])


def _eval_chunk(payload):
    """Evaluate every combination of each decomposition, in enumeration order.

    Rows are (bin index, float error, bound verdict, failure name or None).
    The hyperperiod sums of a decomposition depend on its (delta_b, delta_n)
    pair alone, so one ``_mixture_terms`` call serves all p of the pair; the
    decomposition's and each p's constants are also computed once.
    """
    decomps, combos, bin_width = payload
    bn, bd = bin_width.numerator, bin_width.denominator
    vws: dict[tuple, list] = {}  # (delta_b, delta_n) -> (v, w) of its p = (v - w)/v
    slots = []  # per combo: its pair, the position of p in vws[pair], and p = u/(u + w)
    for delta_b, delta_n, p in combos:
        u, v = p.numerator, p.denominator
        same = vws.setdefault((delta_b, delta_n), [])
        slots.append(((delta_b, delta_n), len(same), u, v - u))
        same.append((v, v - u))
    out = []
    for d in decomps:
        ab, n_period = d.a * d.b, d.n_period
        terms = {}  # (delta_b, delta_n) -> (M + 2K, [(acc, den0) per p])
        for pair, i, u, w in slots:
            try:
                if pair not in terms:
                    terms[pair] = _m2k(d, pair[1]), _mixture_terms(d, *pair, vws[pair])
                m2k, pair_terms = terms[pair]
                num, den, ok = _config_error(m2k, ab, n_period, u, w, *pair_terms[i])
            except Exception as exc:  # per-config failures become skip counters
                out.append((0, 0.0, True, type(exc).__name__))
                continue
            # int true division rounds correctly, as Fraction.__float__ does
            out.append(((num * bd) // (den * bn), num / den, ok, None))
    return out


# per factor tuple of a block: 0 if kept, else 1 + the index of its skip reason
_SKIP_REASONS = ("common_factor", "factor_mismatch", "equal_periods")
_SKIP_CODE = {r: i for i, r in enumerate((None, *_SKIP_REASONS))}


def _block_size(n_tuples: int, jobs: int) -> int:
    """Factor tuples per block: all of them inline, about four blocks per worker."""
    return n_tuples if jobs == 1 else max(1, math.ceil(n_tuples / (jobs * 4)))


def _bin_column(bins) -> np.ndarray:
    """Bin indices as int64, or as python ints where a tiny bin width takes them past it."""
    try:
        return np.array(bins, dtype=np.int64)
    except OverflowError:
        return np.array(bins, dtype=object)


def _run_block(payload):
    """Classify and evaluate the factor tuples at positions [start, stop).

    Returns the skip code of each tuple; the bin index, float error, bound
    verdict and whether its evaluation raised, per config of the kept tuples
    in enumeration order; and the failure names, in the same order.
    """
    grid, start, stop, bin_width = payload
    codes, decomps = [], []
    for _, d, reason in _iter_candidates(grid, start, stop):
        codes.append(_SKIP_CODE[reason])
        if d is not None:
            decomps.append(d)
    rows = _eval_chunk((decomps, _combos(grid), bin_width))
    bins, errs, oks, fails = zip(*rows) if rows else ((),) * 4
    return (
        np.array(codes, dtype=np.uint8),
        _bin_column(bins),
        np.array(errs, dtype=np.float64),
        np.array(oks, dtype=bool),
        np.array([f is not None for f in fails], dtype=bool),
        [f for f in fails if f is not None],
    )


def _slice_positions(n_values: int) -> list[int]:
    """The sliced values of a field: all of up to three, else first, middle and last."""
    return list(range(n_values)) if n_values <= 3 else [0, n_values // 2, n_values - 1]


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
        mean=_sum(errs.tolist()) / n if n else float("nan"),
        q01=_nearest_rank(srt, 0.01) if n else float("nan"),
        q50=_nearest_rank(srt, 0.50) if n else float("nan"),
        q99=_nearest_rank(srt, 0.99) if n else float("nan"),
        n_configs=n,
        n_skipped=holding - n,
    )


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

    n_tuples = math.prod(len(grid.values_of(f)) for f in _FACTORS)
    size = _block_size(n_tuples, jobs)
    payloads = [(grid, lo, lo + size, bin_width) for lo in range(0, n_tuples, size)]
    if jobs == 1:
        blocks = list(map(_run_block, payloads))
    else:
        with Pool(jobs) as pool:
            blocks = list(pool.imap(_run_block, payloads))

    columns = list(zip(*blocks))
    codes, bins, errs, oks, failed = map(np.concatenate, columns[:5])
    n_combos = len(_combos(grid))
    skip_counts = {
        reason: n * n_combos
        for code, reason in enumerate(_SKIP_REASONS, 1)
        if (n := int(np.count_nonzero(codes == code)))
    }
    skip_counts.update(Counter(f"error:{name}" for names in columns[5] for name in names))
    kept = np.flatnonzero(codes == 0)
    if not len(kept):
        raise EmptyGridError("no grid candidate passes the factor constraints")
    if failed.all():
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(skip_counts.items()))
        raise EmptyGridError(f"no grid config could be evaluated (skipped: {reasons})")

    # A config's position in the enumeration of all candidates, a mixed
    # radix number over PARAMETERS, gives its value of every field.
    position = (kept[:, None] * n_combos + np.arange(n_combos)).ravel()
    done = ~failed
    position, bins, errs, oks = position[done], bins[done], errs[done], oks[done]
    n_candidates = grid.n_candidates()
    slices = []
    stride = n_candidates
    for f in PARAMETERS:
        values = grid.values_of(f)
        stride //= len(values)
        column = position // stride % len(values)
        holding = n_candidates // len(values)  # candidates per value of f
        for i in _slice_positions(len(values)):
            mask = column == i
            slices.append(_slice_stat(f, values[i], bins[mask], errs[mask], holding, bin_width))

    return SweepResult(
        bin_width=bin_width,
        n_candidates=n_candidates,
        n_configs=len(errs),
        skip_counts=skip_counts,
        bound_violations=int(np.count_nonzero(~oks)),
        global_hist=_histogram(bins, bin_width),
        float_errors=errs.tolist(),
        slices=tuple(slices),
    )


def _hist_csv(hist: Histogram, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in hist.to_rows():
            fh.write(f"{left!r},{right!r},{count}\n")


def _slug(value: str) -> str:
    return value.replace("/", "-")


def write_outputs(result: SweepResult, out_dir) -> list[Path]:
    """Write global.csv, slice_*.csv and summary.csv; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "global.csv"]
    _hist_csv(result.global_hist, written[0])
    for sl in result.slices:
        path = out / f"slice_{sl.parameter}_{_slug(sl.value)}.csv"
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
