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

Evaluation runs one decomposition at a time.  Its b conditional hyperperiod
sums depend on the (delta_b, delta_n) pair alone, so each pair's sums are
computed once and shared by every p.  Each config's relative error is then
an exact integer ratio num / den, binned by floor division and turned into
a float by correctly rounded integer division; no ``Fraction`` is built.
Results are aggregated in enumeration order, so output files are
bit-identical no matter how many worker processes run the evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from multiprocessing import Pool
from pathlib import Path

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
_COMBO_FIELDS = ("delta_b", "delta_n", "p")
PARAMETERS = _FACTORS + _COMBO_FIELDS
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
# cap, cofactors 1..100 and unit factors (2.8*10^5 configs), about 11 s at
# 315 MB peak RSS in the parent process (250 MB in a worker) with --jobs 2
# on a 2-core Xeon host.
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
                f"every factor tuple and evaluates every config (about 11 s and 315 MB at the cap)"
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


def _iter_candidates(grid: SweepGrid):
    """Yield (factors, decomposition-or-None, skip reason) per factor tuple.

    ``factors`` is (A, B, N, a, b, n).  The tuple alone decides whether its
    candidates are kept: every (delta_b, delta_n, p) combination of a kept
    tuple is a config, and every combination of a skipped one is skipped.
    """
    for factors in product(grid.A, grid.B, grid.N, grid.a, grid.b, grid.n):
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
    d: PeriodDecomposition, delta_n: int, p: Fraction, acc: int, den0: int
) -> tuple[int, int, bool]:
    """(num, den, ok): the relative error is num / den with den > 0, ok its bound verdict.

    ``acc`` and ``den0`` are ``_mixture_terms`` at the config's shifts and
    p = u/v, so E = P / (u*den0) with P = w*N'*den0 + u^2*acc.  The band
    center is M/2 + K + w*N'/u with M = B' + N' - n, and its w*N'/u cancels
    against E's: (E - center) / E = num / (2P) with
    num = 2P - den0*(u*(M + 2K) + 2w*N').  The a priori bound is
    a*b*u / (u*(M - a*b + 2K) + 2w*N'), whose denominator is positive since
    K >= 2.
    """
    u, w = p.numerator, p.denominator - p.numerator
    m2k = max_bound_basic(d) + 2 * _freshness_offset(d.n, delta_n)  # M + 2K
    wn2 = 2 * w * d.n_period
    ab = d.a * d.b
    den = 2 * (w * d.n_period * den0 + u * u * acc)
    num = den - den0 * (u * m2k + wn2)
    return num, den, abs(num) * (u * (m2k - ab) + wn2) <= ab * u * den


def relative_error(cfg: SystemConfig) -> Fraction:
    """Signed relative error (exact - band center) / exact of the approximation."""
    [(acc, den0)] = _mixture_terms(cfg.d, cfg.delta_b, cfg.delta_n, [cfg.p])
    num, den, _ = _config_error(cfg.d, cfg.delta_n, cfg.p, acc, den0)
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
        return sum(self.float_errors) / len(self.float_errors)


def _nearest_rank(sorted_xs: list[float], q: float) -> float:
    rank = max(0, math.ceil(q * len(sorted_xs)) - 1)
    return sorted_xs[rank]


def _eval_chunk(payload):
    """Evaluate every combination of each decomposition, in enumeration order.

    Rows are (bin index, float error, bound verdict, failure name or None).
    The hyperperiod sums of a decomposition depend on its (delta_b, delta_n)
    pair alone, so one ``_mixture_terms`` call serves all p of the pair.
    """
    decomps, combos, bin_width = payload
    bn, bd = bin_width.numerator, bin_width.denominator
    ps: dict[tuple, list] = {}  # (delta_b, delta_n) -> its p values
    slots = []  # per combo: its pair, p and the position of p in ps[pair]
    for delta_b, delta_n, p in combos:
        same = ps.setdefault((delta_b, delta_n), [])
        slots.append(((delta_b, delta_n), p, len(same)))
        same.append(p)
    out = []
    for d in decomps:
        terms = {}  # (delta_b, delta_n) -> [(acc, den0) per p]
        for pair, p, i in slots:
            try:
                if pair not in terms:
                    terms[pair] = _mixture_terms(d, *pair, ps[pair])
                num, den, ok = _config_error(d, pair[1], p, *terms[pair][i])
            except Exception as exc:  # per-config failures become skip counters
                out.append((0, 0.0, True, type(exc).__name__))
                continue
            # int true division rounds correctly, as Fraction.__float__ does
            out.append(((num * bd) // (den * bn), num / den, ok, None))
    return out


def _slice_values(values) -> list:
    vals = list(values)
    if len(vals) <= 3:
        return vals
    return [vals[0], vals[len(vals) // 2], vals[-1]]


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

    tuples = list(_iter_candidates(grid))
    decomps = [d for _, d, _ in tuples if d is not None]
    combos = _combos(grid)
    if not decomps or not combos:
        raise EmptyGridError("no grid candidate passes the factor constraints")

    if jobs == 1:
        evals = _eval_chunk((decomps, combos, bin_width))
    else:
        chunk = max(1, math.ceil(len(decomps) / (jobs * 4)))
        payloads = [
            (decomps[i : i + chunk], combos, bin_width)
            for i in range(0, len(decomps), chunk)
        ]
        with Pool(jobs) as pool:
            evals = [row for batch in pool.map(_eval_chunk, payloads) for row in batch]

    # Stitch the results back onto the tuples, in enumeration order.  Each
    # slice is a position in slice_plan; a config counts in the slices of
    # its factor values and in those of its (delta_b, delta_n, p) values.
    slice_plan = [(f, v) for f in PARAMETERS for v in _slice_values(grid.values_of(f))]
    position = {key: i for i, key in enumerate(slice_plan)}
    combo_slots = [
        [position[key] for key in zip(_COMBO_FIELDS, combo) if key in position]
        for combo in combos
    ]
    counts: list[dict[int, int]] = [{} for _ in slice_plan]
    errors: list[list[float]] = [[] for _ in slice_plan]
    skipped = [0] * len(slice_plan)
    skipped_tuples = 0
    skip_counts: dict[str, int] = {}
    global_counts: dict[int, int] = {}
    float_errors: list[float] = []
    bound_violations = 0

    rows = iter(evals)
    for factors, d, reason in tuples:
        slots = [position[key] for key in zip(_FACTORS, factors) if key in position]
        if d is None:
            skip_counts[reason] = skip_counts.get(reason, 0) + len(combos)
            skipped_tuples += 1
            for i in slots:
                skipped[i] += len(combos)
            continue
        for cslots in combo_slots:
            bin_idx, err_f, ok, fail = next(rows)
            if fail is not None:
                key = f"error:{fail}"
                skip_counts[key] = skip_counts.get(key, 0) + 1
                for i in slots + cslots:
                    skipped[i] += 1
                continue
            if not ok:
                bound_violations += 1
            global_counts[bin_idx] = global_counts.get(bin_idx, 0) + 1
            float_errors.append(err_f)
            for i in slots + cslots:
                counts[i][bin_idx] = counts[i].get(bin_idx, 0) + 1
                errors[i].append(err_f)
    # each combination of a skipped tuple is skipped in its own slices
    for cslots in combo_slots:
        for i in cslots:
            skipped[i] += skipped_tuples
    if not float_errors:
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(skip_counts.items()))
        raise EmptyGridError(f"no grid config could be evaluated (skipped: {reasons})")

    slices = []
    for (f, v), errs, hist, n_skipped in zip(slice_plan, errors, counts, skipped):
        srt = sorted(errs)
        slices.append(
            SliceStat(
                parameter=f,
                value=str(v),
                histogram=Histogram(bin_width, hist),
                mean=sum(errs) / len(errs) if errs else float("nan"),
                q01=_nearest_rank(srt, 0.01) if errs else float("nan"),
                q50=_nearest_rank(srt, 0.50) if errs else float("nan"),
                q99=_nearest_rank(srt, 0.99) if errs else float("nan"),
                n_configs=len(errs),
                n_skipped=n_skipped,
            )
        )

    return SweepResult(
        bin_width=bin_width,
        n_candidates=grid.n_candidates(),
        n_configs=len(float_errors),
        skip_counts=skip_counts,
        bound_violations=bound_violations,
        global_hist=Histogram(bin_width, global_counts),
        float_errors=float_errors,
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
