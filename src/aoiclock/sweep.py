"""Grid sweeps comparing the banded approximation against the exact mean.

A grid file lists candidate factor tuples (A, B, N, a, b, n), phase shifts
and loss probabilities.  Each candidate is rebuilt into concrete periods
(a_period = A*b*n and so on) and kept only when the periods decompose back
into exactly those factors; everything else is counted and skipped.  For
each surviving config the sweep computes the exact expectation and the band
center, bins the signed relative error (exact - center) / exact, and writes
deterministic CSV outputs: a global histogram, per-parameter slice
histograms, and a quantile summary.

Binning uses exact rational arithmetic and results are aggregated in
enumeration order, so output files are bit-identical no matter how many
worker processes run the evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool
from pathlib import Path

from .basic import ConfigError, decompose
from .extended import (
    SystemConfig,
    _as_probability,
    expected_approx_extended,
    expected_exact_extended,
    rel_error_bound_extended,
)

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

_INT_FIELDS = ("A", "B", "N", "a", "b", "n", "delta_b", "delta_n")
PARAMETERS = _INT_FIELDS + ("p",)

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


class EmptyGridError(ValueError):
    """Raised when no grid candidate survives validation."""


def _parse_int_field(name, raw) -> tuple[int, ...]:
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
        vals = list(range(lo, hi + 1, step))
    elif isinstance(raw, list):
        vals = [int(v) for v in raw]
    else:
        raise ValueError(f"grid field {name}: expected int, list or range string")
    floor = 0 if name.startswith("delta") else 1
    for v in vals:
        if v < floor:
            raise ValueError(f"grid field {name}: value {v} below {floor}")
    return tuple(sorted(set(vals)))


def _parse_p_field(raw) -> tuple[Fraction, ...]:
    if not isinstance(raw, list):
        raw = [raw]
    return tuple(sorted({_as_probability(v) for v in raw}))


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
        kwargs = {f: _parse_int_field(f, merged[f]) for f in _INT_FIELDS}
        kwargs["p"] = _parse_p_field(merged["p"])
        return cls(**kwargs)

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
    """Yield (params dict, config-or-None, skip reason) in enumeration order."""
    for A in grid.A:
        for B in grid.B:
            for N in grid.N:
                for a in grid.a:
                    for b in grid.b:
                        for n in grid.n:
                            ap, bp, np_ = A * b * n, B * b * a, N * n * a
                            try:
                                d = decompose(ap, bp, np_)
                            except ConfigError:
                                d, reason = None, "common_factor"
                            else:
                                if (d.A, d.B, d.N, d.a, d.b, d.n) != (A, B, N, a, b, n):
                                    d, reason = None, "factor_mismatch"
                                elif ap == bp == np_:
                                    d, reason = None, "equal_periods"
                                else:
                                    reason = None
                            for delta_b in grid.delta_b:
                                for delta_n in grid.delta_n:
                                    for p in grid.p:
                                        params = {
                                            "A": A, "B": B, "N": N,
                                            "a": a, "b": b, "n": n,
                                            "delta_b": delta_b, "delta_n": delta_n,
                                            "p": p,
                                        }
                                        if d is None:
                                            yield params, None, reason
                                        else:
                                            cfg = SystemConfig(d, delta_b, delta_n, p)
                                            yield params, cfg, None


def enumerate_configs(grid: SweepGrid) -> list[SystemConfig]:
    """All valid configs of the grid, in deterministic enumeration order."""
    configs = [cfg for _, cfg, _ in _iter_candidates(grid) if cfg is not None]
    if not configs:
        raise EmptyGridError("no grid candidate passes the factor constraints")
    return configs


def relative_error(cfg: SystemConfig) -> Fraction:
    """Signed relative error (exact - band center) / exact of the approximation."""
    exact = expected_exact_extended(cfg).value
    center = expected_approx_extended(cfg).center
    return (exact - center) / exact


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
    grid: SweepGrid
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
    configs, bin_width = payload
    out = []
    for cfg in configs:
        try:
            err = relative_error(cfg)
            ok = abs(err) <= rel_error_bound_extended(cfg)
            out.append((math.floor(err / bin_width), float(err), ok, None))
        except Exception as exc:  # per-config failures become skip counters
            out.append((0, 0.0, True, type(exc).__name__))
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

    candidates = list(_iter_candidates(grid))
    configs = [cfg for _, cfg, _ in candidates if cfg is not None]
    if not configs:
        raise EmptyGridError("no grid candidate passes the factor constraints")

    if jobs == 1:
        evals = _eval_chunk((configs, bin_width))
    else:
        chunk = max(1, math.ceil(len(configs) / (jobs * 4)))
        payloads = [
            (configs[i : i + chunk], bin_width) for i in range(0, len(configs), chunk)
        ]
        with Pool(jobs) as pool:
            evals = [row for batch in pool.map(_eval_chunk, payloads) for row in batch]

    # stitch evaluation results back onto the candidate stream, in order
    skip_counts: dict[str, int] = {}
    global_counts: dict[int, int] = {}
    float_errors: list[float] = []
    by_param: dict[tuple[str, object], dict] = {}
    slice_plan = [(f, v) for f in PARAMETERS for v in _slice_values(grid.values_of(f))]
    for key in slice_plan:
        by_param[key] = {"counts": {}, "errors": [], "skipped": 0}
    bound_violations = 0

    it = iter(evals)
    for params, cfg, reason in candidates:
        if cfg is not None:
            bin_idx, err_f, ok, fail = next(it)
            if fail is not None:
                reason = f"error:{fail}"
        if reason is not None:
            skip_counts[reason] = skip_counts.get(reason, 0) + 1
            for f in PARAMETERS:
                key = (f, params[f])
                if key in by_param:
                    by_param[key]["skipped"] += 1
            continue
        if not ok:
            bound_violations += 1
        global_counts[bin_idx] = global_counts.get(bin_idx, 0) + 1
        float_errors.append(err_f)
        for f in PARAMETERS:
            key = (f, params[f])
            if key in by_param:
                sl = by_param[key]
                sl["counts"][bin_idx] = sl["counts"].get(bin_idx, 0) + 1
                sl["errors"].append(err_f)

    slices = []
    for f, v in slice_plan:
        sl = by_param[(f, v)]
        errs = sl["errors"]
        srt = sorted(errs)
        slices.append(
            SliceStat(
                parameter=f,
                value=str(v),
                histogram=Histogram(bin_width, sl["counts"]),
                mean=sum(errs) / len(errs) if errs else float("nan"),
                q01=_nearest_rank(srt, 0.01) if errs else float("nan"),
                q50=_nearest_rank(srt, 0.50) if errs else float("nan"),
                q99=_nearest_rank(srt, 0.99) if errs else float("nan"),
                n_configs=len(errs),
                n_skipped=sl["skipped"],
            )
        )

    return SweepResult(
        grid=grid,
        bin_width=bin_width,
        n_candidates=len(candidates),
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
