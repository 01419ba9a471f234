"""Command line front end: analyze, simulate, verify, sweep.

Exit codes: 0 on success, 1 for failed verification checks or I/O problems,
2 for configuration and usage errors.  Exact rationals appear in JSON as
"num/den" strings next to a *_float convenience field, which is null where
the exact value is past float range.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__, verify
from .basic import (
    ConfigError,
    NullSequenceError,
    decompose,
    distribution_basic,
    expected_approx_basic,
    expected_exact_basic,
    max_bound_basic,
    rel_error_bound_basic,
)
from .extended import (
    SystemConfig,
    _past_digit_limit,
    _rat,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    freshness_offset_K,
    max_bound_lossless,
    max_bound_prob,
    rel_error_bound_extended,
)
from .simulate import RngSpec, stream_basic, stream_extended, write_trace_csv
from .sweep import SweepGrid, run_sweep, write_outputs


def _number(parse, refusal: str, text: str):
    """A flag's ``parse(text)``; a term past the int<->str digit limit is refused by its size."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        why = _past_digit_limit(text) or f"{refusal}: {text!r}"
        raise argparse.ArgumentTypeError(why) from exc


_int = functools.partial(_number, int, "invalid int value")
_fraction = functools.partial(_number, Fraction, "not a rational number")


def _exact(name: str, x: Fraction) -> dict:
    """The report's fields for ``x``: ``name`` as "num/den", and ``name``_float
    as the nearest float, or None (null) past float range."""
    try:
        near = float(x)
    except OverflowError:
        near = None
    return {name: _rat(x), f"{name}_float": near}


def _add_config_flags(sub):
    sub.add_argument("--a-period", type=_int, required=True, help="reader period in slots")
    sub.add_argument("--b-period", type=_int, required=True, help="source period in slots")
    sub.add_argument("--n-period", type=_int, required=True, help="link period in slots")
    sub.add_argument("--model", choices=("basic", "extended"), default="basic")
    sub.add_argument("--delta-b", type=_int, default=0, help="source phase shift (extended)")
    sub.add_argument("--delta-n", type=_int, default=0, help="link phase shift (extended)")
    sub.add_argument("--p", type=_fraction, default=Fraction(1),
                     help="transmission success probability, exact rational (extended)")


def _config_from_args(args) -> SystemConfig:
    """The config the flags describe; ``--model basic`` admits only the lossless one."""
    d = decompose(args.a_period, args.b_period, args.n_period)
    cfg = SystemConfig(d, args.delta_b, args.delta_n, args.p)
    if args.model == "basic":
        if cfg.delta_b or cfg.delta_n or cfg.p != 1:
            raise ConfigError("the lossless model has no phase shifts and p == 1")
        if getattr(args, "seed", None) is not None:
            raise ConfigError("the basic model is deterministic; --seed does not apply")
        for dest, flag in (("sigma", "--sigma"), ("l_max", "--l-max")):
            if getattr(args, dest, None) is not None:
                raise ConfigError(f"the basic model is lossless; {flag} does not apply")
    return cfg


def _distribution_block(dist, mean, **extra):
    """The report's distribution block, ``mean`` being ``dist.mean()``;
    ``_report_json`` fills in the empty ``progressions`` list."""
    return {"min": dist.min(), "max": dist.max(), **_exact("mean", mean),
            "hyperperiod_reads": dist.period, "progressions": [], **extra}


def _band_block(band):
    return {**_exact("center", band.center), **_exact("half_width", band.half_width)}


# one start/step/count object of report["distribution"]["progressions"], as
# json.dumps(indent=2) writes it at that depth; a family shares one step and
# one count, so formatting them in leaves a template of the start alone
_PROGRESSION = '      {\n        "start": %%d,\n        "step": %d,\n        "count": %d\n      }'


def _report_json(report, dist) -> str:
    """``json.dumps(report, indent=2)`` with the progressions of the family
    ``dist`` in place of the distribution block's empty list, byte for byte.

    The a*N starts go through one %-format over their list instead of one
    dict each through the pure-Python encoder that ``indent`` selects.
    """
    head, _, tail = json.dumps(report, indent=2).partition('"progressions": []')
    starts = dist.starts.tolist()
    items = ",\n".join([_PROGRESSION % (dist.step, dist.count)] * len(starts)) % tuple(starts)
    return f'{head}"progressions": [\n{items}\n    ]{tail}'


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    d = cfg.d
    report = {
        "config": {
            "a_period": d.a_period,
            "b_period": d.b_period,
            "n_period": d.n_period,
            "model": args.model,
            "delta_b": cfg.delta_b,
            "delta_n": cfg.delta_n,
            **_exact("p", cfg.p),
        },
        "decomposition": {
            "A": d.A, "B": d.B, "N": d.N, "a": d.a, "b": d.b, "n": d.n,
            "hyperperiod_reads": d.period,
        },
    }
    if args.model == "basic":
        dist = distribution_basic(d)
        exact = expected_exact_basic(d)
        report["distribution"] = _distribution_block(dist, exact)
        report.update(_exact("expected_exact", exact))
        report["band"] = _band_block(expected_approx_basic(d))
        try:
            report.update(_exact("rel_error_bound", rel_error_bound_basic(d)))
        except NullSequenceError:
            report.update(rel_error_bound=None, rel_error_bound_float=None,
                          rel_error_note="age is identically zero; relative error unbounded")
        report["max_bound"] = max_bound_basic(d)
        report["observed_max"] = dist.max()
    else:
        dist = distribution_conditional(cfg, 0)
        exact = expected_exact_extended(cfg)
        report["freshness_offset"] = freshness_offset_K(cfg)
        report["distribution"] = _distribution_block(dist, dist.mean(), conditioned_on_l=0)
        report["expectation"] = {
            **_exact("value", exact.value),
            **_exact("tail_bound", exact.tail_bound),
            "terms_used": exact.terms_used,
        }
        report["band"] = _band_block(expected_approx_extended(cfg))
        report.update(_exact("rel_error_bound", rel_error_bound_extended(cfg)))
        if cfg.p == 1:  # lossless delivery: the probabilistic bound is a hard one
            report["max_bound"] = max_bound_lossless(cfg)
        if args.sigma is not None:
            report["sigma"] = _rat(args.sigma)
            report["max_bound_prob"] = max_bound_prob(cfg, args.sigma)
    print(_report_json(report, dist))
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    d = cfg.d
    basic = args.model == "basic"
    if not basic and args.seed is None:
        raise ConfigError("the extended model is stochastic; --seed is required")
    # the stream's guard runs when it is built; its blocks are drawn only as
    # the writer asks for them, after --out is opened, so an unwritable path
    # fails before the run and memory follows the block, not the run
    trace = (stream_basic(d, args.cycles) if basic
             else stream_extended(cfg, args.cycles, RngSpec(args.seed)))
    write_trace_csv(trace, sys.stdout if args.out == "-" else args.out)
    warm = trace.warmup_cycles
    if warm < trace.cycles:
        mean = Fraction(trace.age_sum, trace.cycles - warm)
        print(
            f"cycles={trace.cycles} warmup={warm} "
            f"mean={float(mean):.6f} max={trace.age_max}",
            file=sys.stderr,
        )
    else:
        print(f"cycles={trace.cycles} warmup={warm} (no delivery seen)", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.l_max is not None and args.l_max < 0:
        raise ConfigError("--l-max must be >= 0")
    if args.cycles is not None and args.cycles < 1:
        raise ConfigError("--cycles must be >= 1")
    cfg = _config_from_args(args)
    basic = args.model == "basic"
    cycles = args.cycles or 3 * cfg.d.period + (1 if basic else 50)
    l_max = 0 if basic else 3 if args.l_max is None else args.l_max
    failures = []
    for name, ok, detail in verify.checks(cfg, basic, l_max, cycles, args.seed):
        print(f"check {name}: PASS" if ok else f"check {name}: FAIL ({detail()})")
        if not ok:
            failures.append(name)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def cmd_sweep(args) -> int:
    grid = SweepGrid.from_json(args.grid)
    result = run_sweep(grid, bin_width=args.bin_width, jobs=args.jobs)
    paths = write_outputs(result, args.out)
    skips = ", ".join(f"{k}={v}" for k, v in sorted(result.skip_counts.items())) or "none"
    print(f"candidates={result.n_candidates} evaluated={result.n_configs} skipped: {skips}")
    print(f"mean_error={result.mean_error!r} bound_violations={result.bound_violations}")
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then shared by
    every ``main`` call of the process, so callers must not change it.

    Sharing is safe: parsing does not mutate it, its defaults are immutable,
    and help is laid out for ``COLUMNS`` when printed, not when built.
    """
    parser = argparse.ArgumentParser(
        prog="aoiclock",
        description="Exact age-of-information analysis for clocked sender/receiver pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    an = subs.add_parser("analyze", help="closed-form report for one config")
    _add_config_flags(an)
    an.add_argument("--sigma", type=_fraction, default=None,
                    help="confidence for the probabilistic max bound (extended)")
    an.set_defaults(func=cmd_analyze)

    sim = subs.add_parser("simulate", help="run the slot-exact simulator, write a trace CSV")
    _add_config_flags(sim)
    sim.add_argument("--cycles", type=_int, required=True, help="number of reads to simulate")
    sim.add_argument("--seed", type=_int, default=None, help="rng seed (extended model)")
    sim.add_argument("--out", default="-", help="trace file, '-' for stdout")
    sim.set_defaults(func=cmd_simulate)

    ver = subs.add_parser("verify", help="cross-check closed forms against direct evaluation")
    _add_config_flags(ver)
    ver.add_argument("--l-max", type=_int, default=None,
                     help="check conditional families up to this l (extended, default 3)")
    ver.add_argument("--cycles", type=_int, default=None, help="simulated reads (default: 3 hyperperiods)")
    ver.add_argument("--seed", type=_int, default=None, help="rng seed for the trace check")
    ver.set_defaults(func=cmd_verify)

    sw = subs.add_parser("sweep", help="grid sweep of approximation error")
    sw.add_argument("--grid", required=True, help="JSON grid file")
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--bin-width", type=_fraction, default=Fraction(1, 100))
    sw.add_argument("--jobs", type=_int, default=1,
                    help="processes that evaluate the grid, this one included; at most one "
                         "per CPU core and per block of factor tuples (default 1)")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
