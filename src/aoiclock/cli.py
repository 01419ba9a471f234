"""Command line front end: analyze, simulate, verify, sweep.

Exit codes: 0 on success, 1 for failed verification checks or I/O problems,
2 for configuration and usage errors.  Exact rationals appear in JSON as
"num/den" strings next to a *_float convenience field.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__, kernels
from .basic import (
    ConfigError,
    NullSequenceError,
    decompose,
    distribution_basic,
    expected_approx_basic,
    expected_exact_basic,
    max_bound_basic,
    rel_error_bound_basic,
    sequence_basic,
)
from .extended import (
    SystemConfig,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    freshness_offset_K,
    max_bound_lossless,
    max_bound_prob,
    rel_error_bound_extended,
    sequence_conditional,
)
from .simulate import RngSpec, empirical_mean, simulate_basic, simulate_extended, write_trace_csv
from .sweep import EmptyGridError, SweepGrid, run_sweep, write_outputs

# verify expands whole hyperperiods and simulates three of them, about 140
# (basic) to 200 (extended) bytes per read: at 1.97*10^6 reads, periods
# (7, 1399, 1409), the basic checks peak at 272 MB in 0.7 s and the extended
# ones (p = 1/2, seed 1) at 398 MB in 1.25 s on a 2-core Xeon host (the
# child's peak RSS from rusage; median wall time including start-up).
_MAX_VERIFY_READS = 2 * 10**6


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _add_config_flags(sub):
    sub.add_argument("--a-period", type=int, required=True, help="reader period in slots")
    sub.add_argument("--b-period", type=int, required=True, help="source period in slots")
    sub.add_argument("--n-period", type=int, required=True, help="link period in slots")
    sub.add_argument("--model", choices=("basic", "extended"), default="basic")
    sub.add_argument("--delta-b", type=int, default=0, help="source phase shift (extended)")
    sub.add_argument("--delta-n", type=int, default=0, help="link phase shift (extended)")
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
    return {
        "min": dist.min(),
        "max": dist.max(),
        "mean": _rat(mean),
        "mean_float": float(mean),
        "hyperperiod_reads": dist.period,
        "progressions": [],
        **extra,
    }


def _band_block(band):
    return {
        "center": _rat(band.center), "center_float": float(band.center),
        "half_width": _rat(band.half_width), "half_width_float": float(band.half_width),
    }


# one start/step/count object of report["distribution"]["progressions"], as
# json.dumps(indent=2) writes it at that depth
_PROGRESSION = '      {\n        "start": %d,\n        "step": %d,\n        "count": %d\n      }'


def _report_json(report, progressions) -> str:
    """``json.dumps(report, indent=2)`` with ``progressions`` in place of the
    distribution block's empty list, byte for byte.

    The a*N progressions go through one %-format over a flat tuple instead of
    one dict each through the pure-Python encoder that ``indent`` selects.
    """
    head, _, tail = json.dumps(report, indent=2).partition('"progressions": []')
    flat = tuple(x for pr in progressions for x in (pr.start, pr.step, pr.count))
    items = ",\n".join([_PROGRESSION] * len(progressions)) % flat
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
            "p": _rat(cfg.p),
            "p_float": float(cfg.p),
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
        report["expected_exact"] = _rat(exact)
        report["expected_exact_float"] = float(exact)
        report["band"] = _band_block(expected_approx_basic(d))
        try:
            bound = rel_error_bound_basic(d)
            report["rel_error_bound"] = _rat(bound)
            report["rel_error_bound_float"] = float(bound)
        except NullSequenceError:
            report["rel_error_bound"] = None
            report["rel_error_bound_float"] = None
            report["rel_error_note"] = "age is identically zero; relative error unbounded"
        report["max_bound"] = max_bound_basic(d)
        report["observed_max"] = dist.max()
    else:
        dist = distribution_conditional(cfg, 0)
        exact = expected_exact_extended(cfg)
        bound = rel_error_bound_extended(cfg)
        report["freshness_offset"] = freshness_offset_K(cfg)
        report["distribution"] = _distribution_block(dist, dist.mean(), conditioned_on_l=0)
        report["expectation"] = {
            "value": _rat(exact.value),
            "value_float": float(exact.value),
            "tail_bound": _rat(exact.tail_bound),
            "tail_bound_float": float(exact.tail_bound),
            "terms_used": exact.terms_used,
        }
        report["band"] = _band_block(expected_approx_extended(cfg))
        report["rel_error_bound"] = _rat(bound)
        report["rel_error_bound_float"] = float(bound)
        if cfg.p == 1:
            # with lossless delivery the probabilistic machinery degenerates
            # to a hard bound
            report["max_bound"] = max_bound_lossless(cfg)
        if args.sigma is not None:
            report["sigma"] = _rat(args.sigma)
            report["max_bound_prob"] = max_bound_prob(cfg, args.sigma)
    print(_report_json(report, dist.progressions))
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    if args.model == "basic":
        trace = simulate_basic(cfg.d, args.cycles)
    else:
        if args.seed is None:
            raise ConfigError("the extended model is stochastic; --seed is required")
        trace = simulate_extended(cfg, args.cycles, RngSpec(args.seed))
    if args.out == "-":
        write_trace_csv(trace, sys.stdout)
    else:
        write_trace_csv(trace, args.out)
    warm = trace.warmup_cycles
    if warm < trace.cycles:
        mean = empirical_mean(trace, warm, trace.cycles - warm)
        peak = int(trace.ages[warm:].max())
        print(
            f"cycles={trace.cycles} warmup={warm} "
            f"mean={float(mean):.6f} max={peak}",
            file=sys.stderr,
        )
    else:
        print(f"cycles={trace.cycles} warmup={warm} (no delivery seen)", file=sys.stderr)
    return 0


def _check_equal(failures: list[str], name: str, got, want, describe) -> None:
    """Two arrays element by element; ``describe(i)`` details the first index that differs."""
    bad = np.flatnonzero(got != want)
    _check(failures, name, not len(bad), describe(bad[0]) if len(bad) else "")


def _check_family(failures: list[str], name: str, dist, seq, where: str = "") -> None:
    """The closed-form family and the directly evaluated reads as multisets."""
    closed, direct = dist.to_sorted_array(), np.sort(seq)
    _check_equal(failures, name, closed, direct, lambda k: f"{where}first mismatch at sorted "
                 f"position {k}: closed={closed[k]} direct={direct[k]}")


def _verify_basic(d, cycles: int, failures: list[str]) -> None:
    period = d.period

    seq = sequence_basic(d, 1, period)
    _check_family(failures, "progression_family_multiset", distribution_basic(d), seq)

    exact = expected_exact_basic(d)
    mean = Fraction(kernels.exact_sum(seq), period)
    _check(failures, "closed_form_mean", exact == mean, f"closed={exact} direct={mean}")

    band = expected_approx_basic(d)
    _check(failures, "band_membership", band.contains(exact),
           f"exact={exact} band=[{band.low}, {band.high}]")

    peak = int(seq.max())
    bound = max_bound_basic(d)
    _check(failures, "max_bound", peak <= bound, f"observed={peak} bound={bound}")

    trace = simulate_basic(d, cycles)
    model = sequence_basic(d, 0, cycles)
    _check_equal(failures, "simulator_matches_formula", trace.ages, model, lambda k:
                 f"first mismatch at k={k}: simulated={trace.ages[k]} formula={model[k]}")


def _verify_extended(cfg: SystemConfig, l_max: int, seed: int, cycles: int, failures: list[str]) -> None:
    period = cfg.d.period

    for l in range(l_max + 1):
        _check_family(
            failures, f"progression_family_multiset_l{l}", distribution_conditional(cfg, l),
            sequence_conditional(cfg, l, 1, period), f"l={l}, ",
        )

    exact = expected_exact_extended(cfg).value
    band = expected_approx_extended(cfg)
    _check(failures, "band_membership", band.contains(exact),
           f"exact={exact} band=[{band.low}, {band.high}]")

    trace = simulate_extended(cfg, cycles, RngSpec(seed))
    warm = trace.warmup_cycles
    ages, fails = trace.ages[warm:], trace.fails[warm:]
    d = cfg.d
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    kernels.check_sequence_args(*shape, int(fails.max(initial=0)), warm, len(fails))
    # the sequence kernel takes a failure count per read as it takes one for
    # all, so the whole trace costs one pass however many counts occur
    want = kernels.seq_conditional(*shape, fails, warm, len(fails))
    _check_equal(failures, "trace_bridge_identity", ages, want, lambda i:
                 f"k={warm + i} l={fails[i]}: simulated={ages[i]} formula={want[i]}")

    if cfg.p == 1:
        model = sequence_conditional(cfg, 0, warm, len(ages))
        _check_equal(failures, "lossless_trace_matches_formula", ages, model,
                     lambda i: f"first mismatch at k={warm + i}")


def _check(failures: list[str], name: str, ok: bool, detail: str = "") -> None:
    if ok:
        print(f"check {name}: PASS")
    else:
        suffix = f" ({detail})" if detail else ""
        print(f"check {name}: FAIL{suffix}")
        failures.append(name)


def cmd_verify(args) -> int:
    if args.l_max is not None and args.l_max < 0:
        raise ConfigError("--l-max must be >= 0")
    if args.cycles is not None and args.cycles < 1:
        raise ConfigError("--cycles must be >= 1")
    cfg = _config_from_args(args)
    if cfg.d.period > _MAX_VERIFY_READS:
        raise ConfigError(
            f"hyperperiod of {cfg.d.period} reads is over verify's cap of {_MAX_VERIFY_READS}: "
            f"verify expands whole hyperperiods, in memory that grows with them"
        )
    d = cfg.d
    basic = args.model == "basic"
    cycles = args.cycles or 3 * d.period + (1 if basic else 50)
    l_max = 0 if basic else 3 if args.l_max is None else args.l_max
    # the guards of the hyperperiod sequences, of the simulation and of the
    # formula over the simulated reads run before the first check prints
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    kernels.check_sequence_args(*shape, l_max, 1, d.period)
    kernels.check_simulate_args(*shape, cycles)
    kernels.check_sequence_args(*shape, 0, 0, cycles)
    failures: list[str] = []
    if basic:
        _verify_basic(d, cycles, failures)
    else:
        _verify_extended(cfg, l_max, 0 if args.seed is None else args.seed, cycles, failures)
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


def build_parser() -> argparse.ArgumentParser:
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
    sim.add_argument("--cycles", type=int, required=True, help="number of reads to simulate")
    sim.add_argument("--seed", type=int, default=None, help="rng seed (extended model)")
    sim.add_argument("--out", default="-", help="trace file, '-' for stdout")
    sim.set_defaults(func=cmd_simulate)

    ver = subs.add_parser("verify", help="cross-check closed forms against direct evaluation")
    _add_config_flags(ver)
    ver.add_argument("--l-max", type=int, default=None,
                     help="check conditional families up to this l (extended, default 3)")
    ver.add_argument("--cycles", type=int, default=None, help="simulated reads (default: 3 hyperperiods)")
    ver.add_argument("--seed", type=int, default=None, help="rng seed for the trace check")
    ver.set_defaults(func=cmd_verify)

    sw = subs.add_parser("sweep", help="grid sweep of approximation error")
    sw.add_argument("--grid", required=True, help="JSON grid file")
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--bin-width", type=_fraction, default=Fraction(1, 100))
    sw.add_argument("--jobs", type=int, default=1)
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    # an exact expectation at p = u/v has a denominator of about b*log10(v)
    # digits, past the default int<->str conversion limit (Python 3.11+); the
    # limit is lifted for this call only, so a program that calls main keeps
    # its own guard against huge-int conversions
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (ConfigError, EmptyGridError, ValueError, OverflowError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
