"""Command line front end: analyze, simulate, verify, sweep.

Exit codes: 0 on success, 1 for failed verification checks or I/O problems,
2 for configuration and usage errors.  Exact rationals appear in JSON as
"num/den" strings next to a *_float convenience field, which is null where
the exact value is past float range.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
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
from .simulate import RngSpec, stream_basic, stream_extended, write_trace_csv
from .sweep import SweepGrid, run_sweep, write_outputs

# verify's family checks expand and sort whole hyperperiods, about 32 bytes
# per read; its trace checks stream the simulated run block by block, in
# memory that does not grow with --cycles.  At 1.97*10^6 reads, periods
# (7, 1399, 1409), the basic checks peak at 91 MB in 0.64 s and the extended
# ones (p = 1/2, seed 1) at 92 MB in 0.93 s on a 2-core Xeon host (the
# child's peak RSS from rusage; median of three wall times, start-up included).
_MAX_VERIFY_READS = 2 * 10**6


def _number(parse, refusal: str, text: str):
    """A flag's ``parse(text)``; a term past the interpreter's int<->str digit limit
    (Python 3.11+), which ``int()`` refuses, is refused by its size, not its digits."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        digits = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
        if 0 < limit < digits:
            raise argparse.ArgumentTypeError(f"a term of {digits} digits is past the interpreter's "
                                             f"limit of {limit} digits for int<->str conversion")
        raise argparse.ArgumentTypeError(f"{refusal}: {text!r}") from exc


_int = functools.partial(_number, int, "invalid int value")
_fraction = functools.partial(_number, Fraction, "not a rational number")


# str() writes up to this many bits (632 digits), under any digit limit CPython admits
_STR_BITS = 2_100


def _int_text(n: int) -> str:
    """``str(n)``, past the digit limit too: a longer n is rebuilt as an exact
    Decimal from halves of its bits, hi * 2^h + lo, in a local context, as in
    CPython 3.12's ``_pylong``: Decimal products, not ``str()``'s quadratic loop."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    power = functools.cache(lambda h: Decimal(2) ** h)

    def exact(x: int, bits: int) -> Decimal:  # 0 <= x < 2^bits
        if bits <= 128:
            return Decimal(x)
        h = bits // 2
        return exact(x & (1 << h) - 1, h) + exact(x >> h, bits - h) * power(h)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        return ("-" if n < 0 else "") + str(exact(abs(n), n.bit_length()))


def _rat(x: Fraction) -> str:
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _text(x: Fraction) -> str:
    """``str(x)``: n, or n/d."""
    return _rat(x) if x.denominator != 1 else _int_text(x.numerator)


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
    rng = None if basic else RngSpec(args.seed)
    kernels.check_simulate_args(
        d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n, args.cycles
    )
    # --out is opened before the run, so that an unwritable path fails at
    # once; held open, it keeps a named pipe's reader attached until the
    # writer reopens it by path.  The trace is written as the simulator
    # yields its blocks, so memory follows the block, not the run
    with contextlib.nullcontext() if args.out == "-" else open(args.out, "ab"):
        trace = (stream_basic(d, args.cycles) if basic
                 else stream_extended(cfg, args.cycles, rng))
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


def _check_family(failures: list[str], name: str, dist, seq, where: str = "") -> None:
    """The closed-form family and the directly evaluated reads as multisets,
    compared as sorted arrays; the detail names the first position that differs."""
    closed, direct = dist.to_sorted_array(), np.sort(seq)
    bad = np.flatnonzero(closed != direct)
    _check(failures, name, not len(bad), lambda: f"{where}first mismatch at sorted position "
           f"{bad[0]}: closed={closed[bad[0]]} direct={direct[bad[0]]}")


def _check_trace(failures: list[str], checks, stream, shape, skip_warmup: bool = True) -> None:
    """The streamed reads, block by block, against each ``(name, formula,
    detail)`` check of ``checks``: ``formula(k0, fails)`` is the closed
    form's reads k0, k0 + 1, ... at the reads' failure counts.

    The run is streamed once for all the checks.  The warm-up prefix is
    skipped unless ``skip_warmup`` is false, and a block with no read left
    runs no check.  Each check stops at its first read that differs, and its
    ``detail`` is formatted with that read's ``k``, ``l``, ``sim`` and
    ``model``; the stream stops once every check has failed.  Each block
    passes the sequence kernels' guard for the periods and shifts ``shape``
    first.  The checks print in their order.
    """
    found = {}  # name -> the detail of its first mismatch
    for k0, ages, fails in stream.blocks():
        # the stream's warm-up is final once a block holds a defined read,
        # and the run's length before then, so every block of it is skipped
        cut = min(len(ages), max(0, stream.warmup_cycles - k0)) if skip_warmup else 0
        k0, ages, fails = k0 + cut, ages[cut:], fails[cut:]
        if not len(ages):
            continue
        kernels.check_sequence_args(*shape, int(fails.max(initial=0)), k0, len(fails))
        for name, formula, detail in checks:
            if name in found:
                continue
            want = formula(k0, fails)
            bad = np.flatnonzero(ages != want)
            if len(bad):
                i = bad[0]
                found[name] = detail.format(k=k0 + i, l=fails[i], sim=ages[i], model=want[i])
        if len(found) == len(checks):
            break
    for name, _, _ in checks:
        _check(failures, name, name not in found, lambda: found[name])


def _verify_basic(d, cycles: int, failures: list[str]) -> None:
    period = d.period

    seq = sequence_basic(d, 1, period)
    _check_family(failures, "progression_family_multiset", distribution_basic(d), seq)

    exact = expected_exact_basic(d)
    mean = Fraction(kernels.exact_sum(seq), period)
    _check(failures, "closed_form_mean", exact == mean,
           lambda: f"closed={_text(exact)} direct={_text(mean)}")
    _check_band(failures, expected_approx_basic(d), exact)

    peak = int(seq.max())
    bound = max_bound_basic(d)
    _check(failures, "max_bound", peak <= bound, lambda: f"observed={peak} bound={bound}")

    # the lossless model delivers at slot 0, so every read is compared: a
    # read the simulator marks undefined is a mismatch, not a warm-up
    shape = (d.a_period, d.b_period, d.n_period, 0, 0)
    check = ("simulator_matches_formula",
             lambda k0, fails: kernels.seq_basic(*shape[:3], k0, len(fails)),
             "first mismatch at k={k}: simulated={sim} formula={model}")
    _check_trace(failures, [check], stream_basic(d, cycles), shape, skip_warmup=False)


def _verify_extended(cfg: SystemConfig, l_max: int, rng: RngSpec, cycles: int, failures: list[str]) -> None:
    period = cfg.d.period

    for l in range(l_max + 1):
        _check_family(
            failures, f"progression_family_multiset_l{l}", distribution_conditional(cfg, l),
            sequence_conditional(cfg, l, 1, period), f"l={l}, ",
        )

    _check_band(failures, expected_approx_extended(cfg), expected_exact_extended(cfg).value)

    d = cfg.d
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    # the sequence kernel takes a failure count per read as it takes one for
    # all, so a block costs one pass however many counts occur
    checks = [("trace_bridge_identity",
               lambda k0, fails: kernels.seq_conditional(*shape, fails, k0, len(fails)),
               "k={k} l={l}: simulated={sim} formula={model}")]
    if cfg.p == 1:
        checks.append(("lossless_trace_matches_formula",
                       lambda k0, fails: kernels.seq_conditional(*shape, 0, k0, len(fails)),
                       "first mismatch at k={k}"))
    _check_trace(failures, checks, stream_extended(cfg, cycles, rng), shape)


def _check_band(failures: list[str], band, exact: Fraction) -> None:
    _check(failures, "band_membership", band.contains(exact),
           lambda: f"exact={_text(exact)} band=[{_text(band.low)}, {_text(band.high)}]")


def _check(failures: list[str], name: str, ok: bool, detail) -> None:
    """Print the check's line; ``detail()``, called only when it fails, says why."""
    if ok:
        print(f"check {name}: PASS")
    else:
        print(f"check {name}: FAIL ({detail()})")
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
    # the guards of the hyperperiod sequences, of the simulation, of its seed
    # and of the formula over the simulated reads run before the first check
    # prints
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    kernels.check_sequence_args(*shape, l_max, 1, d.period)
    kernels.check_simulate_args(*shape, cycles)
    kernels.check_sequence_args(*shape, 0, 0, cycles)
    rng = None if basic else RngSpec(0 if args.seed is None else args.seed)
    failures: list[str] = []
    if basic:
        _verify_basic(d, cycles, failures)
    else:
        _verify_extended(cfg, l_max, rng, cycles, failures)
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


def _analyze_flags(an):
    _add_config_flags(an)
    an.add_argument("--sigma", type=_fraction, default=None,
                    help="confidence for the probabilistic max bound (extended)")
    an.set_defaults(func=cmd_analyze)


def _simulate_flags(sim):
    _add_config_flags(sim)
    sim.add_argument("--cycles", type=_int, required=True, help="number of reads to simulate")
    sim.add_argument("--seed", type=_int, default=None, help="rng seed (extended model)")
    sim.add_argument("--out", default="-", help="trace file, '-' for stdout")
    sim.set_defaults(func=cmd_simulate)


def _verify_flags(ver):
    _add_config_flags(ver)
    ver.add_argument("--l-max", type=_int, default=None,
                     help="check conditional families up to this l (extended, default 3)")
    ver.add_argument("--cycles", type=_int, default=None, help="simulated reads (default: 3 hyperperiods)")
    ver.add_argument("--seed", type=_int, default=None, help="rng seed for the trace check")
    ver.set_defaults(func=cmd_verify)


def _sweep_flags(sw):
    sw.add_argument("--grid", required=True, help="JSON grid file")
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--bin-width", type=_fraction, default=Fraction(1, 100))
    sw.add_argument("--jobs", type=_int, default=1,
                    help="processes that evaluate the grid, this one included; at most one "
                         "per CPU core and per block of factor tuples (default 1)")
    sw.set_defaults(func=cmd_sweep)


# subcommand -> (its line in the top-level help, what adds its flags)
_SUBCOMMANDS = {
    "analyze": ("closed-form report for one config", _analyze_flags),
    "simulate": ("run the slot-exact simulator, write a trace CSV", _simulate_flags),
    "verify": ("cross-check closed forms against direct evaluation", _verify_flags),
    "sweep": ("grid sweep of approximation error", _sweep_flags),
}


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
    for name, (help_line, add_flags) in _SUBCOMMANDS.items():
        add_flags(subs.add_parser(name, help=help_line))
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
