"""verify's checks: the closed forms against direct evaluation and the
slot-exact simulator, each yielded as ``(name, ok, detail)``; ``detail()``,
called only when the check fails, says why."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import kernels
from .basic import ConfigError, distribution_basic, expected_approx_basic, expected_exact_basic
from .basic import max_bound_basic, sequence_basic
from .extended import SystemConfig, _text, distribution_conditional, expected_approx_extended
from .extended import expected_exact_extended, sequence_conditional
from .simulate import RngSpec, stream_basic, stream_extended

# verify's family checks expand and sort whole hyperperiods, about 32 bytes
# per read; its trace checks stream the simulated run block by block, in
# memory that does not grow with --cycles.  At 1.97*10^6 reads, periods
# (7, 1399, 1409), the basic checks peak at 91 MB in 0.64 s and the extended
# ones (p = 1/2, seed 1) at 92 MB in 0.93 s on a 2-core Xeon host (the
# child's peak RSS from rusage; median of three wall times, start-up included).
_MAX_VERIFY_READS = 2 * 10**6


def checks(cfg: SystemConfig, basic: bool, l_max: int, cycles: int, seed: int | None):
    """``cfg``'s checks in print order, families up to ``l_max`` failures and
    ``cycles`` reads simulated under ``seed`` (0 if None) among them; every
    guard of the sequences, the simulation and its seed raises here first."""
    d = cfg.d
    if d.period > _MAX_VERIFY_READS:
        raise ConfigError(
            f"hyperperiod of {d.period} reads is over verify's cap of {_MAX_VERIFY_READS}: "
            f"verify expands whole hyperperiods, in memory that grows with them"
        )
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    kernels.check_sequence_args(*shape, l_max, 1, d.period)
    stream = stream_basic(d, cycles) if basic else stream_extended(cfg, cycles, RngSpec(seed or 0))
    kernels.check_sequence_args(*shape, 0, 0, cycles)
    return _verify_basic(d, stream, shape) if basic else _verify_extended(cfg, l_max, stream, shape)


def _check_family(name: str, dist, seq, where: str = ""):
    """The closed-form family and the directly evaluated reads as multisets,
    compared as sorted arrays; the detail names the first position that differs."""
    closed, direct = dist.to_sorted_array(), np.sort(seq)
    bad = np.flatnonzero(closed != direct)
    i = bad[0] if len(bad) else 0
    c, v = closed[i], direct[i]  # the detail keeps these, not the arrays, past the next check
    return name, not len(bad), lambda: (f"{where}first mismatch at sorted position {i}: "
                                        f"closed={c} direct={v}")


def _check_trace(checks, stream, shape, skip_warmup: bool = True):
    """One pass of ``stream`` checked by each ``(name, formula, detail)`` of
    ``checks``, yielded in order at its end: ``formula(k0, fails)`` is the
    closed form's reads k0, k0 + 1, ... at their failure counts.  The warm-up
    is skipped unless ``skip_warmup`` is false.  A check stops at its first
    read that differs and formats ``detail`` with its ``k``, ``l``, ``sim``
    and ``model``; the stream stops once all have.  Each block with a read
    to check passes the sequence kernels' guard for ``shape`` first."""
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
        yield name, name not in found, lambda name=name: found[name]


def _check_mean(closed: Fraction, direct: Fraction, where: str = ""):
    return "closed_form_mean", closed == direct, lambda: (
        f"{where}closed={_text(closed)} direct={_text(direct)}")


def _check_band(band, exact: Fraction):
    return "band_membership", band.contains(exact), lambda: (
        f"exact={_text(exact)} band=[{_text(band.low)}, {_text(band.high)}]")


def _verify_basic(d, stream, shape):
    seq = sequence_basic(d, 1, d.period)
    yield _check_family("progression_family_multiset", distribution_basic(d), seq)

    exact = expected_exact_basic(d)
    yield _check_mean(exact, Fraction(kernels.exact_sum(seq), d.period))
    yield _check_band(expected_approx_basic(d), exact)

    peak = int(seq.max())
    bound = max_bound_basic(d)
    yield "max_bound", peak <= bound, lambda: f"observed={peak} bound={bound}"

    # the lossless model delivers at slot 0, so every read is compared: a
    # read the simulator marks undefined is a mismatch, not a warm-up
    check = ("simulator_matches_formula",
             lambda k0, fails: kernels.seq_basic(*shape[:3], k0, len(fails)),
             "first mismatch at k={k}: simulated={sim} formula={model}")
    yield from _check_trace([check], stream, shape, skip_warmup=False)


def _verify_extended(cfg: SystemConfig, l_max: int, stream, shape):
    """The extended checks.  ``closed_form_mean`` compares each conditional
    hyperperiod age sum S(l), l <= ``l_max``, from which the exact mean is
    built, with the exact sum of the reads its family check compared, and
    names the first l that differs; S(r) for l_max < r < b, which the exact
    mean also reads, stays unchecked."""
    period = cfg.d.period
    direct = []
    for l in range(l_max + 1):
        seq = sequence_conditional(cfg, l, 1, period)
        yield _check_family(f"progression_family_multiset_l{l}", distribution_conditional(cfg, l),
                            seq, f"l={l}, ")
        direct.append(kernels.exact_sum(seq))
    closed = kernels.period_sums_conditional(*shape, l_max + 1, period)
    l = next((l for l, (c, v) in enumerate(zip(closed, direct)) if c != v), 0)
    yield _check_mean(Fraction(closed[l], period), Fraction(direct[l], period), f"l={l}, ")

    yield _check_band(expected_approx_extended(cfg), expected_exact_extended(cfg).value)

    # the sequence kernel takes a failure count per read as it takes one for
    # all, so a block costs one pass however many counts occur
    checks = [("trace_bridge_identity",
               lambda k0, fails: kernels.seq_conditional(*shape, fails, k0, len(fails)),
               "k={k} l={l}: simulated={sim} formula={model}")]
    if cfg.p == 1:
        checks.append(("lossless_trace_matches_formula",
                       lambda k0, fails: kernels.seq_conditional(*shape, 0, k0, len(fails)),
                       "first mismatch at k={k}"))
    yield from _check_trace(checks, stream, shape)
