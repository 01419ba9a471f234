"""verify's checks: the closed forms against direct evaluation and the
slot-exact simulator, each yielded as ``(name, ok, detail)``; ``detail()``,
called only when the check fails, says why."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import kernels
from .basic import ConfigError, distribution_basic, expected_approx_basic, expected_exact_basic
from .basic import max_bound_basic, sequence_basic
from .extended import SystemConfig, _check_terms, _text, distribution_conditional
from .extended import expected_approx_extended, expected_exact_extended, sequence_conditional
from .simulate import RngSpec, stream_basic, stream_extended

# verify's family checks expand and sort whole hyperperiods, about 32 bytes
# per read; its trace checks stream the simulated run block by block, in
# memory that does not grow with --cycles.  At 1.97*10^6 reads, periods
# (7, 1399, 1409), the basic checks peak at 91 MB in 0.64 s and the extended
# ones (p = 1/2, seed 1) at 92 MB in 0.93 s on a 2-core Xeon host (the
# child's peak RSS from rusage; median of three wall times, start-up included).
_MAX_VERIFY_READS = 2 * 10**6


def _default_cycles(d) -> int:
    """The reads verify simulates unless told: 3 hyperperiods, plus 50."""
    return 3 * d.period + 50


def checks(cfg: SystemConfig, basic: bool, l_max=None, cycles=None, seed=None):
    """``cfg``'s checks in print order: families up to ``l_max`` failures (3,
    or 0 in the basic model, if None), and ``cycles`` reads (``_default_cycles``
    if None) simulated under ``seed`` (0 if None), compared from k_min unless
    draws decide the warm-up.  Every guard of the sequences, the simulation,
    its seed and the exact mean raises here first, as does a run of at most
    k_min reads.  The trace's guard runs once, at the most failures a compared
    read can have (``_max_fails``)."""
    d = cfg.d
    if d.period > _MAX_VERIFY_READS:
        raise ConfigError(
            f"hyperperiod of {d.period} reads is over verify's cap of {_MAX_VERIFY_READS}: "
            f"verify expands whole hyperperiods, in memory that grows with them"
        )
    l_max = (0 if basic else 3) if l_max is None else l_max
    cycles = _default_cycles(d) if cycles is None else cycles
    shape = (d.a_period, d.b_period, d.n_period, cfg.delta_b, cfg.delta_n)
    kernels.check_sequence_args(*shape, l_max, 1, d.period)
    stream = stream_basic(d, cycles) if basic else stream_extended(cfg, cycles, RngSpec(seed or 0))
    kernels.check_sequence_args(*shape, _max_fails(cfg, basic, cycles), 0, cycles)
    if not basic:
        _check_terms(d)
    if cycles <= (k_min := _first_read(cfg, basic)):
        raise ConfigError(
            f"{cycles} reads are all warm-up: no read before k_min = {k_min} can see a "
            f"delivery, so the trace checks would compare none; run more than {k_min} cycles"
        )
    deadline = k_min if basic or cfg.p == 1 else cycles
    return (_verify_basic(d, stream, shape, deadline) if basic
            else _verify_extended(cfg, l_max, stream, shape, deadline))


def _max_fails(cfg: SystemConfig, basic: bool, cycles: int) -> int:
    """The most failures a defined read of a ``cycles``-read run can have: 0 in
    the basic model and at p = 1, else j of the last read less ``_first_success``,
    as a defined read k sees L_k >= that first success and fails = j_k - L_k."""
    if basic or cfg.p == 1:
        return 0
    d = cfg.d
    last = ((cycles - 1) * d.a_period - 1 - cfg.delta_n) // d.n_period
    return max(0, last - kernels._first_success(d.n_period, cfg.delta_b, cfg.delta_n, 1))


def _first_read(cfg: SystemConfig, basic: bool) -> int:
    """k_min, the first read that can see a delivery: the first that sees transmission
    ``_first_success``, as read k sees j <= (k*A' - delay - delta_n) // N'; the basic
    model has no shifts and no hand-over slot.  At p = 1 it is the warm-up."""
    delta_b, delta_n, delay = (0, 0, 0) if basic else (cfg.delta_b, cfg.delta_n, 1)
    first = kernels._first_success(cfg.d.n_period, delta_b, delta_n, delay)
    return -(-(first * cfg.d.n_period + delta_n + delay) // cfg.d.a_period)


def _check_family(name: str, dist, seq, where: str = ""):
    """The closed-form family and the directly evaluated reads as multisets,
    compared as sorted arrays; the detail names the first position that differs."""
    closed, direct = dist.to_sorted_array(), np.sort(seq)
    i = int(np.argmax(closed != direct))  # the first mismatch, or 0 where none is
    c, v = closed[i], direct[i]  # the detail keeps these, not the arrays, past the next check
    return name, bool(c == v), lambda: (f"{where}first mismatch at sorted position {i}: "
                                        f"closed={c} direct={v}")


def _check_trace(checks, stream, deadline: int):
    """One pass of ``stream`` checked by each ``(name, formula, detail)`` of
    ``checks``, yielded in order at its end: ``formula(k0, fails)`` is the
    closed form's reads k0, k0 + 1, ... at their failure counts, compared
    from read min(``deadline``, warm-up) on.  A check stops at its first read
    that differs or is undefined (age < 0), and formats ``detail`` with its
    ``k``, ``l``, ``sim`` and ``model``; the stream stops once all have, and
    a run with no read to compare fails them all."""
    found, compared = {}, False  # name -> the detail of its first mismatch; any read compared
    for k0, ages, fails in stream.blocks():
        # warmup_cycles is the run's length until the block that ends the warm-up
        cut = min(len(ages), max(0, min(deadline, stream.warmup_cycles) - k0))
        k0, ages, fails = k0 + cut, ages[cut:], fails[cut:]
        if not len(ages):
            continue
        compared = True
        # a compared read must be defined: the formula at l = -1 can give -1 too
        undefined = ages < 0
        for name, formula, detail in checks:
            if name in found:
                continue
            want = formula(k0, fails)
            bad = np.flatnonzero((ages != want) | undefined)
            if len(bad):
                i = bad[0]
                sim = "undefined" if undefined[i] else ages[i]
                found[name] = detail.format(k=k0 + i, l=fails[i], sim=sim, model=want[i])
        if len(found) == len(checks):
            break
    if not compared:
        found = {name: f"0 of {stream.cycles} reads compared (all warm-up)" for name, _, _ in checks}
    for name, _, _ in checks:
        yield name, name not in found, lambda name=name: found[name]


def _check_mean(closed: Fraction, direct: Fraction, where: str = ""):
    return "closed_form_mean", closed == direct, lambda: (
        f"{where}closed={_text(closed)} direct={_text(direct)}")


def _check_band(band, exact: Fraction):
    return "band_membership", band.contains(exact), lambda: (
        f"exact={_text(exact)} band=[{_text(band.low)}, {_text(band.high)}]")


def _verify_basic(d, stream, shape, deadline):
    seq = sequence_basic(d, 1, d.period)
    yield _check_family("progression_family_multiset", distribution_basic(d), seq)

    exact = expected_exact_basic(d)
    yield _check_mean(exact, Fraction(kernels.exact_sum(seq), d.period))
    yield _check_band(expected_approx_basic(d), exact)

    peak, bound = int(seq.max()), max_bound_basic(d)
    yield "max_bound", peak <= bound, lambda: f"observed={peak} bound={bound}"

    check = ("simulator_matches_formula",
             lambda k0, fails: kernels.seq_basic(*shape[:3], k0, len(fails)),
             "first mismatch at k={k}: simulated={sim} formula={model}")
    yield from _check_trace([check], stream, deadline)


def _verify_extended(cfg: SystemConfig, l_max: int, stream, shape, deadline):
    """The extended checks.  ``closed_form_mean`` compares each conditional
    hyperperiod age sum S(l), l <= ``l_max``, from which the exact mean is
    built, with the exact sum of the reads its family check compared, and
    names the first l that differs; S(r) for l_max < r < b, which the exact
    mean also reads, stays unchecked."""
    period, direct = cfg.d.period, []
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
    yield from _check_trace(checks, stream, deadline)
