"""What ``verify`` sees: a table of faults, each applied in-process to the
simulator or the closed forms, with the checks that must FAIL under it.

A row that no check sees today is a strict xfail naming the ROADMAP item
that would add the check, so the row turns red when that check lands and
the table is brought up to date with it."""

import contextlib
import io
from fractions import Fraction

import numpy as np
import pytest

from aoiclock import kernels, verify
from aoiclock.basic import decompose, expected_exact_basic
from aoiclock.cli import main
from aoiclock.extended import SystemConfig, expected_exact_extended
from aoiclock.simulate import RngSpec, stream_basic, stream_extended

FIG = decompose(34, 7, 10)
LATE = decompose(1, 9, 8)


def _scan_noop(monkeypatch):
    # every window that misses its newest transmission keeps L = -1
    monkeypatch.setattr(kernels, "_scan", lambda *args: None)


def _misses_always_hit(monkeypatch):
    # the simulator ignores p: every draw is a success, so every read has l = 0
    def hit(seed, threshold, counters, out, tmp):
        return np.zeros(len(counters), np.int64)

    monkeypatch.setattr(kernels, "_misses", hit)


def _carry_dropped(monkeypatch):
    # kernels' max(x, y) returns x: a block's first read forgets the last
    # success of the block before.  It also pins _scan's step width to 1,
    # which changes no result, and at shifts (2, 5) leaves `first` at 0
    monkeypatch.setattr(kernels, "max", lambda x, y: x, raising=False)
    monkeypatch.setattr(kernels, "_CHUNK", 64)


def _basic_one_slot_late(monkeypatch):
    # the lossless simulator reads at slot k*A' + 1 instead of k*A'
    def late(a_period, b_period, n_period, cycles):
        for k0, ages, fails in real(a_period, b_period, n_period, cycles):
            t = np.arange(k0, k0 + len(ages), dtype=np.int64) * a_period + 1
            yield k0, t - t // n_period * n_period // b_period * b_period, fails

    real = kernels.sim_basic_blocks
    monkeypatch.setattr(kernels, "sim_basic_blocks", late)


def _warmup_one_read_late(monkeypatch):
    # the lossy simulator marks its first delivered read undefined
    def late(*args):
        seen = False
        for k0, ages, fails in real(*args):
            if not seen and (ages >= 0).any():
                i = int((ages >= 0).argmax())
                ages[i] = fails[i] = -1
                seen = True
            yield k0, ages, fails

    real = kernels.sim_extended_blocks
    monkeypatch.setattr(kernels, "sim_extended_blocks", late)


def _period_sums_plus_one(monkeypatch):
    # every hyperperiod age sum of both models, basic and conditional, off by one
    real = kernels._period_sums
    monkeypatch.setattr(kernels, "_period_sums", lambda *args: [s + 1 for s in real(*args)])


def _unseen(item: str):
    # an error other than the table's own assertion is no xfail
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"verify does not see this fault yet: {item}")


ITEM_4 = "ROADMAP item 4 (failure_counts_match_draws) would check l against the draws"

# fault, config, model, seed, --cycles (None: verify's default), the checks that must FAIL
ROWS = [
    pytest.param(_scan_noop, SystemConfig(FIG, p=Fraction(1, 2)), "extended", 1, None,
                 {"failure_counts_match_draws"}, marks=_unseen(ITEM_4), id="scan-noop"),
    pytest.param(_misses_always_hit, SystemConfig(FIG, p=Fraction(1, 5)), "extended", 1, None,
                 {"failure_counts_match_draws"}, marks=_unseen(ITEM_4), id="misses-always-hit"),
    pytest.param(_carry_dropped, SystemConfig(FIG, 2, 5, Fraction(1, 2)), "extended", 1, 5000,
                 {"trace_bridge_identity"}, id="carry-dropped"),
    pytest.param(_basic_one_slot_late, SystemConfig(FIG), "basic", None, None,
                 {"simulator_matches_formula"}, id="basic-one-slot-late"),
    pytest.param(_warmup_one_read_late, SystemConfig(LATE, 60, 45, Fraction(1, 5)), "extended", 9,
                 None, {"failure_counts_match_draws"}, marks=_unseen(ITEM_4),
                 id="warmup-one-read-late"),
    pytest.param(_period_sums_plus_one, SystemConfig(FIG), "basic", None, None,
                 {"closed_form_mean"}, id="period-sums-plus-one-basic"),
    pytest.param(_period_sums_plus_one, SystemConfig(FIG), "extended", None, None,
                 {"closed_form_mean"}, id="period-sums-plus-one-extended"),
]


def _cycles(cfg, model, cycles) -> int:
    """``cycles``, or verify's default: 3 hyperperiods of reads plus 1 or 50."""
    return cycles or 3 * cfg.d.period + (1 if model == "basic" else 50)


def _failed(cfg, model, seed, cycles) -> dict:
    """Each failing check of ``verify.checks`` on the config, as name -> detail,
    at cmd_verify's defaults: l up to 3, and ``_cycles``."""
    basic = model == "basic"
    checks = verify.checks(cfg, basic, 0 if basic else 3, _cycles(cfg, model, cycles), seed)
    return {name: detail() for name, ok, detail in checks if not ok}


def _outputs(cfg, model, seed, cycles):
    """What the checks compare: the simulated reads, the warm-up and the exact mean."""
    cycles = _cycles(cfg, model, cycles)
    if model == "basic":
        stream, mean = stream_basic(cfg.d, cycles), expected_exact_basic(cfg.d)
    else:
        stream = stream_extended(cfg, cycles, RngSpec(seed or 0))
        mean = expected_exact_extended(cfg).value
    reads = [(ages.tolist(), fails.tolist()) for _, ages, fails in stream.blocks()]
    return reads, stream.warmup_cycles, mean


@pytest.mark.parametrize("fault, cfg, model, seed, cycles, fails", [
    pytest.param(*row.values, id=row.id) for row in ROWS
])
def test_fault_changes_what_verify_compares(monkeypatch, fault, cfg, model, seed, cycles, fails):
    # so that a row whose fault is inert does not pass as an unseen one
    clean = _outputs(cfg, model, seed, cycles)
    fault(monkeypatch)
    assert _outputs(cfg, model, seed, cycles) != clean


@pytest.mark.parametrize("fault, cfg, model, seed, cycles, fails", ROWS)
def test_fault_fails_its_checks(monkeypatch, fault, cfg, model, seed, cycles, fails):
    assert _failed(cfg, model, seed, cycles) == {}
    fault(monkeypatch)
    assert set(_failed(cfg, model, seed, cycles)) == fails


def test_details_name_the_first_mismatch(monkeypatch):
    _basic_one_slot_late(monkeypatch)
    assert _failed(SystemConfig(FIG), "basic", None, None) == {
        "simulator_matches_formula": "first mismatch at k=0: simulated=1 formula=0",
    }
    _period_sums_plus_one(monkeypatch)
    assert _failed(SystemConfig(FIG), "basic", None, None)["closed_form_mean"] == (
        "closed=246/35 direct=7")


def test_extended_mean_detail_names_the_first_l_that_differs(monkeypatch):
    # at (34, 7, 10), b = 1: the exact mean reads S(0) alone, and S(2) only here
    real = kernels._period_sums
    monkeypatch.setattr(kernels, "_period_sums",
                        lambda *args: [s + (r == 2) for r, s in enumerate(real(*args))])
    assert _failed(SystemConfig(FIG), "extended", None, None) == {
        "closed_form_mean": "l=2, closed=1051/35 direct=30",
    }


def test_fault_through_the_command_line(monkeypatch):
    _basic_one_slot_late(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--a-period", "34", "--b-period", "7", "--n-period", "10"])
    assert code == 1
    assert out.getvalue().splitlines() == [
        "check progression_family_multiset: PASS",
        "check closed_form_mean: PASS",
        "check band_membership: PASS",
        "check max_bound: PASS",
        "check simulator_matches_formula: FAIL (first mismatch at k=0: simulated=1 formula=0)",
        "1 check(s) failed: simulator_matches_formula",
    ]
