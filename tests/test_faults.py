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


def _misses_always_miss(monkeypatch):
    # the simulator runs p = 0: no draw succeeds, so every read is warm-up
    def miss(seed, threshold, counters, out, tmp):
        return np.full(len(counters), -1, np.int64)

    monkeypatch.setattr(kernels, "_misses", miss)


def _carry_dropped(monkeypatch):
    # kernels' max(x, y) returns x: a block's first read forgets the last
    # success of the block before.  At shifts (2, 5) it also leaves `first`
    # at 0, its true value
    monkeypatch.setattr(kernels, "max", lambda x, y: x, raising=False)
    monkeypatch.setattr(kernels, "_CHUNK", 64)


def _basic_one_slot_late(monkeypatch):
    # the lossless simulator reads at slot k*A' + 1 instead of k*A'
    def late(*args):
        a_period, b_period, n_period = args[:3]
        for k0, ages, fails in real(*args):
            t = np.arange(k0, k0 + len(ages), dtype=np.int64) * a_period + 1
            yield k0, t - t // n_period * n_period // b_period * b_period, fails

    real = kernels.sim_blocks
    monkeypatch.setattr(kernels, "sim_blocks", late)


def _handover(delay):
    """The fault that runs the simulator's hand-overs with ``delay`` slots,
    whichever model asks: 1 is the buffered model's, 0 the instantaneous one's."""
    def fault(monkeypatch):
        real = kernels.sim_blocks
        monkeypatch.setattr(kernels, "sim_blocks", lambda *args: real(*args[:5], delay, *args[6:]))

    return fault


def _never_delivers(monkeypatch):
    # the simulator marks every read undefined, whatever p
    def undefined(*args):
        for k0, ages, fails in real(*args):
            ages[:] = fails[:] = -1
            yield k0, ages, fails

    real = kernels.sim_blocks
    monkeypatch.setattr(kernels, "sim_blocks", undefined)


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

    real = kernels.sim_blocks
    monkeypatch.setattr(kernels, "sim_blocks", late)


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
    pytest.param(_misses_always_miss, SystemConfig(FIG, p=Fraction(1, 2)), "extended", 1, None,
                 {"trace_bridge_identity"}, id="misses-always-miss"),
    pytest.param(_carry_dropped, SystemConfig(FIG, 2, 5, Fraction(1, 2)), "extended", 1, 5000,
                 {"trace_bridge_identity"}, id="carry-dropped"),
    pytest.param(_basic_one_slot_late, SystemConfig(FIG), "basic", None, None,
                 {"simulator_matches_formula"}, id="basic-one-slot-late"),
    pytest.param(_handover(1), SystemConfig(FIG), "basic", None, None,
                 {"simulator_matches_formula"}, id="basic-buffered-handover"),
    pytest.param(_handover(0), SystemConfig(FIG, 2, 5, Fraction(1, 2)), "extended", 1, None,
                 {"trace_bridge_identity"}, id="extended-instant-handover"),
    pytest.param(_warmup_one_read_late, SystemConfig(LATE, 60, 45, Fraction(1, 5)), "extended", 9,
                 None, {"failure_counts_match_draws"}, marks=_unseen(ITEM_4),
                 id="warmup-one-read-late"),
    # at p = 1 the config fixes the warm-up at k_min = 62, so read 62 must be defined
    pytest.param(_warmup_one_read_late, SystemConfig(LATE, 60, 45), "extended", 9, None,
                 {"trace_bridge_identity", "lossless_trace_matches_formula"},
                 id="warmup-one-read-late-lossless"),
    pytest.param(_period_sums_plus_one, SystemConfig(FIG), "basic", None, None,
                 {"closed_form_mean"}, id="period-sums-plus-one-basic"),
    pytest.param(_period_sums_plus_one, SystemConfig(FIG), "extended", None, None,
                 {"closed_form_mean"}, id="period-sums-plus-one-extended"),
]


def _failed(cfg, model, seed, cycles) -> dict:
    """Each failing check of ``verify.checks`` on the config, as name -> detail,
    at verify's defaults where ``cycles`` is None."""
    checks = verify.checks(cfg, model == "basic", cycles=cycles, seed=seed)
    return {name: detail() for name, ok, detail in checks if not ok}


def _outputs(cfg, model, seed, cycles):
    """What the checks compare: the simulated reads, the warm-up and the exact mean."""
    cycles = cycles or verify._default_cycles(cfg.d)
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


def test_handover_details_name_the_first_mismatch(monkeypatch):
    # with a slot per hand-over, basic read 0 sees no transmission yet; with
    # none, each buffered hand-over sees one slot more
    with monkeypatch.context() as m:
        _handover(1)(m)
        assert _failed(SystemConfig(FIG), "basic", None, None) == {
            "simulator_matches_formula": "first mismatch at k=0: simulated=undefined formula=0",
        }
    _handover(0)(monkeypatch)
    assert _failed(SystemConfig(FIG, 2, 5, Fraction(1, 2)), "extended", 1, None) == {
        "trace_bridge_identity": "k=11 l=2: simulated=29 formula=36",
    }


def test_lossless_warmup_past_k_min_fails_at_k_min(monkeypatch):
    # reads from k_min = 62 on are compared whatever warm-up the simulator reports
    _warmup_one_read_late(monkeypatch)
    assert _failed(SystemConfig(LATE, 60, 45), "extended", 9, None) == {
        "trace_bridge_identity": "k=62 l=-1: simulated=undefined formula=2",
        "lossless_trace_matches_formula": "first mismatch at k=62",
    }


def test_undefined_read_past_the_deadline_fails_at_k_min(monkeypatch):
    # at l = -1 the formula gives -1, the undefined read's age; the bridge
    # still names read k_min = 1, as the lossless check does, and says that
    # the read is undefined rather than printing two equal numbers
    _never_delivers(monkeypatch)
    assert _failed(SystemConfig(FIG), "extended", 1, None) == {
        "trace_bridge_identity": "k=1 l=-1: simulated=undefined formula=-1",
        "lossless_trace_matches_formula": "first mismatch at k=1",
    }


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
