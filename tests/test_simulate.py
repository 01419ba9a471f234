import io
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from aoiclock.basic import decompose, distribution_basic
from aoiclock.extended import SystemConfig, aoi_conditional, distribution_conditional
from aoiclock.simulate import (
    RngSpec,
    Trace,
    bernoulli_threshold,
    empirical_distribution,
    empirical_mean,
    simulate_basic,
    simulate_extended,
    write_trace_csv,
)

REFERENCE = decompose(34, 7, 10)


class TestBernoulliThreshold:
    def test_certain_success(self):
        assert bernoulli_threshold(Fraction(1)) == 2**53

    def test_half(self):
        assert bernoulli_threshold(Fraction(1, 2)) == 2**52

    def test_rounds_half_up(self):
        # 2^53 / 3 = 3002399751580330.667; nearest integer is ...331
        assert bernoulli_threshold(Fraction(1, 3)) == 3002399751580331
        assert bernoulli_threshold(Fraction(1, 2**54)) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_threshold(Fraction(0))
        with pytest.raises(ValueError):
            bernoulli_threshold(Fraction(2))


class TestRngSpec:
    def test_valid(self):
        assert RngSpec(0).algorithm == "splitmix64"
        RngSpec(2**64 - 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(2**64)
        with pytest.raises(ValueError):
            RngSpec(0, algorithm="pcg64")


class TestSimulateBasic:
    def test_no_warmup_and_k0(self):
        tr = simulate_basic(REFERENCE, 50)
        assert tr.warmup_cycles == 0
        assert tr.ages[0] == 0
        assert (tr.fails == 0).all()
        assert tr.model == "basic"

    def test_slots_property(self):
        tr = simulate_basic(REFERENCE, 5)
        assert list(tr.slots) == [0, 34, 68, 102, 136]

    def test_matches_distribution_over_period(self):
        for t in [(34, 7, 10), (6, 10, 15), (4, 9, 7)]:
            d = decompose(*t)
            tr = simulate_basic(d, 2 * d.period + 1)
            assert empirical_distribution(tr, 1, d.period).values == distribution_basic(d).values

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            simulate_basic(REFERENCE, 0)


class TestSimulateExtended:
    def test_defined_region_is_suffix(self):
        cfg = SystemConfig(REFERENCE, delta_b=3, delta_n=5, p="1/2")
        tr = simulate_extended(cfg, 500, RngSpec(7))
        d = tr.defined
        w = tr.warmup_cycles
        assert not d[:w].any()
        assert d[w:].all()
        assert (tr.fails[:w] == -1).all()
        assert (tr.fails[w:] >= 0).all()

    def test_lossless_matches_conditional_formula(self):
        for t in [(34, 7, 10), (6, 10, 15), (3, 8, 5)]:
            for db, dn in [(0, 0), (4, 9), (17, 2)]:
                cfg = SystemConfig(decompose(*t), delta_b=db, delta_n=dn)
                tr = simulate_extended(cfg, 300, RngSpec(0))
                w = tr.warmup_cycles
                for k in range(w, 300):
                    assert tr.ages[k] == aoi_conditional(cfg, k, 0), (t, db, dn, k)
                assert (tr.fails[w:] == 0).all()

    def test_warmup_within_first_delivery_bound(self):
        # With p = 1 the first delivery happens by slot
        # delta_b + delta_n + b_period + n_period, so the warm-up prefix
        # cannot outlast it.
        for t in [(34, 7, 10), (2, 9, 5)]:
            for db, dn in [(0, 0), (11, 30)]:
                cfg = SystemConfig(decompose(*t), delta_b=db, delta_n=dn)
                tr = simulate_extended(cfg, 200, RngSpec(1))
                d = cfg.d
                bound = ceil((db + dn + d.b_period + d.n_period + 2) / d.a_period) + 1
                assert tr.warmup_cycles <= bound, (t, db, dn)

    def test_same_seed_reproduces(self):
        cfg = SystemConfig(REFERENCE, p="1/3")
        a = simulate_extended(cfg, 400, RngSpec(123))
        b = simulate_extended(cfg, 400, RngSpec(123))
        c = simulate_extended(cfg, 400, RngSpec(124))
        assert (a.ages == b.ages).all() and (a.fails == b.fails).all()
        assert (a.ages != c.ages).any()

    def test_shorter_run_is_prefix_of_longer(self):
        # a run of n reads is the first n reads of any longer run under the
        # same seed, also across the numpy kernel's 2^16-read chunks
        for t, p in [((34, 7, 10), "1/3"), ((13, 7, 1), "1/10")]:
            cfg = SystemConfig(decompose(*t), delta_b=4, delta_n=9, p=p)
            n, m = 50_001, 2**16 + 4_321
            short = simulate_extended(cfg, n, RngSpec(2024))
            long = simulate_extended(cfg, m, RngSpec(2024))
            assert (short.ages == long.ages[:n]).all(), t
            assert (short.fails == long.fails[:n]).all(), t

    def test_seed_above_int63_accepted(self):
        cfg = SystemConfig(REFERENCE, p="1/2")
        tr = simulate_extended(cfg, 50, RngSpec(2**64 - 1))
        assert tr.defined.any()

    def test_extended_requires_seed_object(self):
        cfg = SystemConfig(REFERENCE, p="1/2")
        with pytest.raises(AttributeError):
            simulate_extended(cfg, 10, None)


class TestWindows:
    @pytest.fixture()
    def trace(self):
        cfg = SystemConfig(REFERENCE, delta_b=2, delta_n=6, p="1/2")
        return simulate_extended(cfg, 300, RngSpec(5))

    def test_window_must_be_positive(self, trace):
        with pytest.raises(ValueError):
            empirical_mean(trace, trace.warmup_cycles, 0)

    def test_window_inside_warmup_rejected(self):
        cfg = SystemConfig(REFERENCE, delta_b=40, delta_n=40, p="1")
        tr = simulate_extended(cfg, 50, RngSpec(0))
        assert tr.warmup_cycles > 0
        with pytest.raises(ValueError, match="warm-up"):
            empirical_mean(tr, 0, 10)

    def test_window_past_end_rejected(self, trace):
        with pytest.raises(IndexError):
            empirical_mean(trace, 200, 200)

    def test_mean_is_exact_fraction(self, trace):
        w = trace.warmup_cycles
        m = empirical_mean(trace, w, 100)
        assert m == Fraction(int(trace.ages[w : w + 100].sum()), 100)

    def test_period_window_matches_formula_lossless(self):
        cfg = SystemConfig(REFERENCE)
        tr = simulate_extended(cfg, 2 * 35 + 5, RngSpec(0))
        w = tr.warmup_cycles
        emp = empirical_distribution(tr, max(w, 1), 35)
        assert emp.values == distribution_conditional(cfg, 0).values

    def test_doubled_window_doubles_multiplicities(self):
        d = decompose(4, 9, 7)
        tr = simulate_basic(d, 3 * d.period)
        one = empirical_distribution(tr, d.period, d.period)
        two = empirical_distribution(tr, d.period // 2, 2 * d.period)
        assert two.values == {v: 2 * c for v, c in one.values.items()}
        assert two.period == 2 * d.period


class TestTraceCsv:
    def test_golden_content(self):
        d = decompose(3, 2, 5)
        tr = simulate_basic(d, 4)
        buf = io.StringIO()
        write_trace_csv(tr, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,t,age,l"
        assert lines[1] == "0,0,0,0"
        assert len(lines) == 5

    def test_warmup_rows_have_empty_fields(self, tmp_path):
        cfg = SystemConfig(decompose(1, 9, 8), delta_b=30, delta_n=30)
        tr = simulate_extended(cfg, 60, RngSpec(9))
        assert tr.warmup_cycles > 0
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "0,0,,"
        first_defined = lines[1 + tr.warmup_cycles]
        assert first_defined.count(",") == 3 and not first_defined.endswith(",")

    def test_byte_determinism(self, tmp_path):
        cfg = SystemConfig(REFERENCE, p="2/5")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(simulate_extended(cfg, 123, RngSpec(77)), str(p1))
        write_trace_csv(simulate_extended(cfg, 123, RngSpec(77)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
