import io
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import ceil, gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoiclock import kernels, simulate, verify
from aoiclock.basic import decompose, distribution_basic
from aoiclock.extended import SystemConfig, distribution_conditional
from aoiclock.simulate import (
    RngSpec,
    Trace,
    bernoulli_threshold,
    simulate_extended,
    stream_basic,
    stream_extended,
    write_trace_csv,
)

from conftest import (
    age_ref,
    assert_same_text,
    naive_basic_ages,
    naive_trace_csv,
    stream_of,
    whole_trace,
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

    @pytest.mark.parametrize("p", [Fraction(1, 2**54 + 1), Fraction(1, 10**20)],
                             ids=["just-below", "1e-20"])
    def test_rejects_a_p_that_would_run_as_zero(self, p):
        with pytest.raises(ValueError, match=r"is below 2\^-54: round\(p \* 2\^53\) = 0"):
            bernoulli_threshold(p)

    @pytest.mark.parametrize("make", [simulate_extended, stream_extended],
                             ids=["simulate_extended", "stream_extended"])
    def test_streams_refuse_it_before_any_draw(self, monkeypatch, make):
        draws = []
        monkeypatch.setattr(kernels, "_misses", lambda *args: draws.append(args))
        cfg = SystemConfig(REFERENCE, p=Fraction(1, 10**20))
        with pytest.raises(ValueError, match=r"p = 1/100000000000000000000 is below 2\^-54"):
            make(cfg, 10, RngSpec(1))
        assert draws == []

    def test_rejects_out_of_range(self):
        # p = 0 is named as out of range, not as a p below 2^-54
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got 0$"):
            bernoulli_threshold(Fraction(0))
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got 2$"):
            bernoulli_threshold(Fraction(2))


class TestRngSpec:
    def test_valid(self):
        RngSpec(0)
        RngSpec(2**64 - 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(2**64)


class TestSimulateBasic:
    def test_no_warmup_and_k0(self):
        tr = whole_trace(stream_basic(REFERENCE, 50))
        assert tr.warmup_cycles == 0
        assert tr.ages[0] == 0
        assert (tr.fails == 0).all()

    def test_slots_property(self):
        rows = _csv(stream_basic(REFERENCE, 5)).splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0", "34", "68", "102", "136"]

    def test_slots_past_int64_refused(self, tmp_path):
        tr = Trace(2**62, np.array([1, 2, 3]), np.array([0, 0, 0]))
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=f"got period {2**62}, slot {2**63}$"):
            write_trace_csv(stream_of(tr), path)
        assert not path.exists()  # refused before a byte is written
        # the first two reads end below 2^63
        rows = _csv(stream_of(Trace(2**62, tr.ages[:2], tr.fails[:2]))).splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0", str(2**62)]
        # no rows, but a period past int64
        with pytest.raises(ValueError, match=f"got period {2**63}, slot 0$"):
            _csv(stream_of(Trace(2**63, tr.ages[:0], tr.fails[:0])))

    def test_matches_distribution_over_period(self):
        for t in [(34, 7, 10), (6, 10, 15), (4, 9, 7)]:
            d = decompose(*t)
            tr = whole_trace(stream_basic(d, 2 * d.period + 1))
            assert Counter(tr.ages[1 : 1 + d.period].tolist()) == distribution_basic(d).values

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            stream_basic(REFERENCE, 0)


class TestSimulateExtended:
    def test_defined_region_is_suffix(self):
        cfg = SystemConfig(REFERENCE, delta_b=3, delta_n=5, p="1/2")
        tr = simulate_extended(cfg, 500, RngSpec(7))
        d = tr.ages >= 0
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
                shifts = kernels._shifts(t[2], db, dn, 0)
                for k in range(w, 300):
                    assert tr.ages[k] == age_ref(cfg.d, k, shifts), (t, db, dn, k)
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
        # same seed, also across the kernel's chunks of reads
        for t, p in [((34, 7, 10), "1/3"), ((13, 7, 1), "1/10")]:
            cfg = SystemConfig(decompose(*t), delta_b=4, delta_n=9, p=p)
            n, m = 50_001, 2**16 + 4_321
            short = simulate_extended(cfg, n, RngSpec(2024))
            long = simulate_extended(cfg, m, RngSpec(2024))
            assert (short.ages == long.ages[:n]).all(), t
            assert (short.fails == long.fails[:n]).all(), t

    def test_concurrent_calls_match_sequential_calls(self, monkeypatch):
        # each call owns its buffers, so calls made at once from several
        # threads give the sequential traces
        monkeypatch.setattr(kernels, "_CHUNK", 1 << 10)
        runs = [
            (SystemConfig(decompose(*t), delta_b=4, delta_n=9, p=p), RngSpec(seed))
            for t, p, seed in [((34, 7, 10), "1/3", 1), ((13, 7, 1), "1/10", 2), ((5, 3, 13), "4/5", 3)]
        ]
        want = [simulate_extended(cfg, 20_000, rng) for cfg, rng in runs]
        got = [None] * len(runs)

        def run(i):
            cfg, rng = runs[i]
            got[i] = simulate_extended(cfg, 20_000, rng)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for w, g in zip(want, got):
            assert (w.ages == g.ages).all() and (w.fails == g.fails).all()

    def test_seed_above_int63_accepted(self):
        cfg = SystemConfig(REFERENCE, p="1/2")
        tr = simulate_extended(cfg, 50, RngSpec(2**64 - 1))
        assert (tr.ages >= 0).any()

    def test_extended_requires_seed_object(self):
        cfg = SystemConfig(REFERENCE, p="1/2")
        with pytest.raises(AttributeError):
            simulate_extended(cfg, 10, None)


class TestWindows:
    def test_mean_is_exact_fraction(self, monkeypatch):
        # the stream's sum of its defined reads, the numerator of its mean,
        # summed across blocks
        monkeypatch.setattr(kernels, "_CHUNK", 7)
        cfg = SystemConfig(REFERENCE, delta_b=2, delta_n=6, p="1/2")
        stream = stream_extended(cfg, 300, RngSpec(5))
        tr = whole_trace(stream)
        w = tr.warmup_cycles
        assert (stream.warmup_cycles, stream.age_sum) == (w, int(tr.ages[w:].sum()))

    def test_mean_is_exact_past_int64(self):
        ages = np.array([-1, 2**62, 2**62 + 1, 2**62 + 3], dtype=np.int64)
        stream = stream_of(Trace(1, ages, np.zeros(4, dtype=np.int64)))
        for _ in stream.blocks():
            pass
        assert (stream.warmup_cycles, stream.age_sum) == (1, 3 * 2**62 + 4)

    def test_period_window_matches_formula_lossless(self):
        cfg = SystemConfig(REFERENCE)
        tr = simulate_extended(cfg, 2 * 35 + 5, RngSpec(0))
        w = tr.warmup_cycles
        emp = Counter(tr.ages[max(w, 1) : max(w, 1) + 35].tolist())
        assert emp == distribution_conditional(cfg, 0).values

    def test_doubled_window_doubles_multiplicities(self):
        d = decompose(4, 9, 7)
        tr = whole_trace(stream_basic(d, 3 * d.period))
        one = Counter(tr.ages[d.period : 2 * d.period].tolist())
        two = Counter(tr.ages[d.period // 2 : d.period // 2 + 2 * d.period].tolist())
        assert two == {v: 2 * c for v, c in one.items()}
        assert two.total() == 2 * d.period


class TestTraceCsv:
    def test_golden_content(self):
        d = decompose(3, 2, 5)
        buf = io.StringIO()
        write_trace_csv(stream_basic(d, 4), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,t,age,l"
        assert lines[1] == "0,0,0,0"
        assert len(lines) == 5

    def test_warmup_rows_have_empty_fields(self, tmp_path):
        cfg = SystemConfig(decompose(1, 9, 8), delta_b=30, delta_n=30)
        tr = stream_extended(cfg, 60, RngSpec(9))
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, str(path))
        assert tr.warmup_cycles > 0
        lines = path.read_text().splitlines()
        assert lines[1] == "0,0,,"
        first_defined = lines[1 + tr.warmup_cycles]
        assert first_defined.count(",") == 3 and not first_defined.endswith(",")

    def test_byte_determinism(self, tmp_path):
        cfg = SystemConfig(REFERENCE, p="2/5")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(stream_extended(cfg, 123, RngSpec(77)), str(p1))
        write_trace_csv(stream_extended(cfg, 123, RngSpec(77)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _csv(stream) -> str:
    buf = io.StringIO()
    write_trace_csv(stream, buf)
    return buf.getvalue()


# a warm-up prefix of None rows, then defined (age, l) rows: at most 80 rows
_INT64 = st.integers(0, 2**63 - 1)
_ROWS = st.builds(
    lambda warm, defined: [None] * warm + defined,
    st.integers(0, 40),
    st.lists(st.tuples(_INT64, _INT64), max_size=40),
)
# rows whose ages and l sit on both sides of every power of ten in int64, and
# of 2^31 and 2^32, the int32 and uint32 limits
_WIDTH_EDGES = sorted(
    [(10**k - 1, 10**k) for k in range(1, 19)]
    + [(2**31 - 1, 2**31), (2**32 - 1, 2**32), (2**63 - 1, 2**63 - 1)]
)
# the slot of row 79 stays below 2^63
_A_PERIODS = st.one_of(st.integers(1, 100), st.integers(2**40, (2**63 - 1) // 79))
_LOSSY = st.builds(
    lambda t, db, dn, p: SystemConfig(decompose(*t), db, dn, p),
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)).filter(
        lambda t: gcd(*t) == 1
    ),
    st.integers(0, 60),
    st.integers(0, 60),
    st.sampled_from(["1/5", "1/2", "4/5", "1"]),
)
# A trace whose first delivery is at slot 50001: 50,001 warm-up rows, over
# four blocks, then defined rows.
_LONG_WARMUP = SystemConfig(decompose(1, 1, 1), delta_n=50000)


# verify refuses a run of at most k_min reads, since every read of it is warm-up
@given(_LOSSY, st.integers(1, 40))
def test_warmup_is_k_min_at_p1_and_never_shorter(cfg, extra):
    k_min = verify._first_read(cfg, False)
    lossless = SystemConfig(cfg.d, cfg.delta_b, cfg.delta_n)
    assert simulate_extended(lossless, k_min + extra, RngSpec(3)).warmup_cycles == k_min
    assert simulate_extended(cfg, k_min + extra, RngSpec(3)).warmup_cycles >= k_min


class TestTraceCsvOracle:
    """``write_trace_csv`` against the row-by-row oracle, byte for byte."""

    @given(_ROWS, _A_PERIODS, st.integers(1, 5))
    @example(_WIDTH_EDGES, 1, 5)
    # the last slot is the largest multiple of the period below 2^63
    @example([(b, a) for a, b in _WIDTH_EDGES], (2**63 - 1) // (len(_WIDTH_EDGES) - 1), 2)
    @example([None] * len(_WIDTH_EDGES) + _WIDTH_EDGES, 10**17, 4)
    @example(_WIDTH_EDGES, 3, 1)  # each row a block, so each value is its column's max
    @example([(0, 0)] * 40, 2**27 + 1, 64)  # t passes 2^32 at row 32 of the one block
    def test_hand_built_warmup_traces(self, rows, a_period, block):
        ages = np.array([-1 if r is None else r[0] for r in rows], dtype=np.int64)
        fails = np.array([-1 if r is None else r[1] for r in rows], dtype=np.int64)
        trace = Trace(a_period, ages, fails)
        with mock.patch.object(simulate, "_CSV_ROWS", block):
            assert_same_text(_csv(stream_of(trace)), naive_trace_csv(trace))

    @given(_LOSSY, st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(1, 64))
    def test_simulator_traces(self, cfg, seed, cycles, block):
        trace = simulate_extended(cfg, cycles, RngSpec(seed))
        with mock.patch.object(simulate, "_CSV_ROWS", block):
            assert_same_text(_csv(stream_extended(cfg, cycles, RngSpec(seed))),
                             naive_trace_csv(trace))

    @given(_LOSSY, st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(1, 64),
           st.integers(1, 64))
    @example(SystemConfig(decompose(1, 9, 8), 60, 45, "1/5"), 9, 300, 7, 5)
    @example(_LONG_WARMUP, 1, 20, 3, 4)  # no delivery at all
    def test_stream_writes_the_whole_trace(self, cfg, seed, cycles, block, chunk):
        whole = simulate_extended(cfg, cycles, RngSpec(seed))
        with mock.patch.object(simulate, "_CSV_ROWS", block), \
                mock.patch.object(kernels, "_CHUNK", chunk):
            stream = stream_extended(cfg, cycles, RngSpec(seed))
            assert_same_text(_csv(stream), _csv(stream_of(whole)))
        warm = whole.warmup_cycles
        defined = whole.ages[warm:]
        assert (stream.cycles, stream.warmup_cycles) == (whole.cycles, warm)
        assert stream.age_sum == int(defined.sum())
        assert stream.age_max == (int(defined.max()) if len(defined) else None)

    def test_stream_warmup_is_the_negative_prefix(self):
        # a read after the warm-up is summed as it comes, even a negative
        # one, and the writer refuses its row
        ages, fails = np.array([-1, 5, -1, 7]), np.array([-1, 0, -1, 0])
        stream = stream_of(Trace(1, ages, fails))
        with pytest.raises(ValueError, match="must be >= 0, got -1 at k=2$"):
            _csv(stream)
        assert stream.warmup_cycles == Trace(1, ages, fails).warmup_cycles == 1
        assert (stream.age_sum, stream.age_max) == (11, 7)

    @pytest.mark.parametrize("chunk", [1, 1 << 15])
    def test_basic_stream_writes_the_whole_trace(self, chunk):
        with mock.patch.object(kernels, "_CHUNK", chunk):
            # 28 hyperperiods of 35 reads, whose ages average 7
            stream = stream_basic(REFERENCE, 980)
            whole = Trace(34, np.array(naive_basic_ages(34, 7, 10, 980)), np.zeros(980, np.int64))
            assert_same_text(_csv(stream), naive_trace_csv(whole))
        assert (stream.warmup_cycles, stream.age_sum, stream.age_max) == (0, 7 * 980, 14)

    @pytest.mark.parametrize("cycles", [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1])
    def test_block_edges(self, cycles):
        assert simulate._CSV_ROWS == 1 << 14
        cfg = SystemConfig(decompose(1, 9, 8), 30, 30, "1/5")
        lossy = simulate_extended(cfg, cycles, RngSpec(9))
        for trace in (lossy, whole_trace(stream_basic(REFERENCE, cycles))):
            assert_same_text(_csv(stream_of(trace)), naive_trace_csv(trace))

    def test_warmup_longer_than_a_block(self):
        trace = simulate_extended(_LONG_WARMUP, 50_010, RngSpec(1))
        assert trace.warmup_cycles == 50_001
        assert_same_text(_csv(stream_of(trace)), naive_trace_csv(trace))

    @pytest.mark.parametrize("cycles", [1, 20])
    def test_all_warmup(self, cycles):
        trace = simulate_extended(_LONG_WARMUP, cycles, RngSpec(1))
        assert trace.warmup_cycles == cycles
        text = _csv(stream_of(trace))
        assert_same_text(text, naive_trace_csv(trace))
        assert text.count(",,\n") == cycles

    def test_slot_column_reaching_2_63_refused(self):
        a_period = 2**61 + 3
        assert 3 * a_period < 2**63 <= 4 * a_period
        ages = np.array([-1, 10**18, 0, 2**63 - 1, 7], dtype=np.int64)
        fails = np.where(ages >= 0, ages % 1000, -1)
        # four rows end at slot 3*A', so their one block is written whole
        trace = Trace(a_period, ages[:4], fails[:4])
        assert_same_text(_csv(stream_of(trace)), naive_trace_csv(trace))
        with pytest.raises(ValueError, match=f"got period {a_period}, slot {4 * a_period}$"):
            _csv(stream_of(Trace(a_period, ages, fails)))

    def test_digit_widths_change_inside_a_block(self):
        # in one block k passes 9, 99 and 999, t several widths, and age and
        # l change width from row to row
        k = np.arange(1200, dtype=np.int64)
        trace = Trace(997, 10 ** (k % 19) - k % 2, (k * k) % 10**(k % 7 + 1))
        assert_same_text(_csv(stream_of(trace)), naive_trace_csv(trace))

    def test_negative_value_in_a_defined_row_rejected(self):
        # the message names the row by its k, not by its slot k*A'
        trace = Trace(3, np.array([0, 5], dtype=np.int64), np.array([0, -2], dtype=np.int64))
        with pytest.raises(ValueError, match="must be >= 0, got -2 at k=1$"):
            _csv(stream_of(trace))

    @pytest.mark.parametrize("a_period", [2**40 + 1, 10**12 + 1, 2**50 + 3])
    def test_slots_past_2_40(self, a_period):
        trace = whole_trace(stream_basic(decompose(a_period, 2, 3), 2_000))
        assert (trace.cycles - 1) * a_period > 2**40
        assert_same_text(_csv(stream_of(trace)), naive_trace_csv(trace))
