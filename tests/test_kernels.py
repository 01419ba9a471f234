"""The kernels must agree bit-for-bit with the scalar oracles and with the
naive slot-stepping oracles."""

import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoiclock import kernels, sweep
from aoiclock.basic import decompose
from aoiclock.extended import (
    SystemConfig,
    distribution_conditional,
    expected_exact_extended,
)
from aoiclock.modmath import floor_sum
from aoiclock.simulate import bernoulli_threshold

from conftest import (
    LARGE_TRIPLES,
    age_ref,
    geometric_sum_ref,
    naive_basic_ages,
    naive_extended,
    naive_period_sums,
    progressions,
    splitmix64_ref,
)

TRIPLES = [(34, 7, 10), (6, 10, 15), (1, 1, 1), (5, 1, 1), (1, 9, 8), (12, 35, 25)]
SHIFTS = [(0, 0), (3, 5), (20, 11)]


def conditional_ref(t, db, dn, ls, k0):
    """``age_ref`` at reads k0, k0 + 1, ..., one per failure count in ``ls``."""
    d = decompose(*t)
    return [age_ref(d, k0 + i, kernels._shifts(t[2], db, dn, int(l))) for i, l in enumerate(ls)]


def test_active_backend_is_registered():
    assert kernels.backend() in kernels.IMPLS
    for name in ("seq_basic", "seq_conditional", "period_sums_conditional",
                 "sim_basic", "sim_extended"):
        assert getattr(kernels, name) is kernels.IMPLS[kernels.backend()][name]


class TestSequenceKernels:
    def test_seq_basic_matches_scalar(self):
        for t in TRIPLES:
            d = decompose(*t)
            got = kernels.seq_basic(*t, 3, 50)
            want = [age_ref(d, k) for k in range(3, 53)]
            assert got.dtype == np.int64
            assert list(got) == want, t

    def test_seq_conditional_matches_scalar(self):
        for t in TRIPLES:
            for db, dn in SHIFTS:
                for l in (0, 1, 4):
                    got = kernels.seq_conditional(*t, db, dn, l, 2, 40)
                    assert list(got) == conditional_ref(t, db, dn, [l] * 40, 2), (t, db, dn, l)
                # one failure count per read, as verify passes a trace's
                ls = np.arange(40, dtype=np.int64) % 7
                got = kernels.seq_conditional(*t, db, dn, ls, 2, 40)
                assert list(got) == conditional_ref(t, db, dn, ls, 2), (t, db, dn)

    @given(st.tuples(*[st.integers(1, 2**40)] * 3).filter(lambda t: gcd(gcd(*t[:2]), t[2]) == 1),
           st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 1000),
           st.integers(1, 64), st.integers(0, 3))
    @example((1, 7, 10), 0, 0, 0, 1, 0)  # the guard's top at 2^62 - 1
    def test_seq_conditional_at_the_slot_guard(self, t, db, dn, l, count, slack):
        # the reads end within slack + 1 reads of the last that the guard admits
        rest = db + dn + (l + 2) * t[2] + 2
        end = (kernels._SLOT_LIMIT - 1 - rest) // t[0] - slack
        k0 = end - count
        kernels.check_sequence_args(*t, db, dn, l, k0, count)
        with pytest.raises(OverflowError):
            kernels.check_sequence_args(*t, db, dn, l, k0, count + slack + 1)
        got = kernels.seq_conditional(*t, db, dn, l, k0, count)
        assert got.tolist() == conditional_ref(t, db, dn, [l] * count, k0)

    def test_period_sums_match_summed_sequences(self):
        for t in TRIPLES:
            d = decompose(*t)
            for db, dn in SHIFTS:
                sums = kernels.period_sums_conditional(*t, db, dn, 6, d.period)
                assert len(sums) == 6
                for l in range(6):
                    seq = kernels.seq_conditional(*t, db, dn, l, 1, d.period)
                    assert int(sums[l]) == int(seq.sum()), (t, db, dn, l)

    # a > 1 and b > 1 need periods sharing factors pairwise: (6, 10, 15) has
    # a = 5, b = 2, n = 3; n_terms runs to b + 2, past the b sums the expectation takes
    @given(
        st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60)).filter(
            lambda t: gcd(gcd(t[0], t[1]), t[2]) == 1
        ),
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(0, 2),
    )
    @example((6, 10, 15), 7, 3, 2)
    @example((12, 9, 5), 0, 50, 1)
    @example((20, 28, 35), 50, 0, 2)  # a = 7, b = 4, n = 5
    @example((1, 1, 1), 0, 0, 0)
    def test_period_sums_match_naive(self, t, db, dn, extra):
        d = decompose(*t)
        n_terms = d.b + extra
        got = kernels.period_sums_conditional(*t, db, dn, n_terms, d.period)
        want = naive_period_sums(*t, db, dn, n_terms, d.period)
        assert got == [int(x) for x in want]
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("t", LARGE_TRIPLES)
    def test_period_sums_equal_family_sums_at_large_periods(self, t):
        d = decompose(*t)
        assert 10**5 <= d.period <= 10**9
        cfg = SystemConfig(d, delta_b=13, delta_n=29)
        sums = kernels.period_sums_conditional(*t, 13, 29, d.b + 1, d.period)
        for r, s in enumerate(sums):
            progs = progressions(distribution_conditional(cfg, r))
            assert s == sum(pr.sum() for pr in progs), (t, r)

    def test_period_must_be_the_hyperperiod(self):
        with pytest.raises(ValueError, match="hyperperiod a\\*B\\*N = 35"):
            kernels.period_sums_conditional(34, 7, 10, 0, 0, 3, 70)


# (n, m, alpha, beta) lanes of the scalar floor sum's full range of signs
floor_sum_lanes = st.tuples(
    st.integers(0, 80), st.integers(1, 10**4), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
)


def _alpha_at_bound(n, m, beta):
    """The largest alpha whose lane floor_sums' guard keeps in int64:
    (alpha + |beta| + m + 3)*(n + 1)^2 < 2^63."""
    return (2**63 - 1) // (n + 1) ** 2 - abs(beta) - m - 3


class TestFloorSums:
    """The array floor sum against the scalar ``modmath.floor_sum``."""

    @given(st.lists(floor_sum_lanes, min_size=1, max_size=40))
    def test_lanes_equal_scalar(self, lanes):
        got = kernels.floor_sums(*(np.array(col) for col in zip(*lanes)))
        assert got.dtype == np.int64
        assert got.tolist() == [floor_sum(*lane) for lane in lanes]

    @given(st.integers(0, 2**20), st.integers(1, 2**20), st.integers(-(2**20), 2**20),
           st.sampled_from([1, -1]))
    @example(0, 1, 0, 1)
    @example(2**20, 1, -(2**20), -1)
    def test_lanes_at_the_int64_bound(self, n, m, beta, sign):
        alpha = _alpha_at_bound(n, m, beta)
        below, above = (n, m, sign * alpha, beta), (n, m, sign * (alpha + 1), beta)
        # a lane just inside the bound runs in int64 and stays exact
        got = kernels.floor_sums(*below)
        assert got.dtype == np.int64 and got.tolist() == [floor_sum(*below)]
        # one lane past it sends the whole call to the exact path
        got = kernels.floor_sums(*(np.array(col) for col in zip(below, above)))
        assert got.dtype == object
        assert got.tolist() == [floor_sum(*below), floor_sum(*above)]

    def test_bad_lanes_rejected(self):
        with pytest.raises(ValueError, match="n >= 0 and m >= 1"):
            kernels.floor_sums([3, 4], [5, 0], 1, 1)
        with pytest.raises(ValueError, match="n >= 0 and m >= 1"):
            kernels.floor_sums(-1, 5, 1, 1)
        assert kernels.floor_sums([], [], [], []).tolist() == []


# periods with triple gcd 1, small ones and ones past int64: with
# P = 10^18 + 9, (2P, 6, 3P) has a = 3, b = 2, n = P and (5P, 14, 21P) has
# a = 7, B = 2, N = 3
row_triples = st.one_of(
    st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60)).filter(
        lambda t: gcd(gcd(t[0], t[1]), t[2]) == 1
    ),
    st.sampled_from([(2 * (10**18 + 9), 6, 3 * (10**18 + 9)),
                     (5 * (10**18 + 9), 14, 21 * (10**18 + 9)), *LARGE_TRIPLES]),
)
# (s_b, s_n, base), shifts past int64 included
shift_triples = st.tuples(st.integers(0, 2**70), st.integers(0, 2**70), st.integers(-(2**70), 2**70))


class TestRowSums:
    """The array hyperperiod sums against ``_period_sums``, row by row."""

    @given(st.lists(st.tuples(row_triples, shift_triples), min_size=1, max_size=6),
           st.integers(1, 4))
    @example([((34, 7, 10), (0, 0, 0))], 1)
    @example([((20, 28, 35), (3, 5, 2))], 2)  # a = 7 split over four passes
    @example([((5 * (10**18 + 9), 14, 21 * (10**18 + 9)), (2**62, 1, 2))], 3)
    # rows whose columns fit int64 but whose true intermediates pass 2^63, so
    # that each bound must choose Python ints.  Lane bound: t = i*A' at
    # A' = 2^62 + 1, alone and with either shift near A'; N*r_ab at a = 1;
    # sums over a = 9973 lanes where a*n dominates, and over a = 20011 where
    # a*b does.  Assembly bound: a*N*a*b*B*(B - 1)/2 at B = 2^40 + 1
    @example([((2**62 + 1, 6, 3), (0, 0, 0))], 1)
    @example([((2**62 + 1, 6, 3), (2**62 + 3, 0, 0))], 1)
    @example([((2**62 + 1, 6, 3), (0, 2**62 + 1, 0))], 1)
    @example([((10**12 + 39, 10**12 + 39, 10**9 + 7), (1, 0, 0))], 1)
    @example([((100003, 19946, 3154554533797), (0, 0, 0))], 4)
    @example([((10**11 + 3, 20011 * (10**11 + 3), 20011), (0, 0, 0))], 4)
    @example([((1, 2**40 + 1, 3), (0, 0, 0))], 1)
    # six rows of a = 3 at A' = 2^63 // 34 + 2: |i| <= a keeps i*A' in int64,
    # where i counted across rows would pass 2^63 inside the sixth row
    @example([((2**63 // 34 + 2, 6, 3), (0, 0, 0))] * 6, 1)
    def test_rows_equal_period_sums(self, rows, lanes):
        ds = [decompose(*t) for t, _ in rows]
        cols = [(d.a_period, d.a * d.b, d.a * d.n, d.N, d.a, d.B, *shifts)
                for d, (_, shifts) in zip(ds, rows)]
        with mock.patch.object(kernels, "_LANES", lanes):
            # each column int64 where its own values fit, else Python ints
            got = kernels._row_sums(*(kernels._fit(max(map(abs, col)), col)[0]
                                      for col in zip(*cols)))
        want = [kernels._period_sums(d.a_period, d.b_period, d.n_period, d.period, [shifts])[0]
                for d, (_, shifts) in zip(ds, rows)]
        assert got.tolist() == want

    def test_int64_rows_stay_int64(self):
        d = decompose(34, 7, 10)
        cols = (d.a_period, d.a * d.b, d.a * d.n, d.N, d.a, d.B, 5, 3, 2)
        got = kernels._row_sums(*(np.full(4, x, dtype=np.int64) for x in cols))
        assert got.dtype == np.int64
        assert got.tolist() == kernels._period_sums(34, 7, 10, d.period, [(5, 3, 2)]) * 4


@st.composite
def geometric_columns(draw, n_max, t_max, v_max):
    """n terms of ``rows`` columns each, and one (v, w) pair per p column."""
    n, rows = draw(st.integers(1, n_max)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-t_max, t_max), min_size=rows, max_size=rows)
    terms = draw(st.lists(row, min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(1, v_max), min_size=1, max_size=3))
    return terms, vs, [draw(st.integers(0, v)) for v in vs]


class TestGeometricSum:
    """The binary-splitting geometric sum against Horner's rule."""

    @given(st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=300),
           st.integers(1, 2**64), st.integers(0, 2**64))
    @example([5], 3, 2)
    @example([1] * 300, 2**64, 2**64 - 1)
    @example([-(2**200)] * 7, 5, 0)
    def test_ints_equal_horner(self, terms, v, w):
        w %= v + 1
        assert kernels.geometric_sum(terms, v, w) == geometric_sum_ref(terms, v, w)

    # int64 where no value passes 2^53, and Python ints past 2^63
    @pytest.mark.parametrize("dtype, n_max, t_max, v_max",
                             [(np.int64, 6, 2**10, 2**8), (object, 30, 2**100, 2**64)],
                             ids=["int64", "object"])
    @given(data=st.data())
    def test_columns_equal_horner(self, dtype, n_max, t_max, v_max, data):
        terms, vs, ws = data.draw(geometric_columns(n_max, t_max, v_max))
        n, rows = len(terms), len(terms[0])
        x, vn, wn = kernels.geometric_sum(
            np.array(terms, dtype=dtype)[:, :, None], np.array(vs, dtype=dtype),
            np.array(ws, dtype=dtype),
        )
        assert x.dtype == vn.dtype == wn.dtype == dtype
        x = np.broadcast_to(x, (rows, len(vs)))  # one term is the column itself
        for i in range(rows):
            for h, (v, w) in enumerate(zip(vs, ws)):
                assert int(x[i, h]) == geometric_sum_ref([t[i] for t in terms], v, w)[0]
        assert vn.tolist() == [v**n for v in vs]
        assert wn.tolist() == [w**n for w in ws]

    def test_both_exact_means_go_through_it(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(kernels, "geometric_sum", reached)
        with pytest.raises(Reached):
            expected_exact_extended(SystemConfig(decompose(34, 7, 10), p="1/2"))
        with pytest.raises(Reached):
            sweep.run_sweep(sweep.SweepGrid.from_dict({"A": 2, "B": 3, "N": 5, "p": "1/2"}))


class TestSimulatorKernels:
    def test_sim_basic_matches_naive(self):
        for t in TRIPLES:
            cycles = 3 * decompose(*t).period + 1
            got = kernels.sim_basic(*t, cycles)
            assert list(got) == naive_basic_ages(*t, cycles), t

    def test_sim_extended_matches_naive(self):
        for t in TRIPLES:
            for db, dn in SHIFTS:
                for p in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
                    thr = bernoulli_threshold(p)
                    ages, fails = kernels.sim_extended(*t, db, dn, thr, 12345, 400)
                    ref_ages, ref_fails = naive_extended(*t, db, dn, thr, 12345, 400)
                    assert list(ages) == ref_ages, (t, db, dn, p)
                    assert list(fails) == ref_fails, (t, db, dn, p)

    def test_a_draw_at_the_threshold_misses(self):
        # a draw hits when its top 53 bits are below the threshold.  At
        # (1, 9, 8), reads 9..16 see transmission 1 alone, the first that can
        # deliver: a threshold equal to its bits leaves them undefined, and
        # one above delivers to them
        t, seed = (1, 9, 8), 12345
        bits = splitmix64_ref(seed, 1) >> 11
        ages = []
        for thr in (bits, bits + 1):
            got = kernels.sim_extended(*t, 0, 0, thr, seed, 20)
            assert [x.tolist() for x in got] == list(naive_extended(*t, 0, 0, thr, seed, 20))
            ages.append(got[0][9:17].tolist())
        assert ages[0] == [-1] * 8 and min(ages[1]) >= 0


class TestNumpyExtendedChunks:
    """The extended simulator yields reads in blocks of ``_CHUNK``; shrinking
    the chunk moves every boundary, and neither it nor other runs stepped
    alongside, each reusing its own chunk buffers, may change a trace."""

    # (A', B', N'): A'/N' >= 13, windows wider than a chunk; A' < N', empty
    # windows; A'/N' = 3.4 and 1.75, windows of two widths
    CASES = [(13, 7, 1), (40, 3, 3), (5, 3, 13), (1, 9, 8), (6, 10, 15), (34, 7, 10), (7, 5, 4)]

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("cycles", [100, 103])
    def test_matches_naive_across_chunks(self, monkeypatch, chunk, cycles, runs):
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        seeds = [2024 + i for i in range(runs)]
        for t in self.CASES:
            # (60, 45): a warm-up prefix that spans several chunks
            for db, dn in [(0, 0), (3, 5), (60, 45)]:
                for p in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
                    thr = bernoulli_threshold(p)
                    gens = [kernels.sim_blocks(*t, db, dn, 1, thr, s, cycles) for s in seeds]
                    got = [([], []) for _ in seeds]
                    # every run takes its next block before any block is read
                    for blocks in zip(*gens):
                        for (ages, fails), (_, a, f) in zip(got, blocks):
                            ages += a.tolist()
                            fails += f.tolist()
                    for s, (ages, fails) in zip(seeds, got):
                        ref_ages, ref_fails = naive_extended(*t, db, dn, thr, s, cycles)
                        assert ages == ref_ages, (t, db, dn, p, s)
                        assert fails == ref_fails, (t, db, dn, p, s)

    def test_memory_bounded_by_reads_not_transmissions(self):
        # 3.3e8 transmissions fall between these 10^5 reads; drawing them all
        # would take gigabytes, the scan draws about two per read
        cycles = 10**5
        cfg = SystemConfig(decompose(10007, 5, 3), p=Fraction(1, 2))
        tracemalloc.start()
        try:
            ages, fails = kernels.sim_extended(10007, 5, 3, 0, 0, bernoulli_threshold(cfg.p), 31337, cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * cycles + 32 * 2**20
        assert (ages[1:] >= 0).all() and ages[0] == -1
        mean = ages[1:].mean()
        assert abs(mean - float(expected_exact_extended(cfg).value)) < 0.1, mean

    # (periods, p or None for the basic model, reads); (10007, 5, 3) fills a
    # chunk-sized scan buffer from ten reads
    RUNS = [((34, 7, 10), None, 1), ((34, 7, 10), None, 1000), ((13, 5, 1), Fraction(1), 1000),
            ((13, 5, 1), Fraction(1, 5), 1), ((13, 5, 1), Fraction(1, 5), 1000),
            ((3, 5, 2), Fraction(1, 2), 1000), ((10007, 5, 3), Fraction(1, 2), 10)]

    @pytest.mark.parametrize("t, p, cycles", RUNS)
    def test_buffers_sized_by_the_run(self, t, p, cycles):
        # bound stated before measuring, in int64 entries: the two whole-run
        # columns, 12 per read R of a block (its columns, slots and
        # temporaries), 4 per entry of a scan step's buffers, which hold R
        # entries at p = 1, else R*(ceil(A'/N') - 1) up to a chunk, or R if
        # more; 8 KB for the Python objects
        reads = min(kernels._CHUNK, cycles)
        span = -(-t[0] // t[2]) - 1
        size = reads if p in (None, 1) else max(reads, min(kernels._CHUNK, reads * span))
        tracemalloc.start()
        try:
            if p is None:
                kernels.sim_basic(*t, cycles)
            else:
                kernels.sim_extended(*t, 0, 0, bernoulli_threshold(p), 7, cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * cycles + 12 * reads + 4 * size) + 8192, peak


def _spy_draws(monkeypatch, limit=None) -> list:
    """A list to which every ``_misses`` call appends the number of variates it
    draws; a call that takes the total past ``limit`` raises instead."""
    real, calls = kernels._misses, []

    def spy(seed, threshold, counters, out, tmp):
        calls.append(len(counters))
        if limit is not None and sum(calls) > limit:
            raise AssertionError(f"over {limit} draws: {calls[:8]}")
        return real(seed, threshold, counters, out, tmp)

    monkeypatch.setattr(kernels, "_misses", spy)
    return calls


class TestScanDraws:
    """A read's scan stops at its first success or after ceil(A'/N') draws."""

    # where N' divides A', every window holds exactly A'/N' transmissions, so
    # a scan ends at its window's start; the totals were counted on a scan
    # that tracked each window's start
    @pytest.mark.parametrize("t, draws", [((13, 12, 1), 509_704), ((3, 14, 1), 244_414)])
    def test_draws_where_every_window_is_full(self, monkeypatch, t, draws):
        calls = _spy_draws(monkeypatch)
        kernels.sim_extended(*t, 0, 0, bernoulli_threshold(Fraction(1, 5)), 7, 10**5)
        assert sum(calls) == draws

    def test_no_read_draws_more_than_its_bound(self, monkeypatch):
        # A'/N' = 1.75: windows of one and of two transmissions; in blocks of
        # one read, each block's draws are that read's
        monkeypatch.setattr(kernels, "_CHUNK", 1)
        calls = _spy_draws(monkeypatch)
        per_read = []
        for _ in kernels.sim_blocks(7, 5, 4, 0, 0, 1, bernoulli_threshold(Fraction(1, 5)), 7,
                                    2000):
            per_read.append(sum(calls))
            calls.clear()
        assert (min(per_read), max(per_read)) == (1, 2)

    # (23174301600137625, 11, 30) at delta_n = 482: read 0 sees j = -17, and
    # its window 7.7*10^14 more transmissions below 0.  (400, 11, 1) at
    # delta_n = 399: read 1 sees j = 0, so a scan of its window would go on
    # at index -1.  At seed 1 read 0's first draw misses, and so does read
    # 1's at (400, 11, 1): each run makes its two first draws and no scan draw
    @pytest.mark.parametrize("t, dn, j, missed, trace", [
        ((23174301600137625, 11, 30), 482, [-17, 772476720004571], 0, ([-1, 14], [-1, 0])),
        ((400, 11, 1), 399, [-400, 0], 1, ([-1, -1], [-1, -1])),
    ])
    def test_a_window_below_transmission_0_makes_no_scan_draw(self, monkeypatch, t, dn, j,
                                                              missed, trace):
        thr = bernoulli_threshold(Fraction(1, 2))
        assert [(k * t[0] - 1 - dn) // t[2] for k in range(2)] == j
        assert splitmix64_ref(1, j[missed] % 2**64) >> 11 >= thr
        calls = _spy_draws(monkeypatch, limit=10**6)
        ages, fails = kernels.sim_extended(*t, 0, dn, thr, 1, 2)
        assert calls == [2]
        assert (ages.tolist(), fails.tolist()) == trace

    @given(st.tuples(st.integers(1, 60), st.integers(1, 12), st.integers(1, 12)),
           st.integers(0, 60), st.integers(0, 400),
           st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 10)]),
           st.integers(0, 2**64 - 1), st.integers(1, 30))
    # reads 0 and 1 see j = -483 and -83, and each window holds 400
    # transmissions below 0; at seed 2 both first draws miss
    @example((400, 11, 1), 0, 482, Fraction(1, 2), 2, 5)
    def test_windows_below_transmission_0_equal_the_replay(self, t, db, dn, p, seed, cycles):
        thr = bernoulli_threshold(p)
        ages, fails = kernels.sim_extended(*t, db, dn, thr, seed, cycles)
        assert (ages.tolist(), fails.tolist()) == naive_extended(*t, db, dn, thr, seed, cycles)

    @pytest.mark.parametrize("chunk", [1, 5, kernels._CHUNK])
    def test_p1_makes_no_draw(self, monkeypatch, chunk):
        # every draw would hit, so each read's newest success is its newest
        # transmission, in the buffered model and in the instantaneous one
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        calls = _spy_draws(monkeypatch)
        for t in TestNumpyExtendedChunks.CASES:
            for db, dn in [(0, 0), (3, 5), (60, 45)]:
                _, ages, fails = _joined(kernels.sim_blocks(*t, db, dn, 1, kernels._SURE, 7, 103))
                ref_ages, ref_fails = naive_extended(*t, db, dn, kernels._SURE, 7, 103)
                assert (ages.tolist(), fails.tolist()) == (ref_ages, ref_fails), (t, db, dn)
            _, ages, fails = _joined(kernels.sim_blocks(*t, 0, 0, 0, kernels._SURE, 7, 103))
            assert ages.tolist() == naive_basic_ages(*t, 103) and not fails.any(), t
        assert calls == []


_PERIODS = st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(1, 12))


def _joined(blocks):
    """Blocks of one run, copied as they come (a buffer may be reused), then joined."""
    starts, ages, fails = zip(*[(k0, a.copy(), f.copy()) for k0, a, f in blocks])
    return list(starts), np.concatenate(ages), np.concatenate(fails)


class TestSimulatorBlocks:
    """Joined, the blocks of a run are the whole-run kernel's trace, at any
    block size."""

    @given(_PERIODS, st.integers(0, 60), st.integers(0, 60),
           st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(9, 10)]),
           st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(1, 64))
    @example((1, 9, 8), 60, 45, Fraction(1, 5), 9, 300, 5)  # a warm-up over several blocks
    @example((13, 7, 1), 0, 0, Fraction(1, 10), 1, 64, 64)  # one block, exactly full
    def test_extended_blocks_join_to_the_trace(self, t, db, dn, p, seed, cycles, chunk):
        thr, seed = bernoulli_threshold(p), np.uint64(seed)
        ages, fails = kernels.sim_extended(*t, db, dn, thr, seed, cycles)
        with mock.patch.object(kernels, "_CHUNK", chunk):
            starts, got_ages, got_fails = _joined(kernels.sim_blocks(*t, db, dn, 1, thr, seed,
                                                                     cycles))
        assert starts == list(range(0, cycles, chunk))
        assert (got_ages == ages).all() and (got_fails == fails).all()

    @given(_PERIODS, st.integers(1, 300), st.integers(1, 64))
    def test_basic_blocks_join_to_the_trace(self, t, cycles, chunk):
        ages = kernels.sim_basic(*t, cycles)
        with mock.patch.object(kernels, "_CHUNK", chunk):
            starts, got_ages, got_fails = _joined(kernels.sim_blocks(*t, 0, 0, 0, kernels._SURE,
                                                                     0, cycles))
        assert starts == list(range(0, cycles, chunk))
        assert (got_ages == ages).all() and not got_fails.any()


def _draw(seed, counters):
    n = len(counters)
    return kernels._splitmix64_np(np.uint64(seed), counters, np.empty(n, np.uint64), np.empty(n, np.uint64))


class TestSplitmix64:
    def test_frozen_reference_value(self):
        assert splitmix64_ref(42, 0) == 13679457532755275413
        got = _draw(42, np.arange(1, dtype=np.uint64))
        assert int(got[0]) == 13679457532755275413

    def test_vector_matches_reference_stream(self):
        ctrs = np.arange(64, dtype=np.uint64)
        got = _draw(2**64 - 1, ctrs)
        assert [int(v) for v in got] == [splitmix64_ref(2**64 - 1, c) for c in range(64)]

    def test_negative_int64_counters_draw_at_their_uint64_wrap(self):
        ctrs = np.array([-1, -2, -(2**63), 0, 2**63 - 1], dtype=np.int64)
        for seed in (0, 42, 2**64 - 1):
            got = _draw(seed, ctrs)
            assert [int(v) for v in got] == [splitmix64_ref(seed, int(c) % 2**64) for c in ctrs]

    def test_draws_in_place_into_the_given_buffer(self):
        ctrs = np.arange(5, 13, dtype=np.int64)
        out, tmp = np.empty(8, np.uint64), np.empty(8, np.uint64)
        assert kernels._splitmix64_np(np.uint64(7), ctrs, out, tmp) is out
        assert [int(v) for v in out] == [splitmix64_ref(7, c) for c in range(5, 13)]
        assert list(ctrs) == list(range(5, 13))


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50))
@example([])
@example([2**62] * 13)
@example([2**63 - 1] * 5 + [-(2**63)] * 2)
@example([-1, 2**32 - 1, 2**32, -(2**32), 7])
def test_exact_sum_matches_python_ints(values):
    assert kernels.exact_sum(np.array(values, dtype=np.int64)) == sum(values)


class TestExactSum:
    """``exact_sum`` against Python's ``sum`` on each of its paths."""

    @given(st.lists(st.integers(-(2**100), 2**100), max_size=30))
    @example([])
    def test_object_array_sums_as_python_ints(self, values):
        assert kernels.exact_sum(np.array(values, dtype=object)) == sum(values)

    # len*max|x| = 2^63 - 1 takes one int64 pass; from 2^63 on a pass could
    # wrap, as [2^62, 2^62] does
    @pytest.mark.parametrize("values", [
        [(2**63 - 1) // 7] * 7,
        [-((2**63 - 1) // 7)] * 7,
        [2**63 - 1],
        [2**62] * 2,
        [-(2**62)] * 2,
        [2**63 - 1, 1],
    ])
    def test_one_pass_edge(self, values):
        assert kernels.exact_sum(np.array(values, dtype=np.int64)) == sum(values)

    # abs(-2^63) wraps to -2^63 in int64, which would pass the one-pass bound
    @pytest.mark.parametrize("values", [[-(2**63)], [-(2**63), -1], [-(2**63)] * 3 + [5]])
    def test_most_negative_int64(self, values):
        x = np.array(values, dtype=np.int64)
        assert kernels._max_abs(x) == 2**63
        assert kernels.exact_sum(x) == sum(values)


class TestFit:
    def test_list_straddling_int64_holds_exact_python_ints(self):
        # a default np.asarray reads this list as float64
        (x,) = kernels._fit(2**64, [2, 2**63 + 1])
        assert x.dtype == object
        assert x.tolist() == [2, 2**63 + 1]
        assert [type(v) for v in x.tolist()] == [int, int]

    def test_lists_and_arrays_alike(self):
        small = kernels._fit(2**63 - 1, [1, 2], np.array([3], dtype=object), (4,))
        assert [x.dtype for x in small] == [np.dtype(np.int64)] * 3
        big = kernels._fit(2**63, [1, 2], np.arange(3), 4)
        assert [x.dtype for x in big] == [np.dtype(object)] * 3
        assert [type(v) for x in big for v in np.ravel(x).tolist()] == [int] * 6

    def test_int64_array_is_not_copied(self):
        x = np.arange(5, dtype=np.int64)
        assert kernels._fit(100, x)[0] is x


class TestGuards:
    def test_sequence_args(self):
        with pytest.raises(ValueError):
            kernels.check_sequence_args(0, 1, 1, 0, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            kernels.check_sequence_args(1, 1, 1, -1, 0, 0, 0, 1)
        with pytest.raises(OverflowError):
            kernels.check_sequence_args(2**40, 1, 1, 0, 0, 0, 2**22, 1)
        kernels.check_sequence_args(34, 7, 10, 0, 0, 0, 0, 100)

    def test_sequence_args_admit_an_empty_count(self):
        kernels.check_sequence_args(34, 7, 10, 0, 0, 0, 0, 0)

    def test_simulate_args(self):
        with pytest.raises(ValueError):
            kernels.check_simulate_args(1, 1, 0, 0, 0, 10)
        with pytest.raises(ValueError):
            kernels.check_simulate_args(1, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="phase shifts"):
            kernels.check_simulate_args(1, 1, 1, 0, -1, 10)
        with pytest.raises(OverflowError):
            kernels.check_simulate_args(2**40, 1, 1, 0, 0, 2**23)

    def test_simulate_args_count_the_source_period(self):
        # the last slot, cycles*A' + delta_b + delta_n, plus B' + N' must stay below 2^62
        kernels.check_simulate_args(1, 2**61, 1, 0, 0, 2**61 - 2)
        with pytest.raises(OverflowError):
            kernels.check_simulate_args(1, 2**61, 1, 0, 0, 2**61 - 1)

    @pytest.mark.parametrize("shifts", [(2**62 - 61, 0), (0, 2**62 - 61), (2**61, 2**61 - 61)])
    def test_simulate_args_count_the_shifts(self, shifts):
        # at (1, 7, 3) the last slot of 50 reads, 50 + delta_b + delta_n, plus
        # B' + N' is 2^62 - 1: a 51st read is refused.  The admitted run is
        # the slot-by-slot replay's, every read before any delivery
        kernels.check_simulate_args(1, 7, 3, *shifts, 50)
        with pytest.raises(OverflowError, match="slot numbers"):
            kernels.check_simulate_args(1, 7, 3, *shifts, 51)
        args = (1, 7, 3, *shifts, 10**15, 1, 50)
        ages, fails = kernels.sim_extended(*args)
        assert (ages.tolist(), fails.tolist()) == naive_extended(*args) == ([-1] * 50,) * 2
