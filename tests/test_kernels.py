"""Both kernel backends must agree bit-for-bit with each other, with the
scalar formulas, and with the naive slot-stepping oracles."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from aoiclock import kernels
from aoiclock.basic import aoi_basic, decompose
from aoiclock.extended import SystemConfig, aoi_conditional, expected_exact_extended
from aoiclock.simulate import bernoulli_threshold

from conftest import naive_basic_ages, naive_extended, splitmix64_ref

BACKENDS = sorted(kernels.IMPLS)

TRIPLES = [(34, 7, 10), (6, 10, 15), (1, 1, 1), (5, 1, 1), (1, 9, 8), (12, 35, 25)]
SHIFTS = [(0, 0), (3, 5), (20, 11)]


def test_active_backend_is_registered():
    assert kernels.backend() in kernels.IMPLS
    for name in ("seq_basic", "seq_conditional", "period_sums_conditional",
                 "sim_basic", "sim_extended"):
        assert getattr(kernels, name) is kernels.IMPLS[kernels.backend()][name]


def test_numba_backend_present_here():
    # numba is optional: wherever it imports, the kernels module must register
    # it, or half the parametrized matrix below silently goes missing; where
    # it does not import, the registry must not name it and numpy must run.
    # The probe is the program's own (an ImportError means numpy), not
    # find_spec, since an installed but broken numba falls back to numpy.
    try:
        from numba import njit  # noqa: F401

        importable = True
    except ImportError:
        importable = False
    assert kernels.HAVE_NUMBA is importable
    assert ("numba" in kernels.IMPLS) is importable
    assert BACKENDS == sorted(kernels.IMPLS)
    if not importable:
        assert kernels.backend() == "numpy"


@pytest.mark.parametrize("backend", BACKENDS)
class TestSequenceKernels:
    def test_seq_basic_matches_scalar(self, backend):
        fn = kernels.IMPLS[backend]["seq_basic"]
        for t in TRIPLES:
            d = decompose(*t)
            got = fn(*t, 3, 50)
            want = [aoi_basic(d, k) for k in range(3, 53)]
            assert got.dtype == np.int64
            assert list(got) == want, t

    def test_seq_conditional_matches_scalar(self, backend):
        fn = kernels.IMPLS[backend]["seq_conditional"]
        for t in TRIPLES:
            d = decompose(*t)
            for db, dn in SHIFTS:
                cfg = SystemConfig(d, delta_b=db, delta_n=dn)
                for l in (0, 1, 4):
                    got = fn(*t, db, dn, l, 2, 40)
                    want = [aoi_conditional(cfg, k, l) for k in range(2, 42)]
                    assert list(got) == want, (t, db, dn, l)

    def test_period_sums_match_summed_sequences(self, backend):
        impl = kernels.IMPLS[backend]
        for t in TRIPLES:
            d = decompose(*t)
            for db, dn in SHIFTS:
                sums = impl["period_sums_conditional"](*t, db, dn, 6, d.period)
                assert sums.shape == (6,)
                for l in range(6):
                    seq = impl["seq_conditional"](*t, db, dn, l, 1, d.period)
                    assert int(sums[l]) == int(seq.sum()), (t, db, dn, l)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSimulatorKernels:
    def test_sim_basic_matches_naive(self, backend):
        fn = kernels.IMPLS[backend]["sim_basic"]
        for t in TRIPLES:
            cycles = 3 * decompose(*t).period + 1
            got = fn(*t, cycles)
            assert list(got) == naive_basic_ages(*t, cycles), t

    def test_sim_extended_matches_naive(self, backend):
        fn = kernels.IMPLS[backend]["sim_extended"]
        for t in TRIPLES:
            for db, dn in SHIFTS:
                for p in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
                    thr = bernoulli_threshold(p)
                    ages, fails = fn(*t, db, dn, thr, 12345, 400)
                    ref_ages, ref_fails = naive_extended(*t, db, dn, thr, 12345, 400)
                    assert list(ages) == ref_ages, (t, db, dn, p)
                    assert list(fails) == ref_fails, (t, db, dn, p)


class TestNumpyExtendedChunks:
    """The numpy simulator scans reads in chunks of ``_CHUNK``; shrinking the
    chunk moves every boundary and must not change a trace."""

    # (A', B', N'): A'/N' >= 13, windows wider than a chunk; A' < N', empty
    # windows; A'/N' = 3.4, windows of two widths
    CASES = [(13, 7, 1), (40, 3, 3), (5, 3, 13), (1, 9, 8), (6, 10, 15), (34, 7, 10)]

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("cycles", [100, 103])
    def test_matches_naive_across_chunks(self, monkeypatch, chunk, cycles):
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        fn = kernels.IMPLS["numpy"]["sim_extended"]
        for t in self.CASES:
            # (60, 45): a warm-up prefix that spans several chunks
            for db, dn in [(0, 0), (3, 5), (60, 45)]:
                for p in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
                    thr = bernoulli_threshold(p)
                    ages, fails = fn(*t, db, dn, thr, 2024, cycles)
                    ref_ages, ref_fails = naive_extended(*t, db, dn, thr, 2024, cycles)
                    assert list(ages) == ref_ages, (t, db, dn, p)
                    assert list(fails) == ref_fails, (t, db, dn, p)

    def test_memory_bounded_by_reads_not_transmissions(self):
        # 3.3e8 transmissions fall between these 10^5 reads; drawing them all
        # would take gigabytes, the scan draws about two per read
        cycles = 10**5
        cfg = SystemConfig(decompose(10007, 5, 3), p=Fraction(1, 2))
        fn = kernels.IMPLS["numpy"]["sim_extended"]
        tracemalloc.start()
        try:
            ages, fails = fn(10007, 5, 3, 0, 0, bernoulli_threshold(cfg.p), 31337, cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * cycles + 32 * 2**20
        assert (ages[1:] >= 0).all() and ages[0] == -1
        mean = ages[1:].mean()
        assert abs(mean - float(expected_exact_extended(cfg).value)) < 0.1, mean


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba is not installed")
class TestBackendEquivalence:
    def test_sequences_identical(self):
        a, b = (kernels.IMPLS[k] for k in BACKENDS[:2])
        for t in TRIPLES:
            assert (a["seq_basic"](*t, 0, 300) == b["seq_basic"](*t, 0, 300)).all()
            assert (
                a["seq_conditional"](*t, 2, 7, 3, 0, 300)
                == b["seq_conditional"](*t, 2, 7, 3, 0, 300)
            ).all()

    def test_extended_sim_bit_identical(self):
        a, b = (kernels.IMPLS[k] for k in BACKENDS[:2])
        thr = bernoulli_threshold(Fraction(1, 3))
        for t in TRIPLES:
            ages_a, fails_a = a["sim_extended"](*t, 4, 9, thr, 999, 2000)
            ages_b, fails_b = b["sim_extended"](*t, 4, 9, thr, 999, 2000)
            assert (ages_a == ages_b).all()
            assert (fails_a == fails_b).all()


class TestSplitmix64:
    def test_frozen_reference_value(self):
        assert splitmix64_ref(42, 0) == 13679457532755275413
        got = kernels._splitmix64_np(np.uint64(42), np.arange(1, dtype=np.uint64))
        assert int(got[0]) == 13679457532755275413

    def test_vector_matches_reference_stream(self):
        ctrs = np.arange(64, dtype=np.uint64)
        got = kernels._splitmix64_np(np.uint64(2**64 - 1), ctrs)
        assert [int(v) for v in got] == [splitmix64_ref(2**64 - 1, c) for c in range(64)]


class TestGuards:
    def test_sequence_args(self):
        with pytest.raises(ValueError):
            kernels.check_sequence_args(0, 1, 1, 0, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            kernels.check_sequence_args(1, 1, 1, -1, 0, 0, 0, 1)
        with pytest.raises(OverflowError):
            kernels.check_sequence_args(2**40, 1, 1, 0, 0, 0, 2**22, 1)
        kernels.check_sequence_args(34, 7, 10, 0, 0, 0, 0, 100)

    def test_simulate_args(self):
        with pytest.raises(ValueError):
            kernels.check_simulate_args(1, 1, 0, 0, 0, 10)
        with pytest.raises(ValueError):
            kernels.check_simulate_args(1, 1, 1, 0, 0, 0)
        with pytest.raises(OverflowError):
            kernels.check_simulate_args(2**40, 1, 1, 0, 0, 2**23)

    def test_period_sums_args(self):
        with pytest.raises(OverflowError):
            kernels.check_period_sums_args(2**34, 2**34, 1, 0, 0, 10, 2**34)
        kernels.check_period_sums_args(34, 7, 10, 0, 0, 50, 35)
