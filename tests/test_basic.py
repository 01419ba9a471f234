import pickle
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoiclock import basic
from aoiclock.basic import (
    AoiDistribution,
    ConfigError,
    NullSequenceError,
    PeriodDecomposition,
    decompose,
    distribution_basic,
    expected_approx_basic,
    expected_exact_basic,
    max_bound_basic,
    rel_error_bound_basic,
    sequence_basic,
)
from conftest import (
    LARGE_TRIPLES,
    ArithmeticProgression,
    coprime_triples,
    age_ref,
    naive_basic_ages,
    start_ref,
)

REFERENCE = decompose(34, 7, 10)


def triple_strategy(limit=40):
    return (
        st.tuples(
            st.integers(1, limit), st.integers(1, limit), st.integers(1, limit)
        )
        .filter(lambda t: gcd(gcd(t[0], t[1]), t[2]) == 1)
    )


class TestDecompose:
    def test_reference_config(self):
        d = REFERENCE
        assert (d.A, d.B, d.N, d.a, d.b, d.n) == (17, 7, 5, 1, 1, 2)
        assert d.period == 35

    def test_all_units(self):
        d = decompose(1, 1, 1)
        assert (d.A, d.B, d.N, d.a, d.b, d.n) == (1, 1, 1, 1, 1, 1)

    def test_pairwise_shared_factors(self):
        d = decompose(6, 10, 15)
        assert (d.A, d.B, d.N, d.a, d.b, d.n) == (1, 1, 1, 5, 2, 3)

    def test_rejects_common_divisor_with_rescale_hint(self):
        with pytest.raises(ConfigError, match="common divisor 2.*rescale"):
            decompose(4, 6, 2)

    def test_rejects_nonpositive_periods(self):
        with pytest.raises(ConfigError):
            decompose(0, 1, 1)

    def test_tuple_guards(self):
        with pytest.raises(ConfigError, match="periods must be >= 1"):
            PeriodDecomposition(0, 1, 1)
        with pytest.raises(ConfigError, match="common divisor"):
            PeriodDecomposition(2, 4, 6)

    def test_tuple_and_decompose_give_one_common_divisor_message(self):
        with pytest.raises(ConfigError) as direct:
            PeriodDecomposition(4, 6, 2)
        with pytest.raises(ConfigError) as built:
            decompose(4, 6, 2)
        assert str(direct.value) == str(built.value) == (
            "periods 4, 6, 2 share the common divisor 2; "
            "divide all three by it (rescale the time axis) and retry"
        )

    def test_factors_are_not_arguments(self):
        with pytest.raises(TypeError):
            PeriodDecomposition(34, 7, 10, 17)

    def test_repr_lists_periods_then_factors(self):
        assert repr(REFERENCE) == (
            "PeriodDecomposition(a_period=34, b_period=7, n_period=10, "
            "A=17, B=7, N=5, a=1, b=1, n=2)"
        )

    @given(triple_strategy())
    def test_built_from_periods_alone(self, t):
        d = PeriodDecomposition(*t)
        assert d == decompose(*t)
        assert hash(d) == hash(decompose(*t))
        back = pickle.loads(pickle.dumps(d))
        assert back == d and hash(back) == hash(d)

    @given(triple_strategy())
    def test_products_reconstruct_periods(self, t):
        d = decompose(*t)
        assert d.A * d.b * d.n == d.a_period
        assert d.B * d.b * d.a == d.b_period
        assert d.N * d.n * d.a == d.n_period
        assert d.a == gcd(d.b_period, d.n_period)
        assert d.b == gcd(d.a_period, d.b_period)
        assert d.n == gcd(d.a_period, d.n_period)


def age(d, k):
    """The library's age at read k, one read of ``sequence_basic``."""
    return int(sequence_basic(d, k, 1)[0])


class TestAoiBasic:
    def test_reference_values(self):
        assert age(REFERENCE, 0) == 0
        assert age(REFERENCE, 1) == 6

    def test_synchronous_always_zero(self):
        d = decompose(1, 1, 1)
        assert sequence_basic(d, 0, 10).tolist() == [0] * 10

    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError):
            sequence_basic(REFERENCE, -1, 1)

    @given(triple_strategy(), st.integers(0, 10**6))
    def test_range_and_periodicity(self, t, k):
        d = decompose(*t)
        v = age(d, k)
        assert 0 <= v < d.b_period + d.n_period
        assert v == age(d, k + d.period)

    @given(triple_strategy(20), st.integers(0, 500))
    def test_matches_naive_slot_simulation(self, t, k):
        d = decompose(*t)
        assert age(d, k) == naive_basic_ages(*t, k + 1)[k]


class TestSequenceBasic:
    def test_equals_scalar_evaluation(self):
        seq = sequence_basic(REFERENCE, 0, 100)
        assert [int(v) for v in seq] == [age_ref(REFERENCE, k) for k in range(100)]

    def test_window_start_irrelevant_modulo_period(self):
        p = REFERENCE.period
        a = sequence_basic(REFERENCE, 1, p)
        b = sequence_basic(REFERENCE, 1 + 3 * p, p)
        assert (a == b).all()


class TestProgressionFamily:
    def test_reference_offsets(self):
        # i-major starts: progression (i, j) is entry i*N + j, and a == 1 here
        assert distribution_basic(REFERENCE).starts.tolist() == [0, 2, 4, 6, 8]

    def test_reference_distribution_shape(self):
        dist = distribution_basic(REFERENCE)
        assert len(dist.starts) == 5
        assert dist.step == 1 and dist.count == 7
        assert dist.period == 35
        assert dist.max() == 14

    def test_all_units_distribution(self):
        dist = distribution_basic(decompose(1, 1, 1))
        assert dist.values == Counter({0: 1})

    def test_multiset_equality_small_grid(self, triples_12):
        for t in triples_12:
            d = decompose(*t)
            dist = distribution_basic(d)
            seq = sequence_basic(d, 1, d.period)
            assert dist.values == Counter(int(v) for v in seq), t
            assert dist.min() == min(dist.values), t
            assert dist.max() == max(dist.values), t
            mean = Fraction(sum(v * c for v, c in dist.values.items()), d.period)
            assert dist.mean() == mean, t

    @given(triple_strategy())
    def test_progression_count_and_step(self, t):
        d = decompose(*t)
        dist = distribution_basic(d)
        assert len(dist.starts) == d.a * d.N
        assert dist.step == d.a * d.b and dist.count == d.B

    @given(triple_strategy(60), st.tuples(*[st.integers(0, 40)] * 3))
    # a*a_period past 2^63 (a = 2), then shifts past it
    @example((2**62 + 1, 10, 6), (0, 0, 0))
    @example((7, 10, 6), (2**63, 2**64 + 3, 2**65))
    def test_starts_match_scalar_oracle(self, t, shifts):
        d = decompose(*t)
        want = [start_ref(d, i, j, shifts) for i in range(d.a) for j in range(d.N)]
        real, dtypes = basic._start, []

        def start(*args):
            out = real(*args)
            dtypes.append(out.dtype)
            return out

        with mock.patch.object(basic, "_start", start):
            starts = basic._family(d, shifts).starts
        assert starts.tolist() == want
        # the family's arithmetic leaves int64 only where it could wrap, and
        # its starts are int64 wherever every start fits
        assert dtypes == [np.dtype(object) if max(*t, *shifts) > 2**62 else np.dtype(np.int64)]
        assert (starts.dtype == object) == (max(want) >= 2**63)
        # the array function serves scalar indices too
        pairs = [(i, j) for i in range(d.a) for j in range(d.N)]
        assert [basic._start(d, i, j, shifts) for i, j in pairs] == want
        if shifts == (0, 0, 0):
            assert distribution_basic(d).starts.tolist() == want


# hand-built families (starts, step, count): starts far past any
# hyperperiod, and the empty family
_FAMILIES = st.tuples(
    st.lists(st.integers(0, 10**12), max_size=12),
    st.integers(1, 10**6),
    st.integers(1, 40),
)


class TestStarts:
    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, object])
    def test_starts_that_fit_are_int64(self, dtype):
        dist = AoiDistribution(np.array([1, 2], dtype=dtype), 1, 1)
        assert dist.starts.dtype == np.int64
        assert dist.starts.tolist() == [1, 2]

    def test_start_past_int64_stays_a_python_int(self):
        dist = AoiDistribution(np.array([2**63], dtype=np.uint64), 1, 1)
        assert dist.starts.dtype == object
        assert dist.starts.tolist() == [9223372036854775808]

    # numpy's default reading of such a list is float64, which rounds 2^63 + 1
    @pytest.mark.parametrize("starts", [[1, 2**63], [1, 2**63 + 1]])
    def test_list_straddling_int64_holds_exact_python_ints(self, starts):
        dist = AoiDistribution(starts, 1, 1)
        assert dist.starts.dtype == object
        assert dist.starts.tolist() == starts
        assert [type(s) for s in dist.starts.tolist()] == [int, int]

    def test_negative_start_past_int64_refused_with_its_value(self):
        with pytest.raises(ValueError, match=f"^starts must be >= 0, got {-(2**64) - 3}$"):
            AoiDistribution([5, -(2**64) - 3], 1, 1)

    def test_float_starts_rejected(self):
        with pytest.raises(TypeError):
            AoiDistribution(np.array([1.5]), 1, 1)


class TestSortedArray:
    @given(_FAMILIES)
    def test_equals_sorted_elements(self, family):
        starts, step, count = family
        dist = AoiDistribution(starts, step, count)
        want = np.sort(np.fromiter(chain.from_iterable(
            ArithmeticProgression(s, step, count).elements() for s in starts), np.int64))
        got = dist.to_sorted_array()
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        # built from the progressions, not from the expanded multiset
        assert "values" not in vars(dist)

    def test_empty_family(self):
        got = AoiDistribution([], 1, 1).to_sorted_array()
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_values_past_int64_equal_the_direct_ages(self):
        # three reads whose last age is 2^63 + 2; an int64 expansion wraps it
        d = decompose(2**62 + 1, 3 * (2**62 + 1), 1)
        want = sorted(age_ref(d, k) for k in range(d.period))
        assert want == [0, 2**62 + 1, 2**63 + 2]
        dist = distribution_basic(d)
        assert dist.to_sorted_array().tolist() == want
        assert dist.values == Counter(want)
        assert dist.mean() == Fraction(sum(want), d.period)

    @pytest.mark.parametrize("starts, step, count, message", [
        ([3, -1], 1, 1, "starts must be >= 0, got -1"),
        ([3], 0, 1, "step must be >= 1, got 0"),
        ([3], 1, 0, "count must be >= 1, got 0"),
    ])
    def test_guards(self, starts, step, count, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AoiDistribution(starts, step, count)


class TestAInvariance:
    @given(triple_strategy(25), st.integers(1, 50))
    def test_reader_cofactor_is_immaterial(self, t, a_star):
        d = decompose(*t)
        if gcd(a_star, d.a * d.b * d.n * d.B * d.N) != 1:
            return
        d2 = decompose(a_star * d.b * d.n, d.b_period, d.n_period)
        assert (d2.a, d2.b, d2.n, d2.B, d2.N) == (d.a, d.b, d.n, d.B, d.N)
        assert distribution_basic(d2).values == distribution_basic(d).values


class TestExpectedExact:
    def test_reference_value(self):
        assert expected_exact_basic(REFERENCE) == 7

    def test_shared_factor_config(self):
        assert expected_exact_basic(decompose(6, 10, 15)) == 8

    def test_null_config(self):
        assert expected_exact_basic(decompose(1, 1, 1)) == 0

    def test_equals_distribution_mean_small_grid(self, triples_12):
        for t in triples_12 + LARGE_TRIPLES:
            d = decompose(*t)
            assert expected_exact_basic(d) == distribution_basic(d).mean(), t

    def test_times_period_is_brute_force_sum(self, triples_12):
        for t in triples_12[::7]:
            d = decompose(*t)
            total = int(sequence_basic(d, 1, d.period).sum())
            assert expected_exact_basic(d) * d.period == total, t


class TestBandAndBounds:
    def test_reference_band(self):
        band = expected_approx_basic(REFERENCE)
        assert band.center == Fraction(15, 2)
        assert band.half_width == Fraction(1, 2)
        assert band.contains(7)

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError, match="half_width"):
            basic.BandedValue(Fraction(1), Fraction(-1, 2))

    def test_all_units_band(self):
        band = expected_approx_basic(decompose(1, 1, 1))
        assert band.center == Fraction(1, 2)
        assert band.half_width == Fraction(1, 2)
        assert band.contains(0)

    def test_band_holds_small_grid(self, triples_12):
        for t in triples_12:
            d = decompose(*t)
            assert expected_approx_basic(d).contains(expected_exact_basic(d)), t

    def test_reference_rel_error_bound(self):
        assert rel_error_bound_basic(REFERENCE) == Fraction(1, 14)

    def test_null_sequence_signalled(self):
        with pytest.raises(NullSequenceError):
            rel_error_bound_basic(decompose(1, 1, 1))
        with pytest.raises(NullSequenceError):
            rel_error_bound_basic(decompose(5, 1, 1))

    def test_rel_error_bound_holds_small_grid(self, triples_12):
        for t in triples_12:
            d = decompose(*t)
            exact = expected_exact_basic(d)
            try:
                bound = rel_error_bound_basic(d)
            except NullSequenceError:
                assert exact == 0
                continue
            assert exact > 0
            err = abs(exact - expected_approx_basic(d).center) / exact
            assert err <= bound, t

    def test_reference_max_bound(self):
        assert max_bound_basic(REFERENCE) == 15
        assert distribution_basic(REFERENCE).max() == 14

    def test_all_units_max(self):
        d = decompose(1, 1, 1)
        assert max_bound_basic(d) == 1
        assert distribution_basic(d).max() == 0

    def test_max_bound_holds_small_grid(self, triples_12):
        for t in triples_12:
            d = decompose(*t)
            assert distribution_basic(d).max() <= max_bound_basic(d), t
