import math
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoiclock.modmath import floor_sum
from conftest import ArithmeticProgression, ap_reduce_mod, pairing_classes, residue_orbit


class TestFloorSum:
    def test_examples(self):
        assert floor_sum(0, 5, 3, 7) == 0
        assert floor_sum(4, 3, 2, 1) == 0 + 1 + 1 + 2
        assert floor_sum(3, 4, -5, -2) == -1 - 2 - 3
        assert floor_sum(1, 1, 10**30, 10**30) == 10**30

    @pytest.mark.parametrize("n,m", [(-1, 3), (2, 0), (2, -4)])
    def test_rejects_bad_count_or_modulus(self, n, m):
        with pytest.raises(ValueError):
            floor_sum(n, m, 1, 1)

    # alpha and beta range over negatives and past m, where the reduction
    # takes its divmod steps
    @given(
        st.integers(0, 60),
        st.integers(1, 60),
        st.integers(-200, 200),
        st.integers(-200, 200),
    )
    @example(0, 7, -3, -11)
    @example(17, 5, 23, 41)
    @example(30, 13, -27, -40)
    def test_matches_brute_force(self, n, m, alpha, beta):
        assert floor_sum(n, m, alpha, beta) == sum((alpha * j + beta) // m for j in range(n))

    @given(st.integers(0, 300), st.integers(1, 10**12), st.integers(-(10**15), 10**15),
           st.integers(-(10**15), 10**15))
    def test_matches_fraction_floors_at_large_moduli(self, n, m, alpha, beta):
        want = sum(math.floor(Fraction(alpha * j + beta, m)) for j in range(n))
        assert floor_sum(n, m, alpha, beta) == want


class TestArithmeticProgression:
    def test_enumerates_exactly(self):
        ap = ArithmeticProgression(3, 4, 5)
        assert list(ap.elements()) == [3, 7, 11, 15, 19]
        assert ap.count == 5
        assert ap.last() == 19
        assert ap.sum() == 55
        assert ap.mean() == 11
        assert Counter(ap.elements()) == Counter([3, 7, 11, 15, 19])

    def test_singleton(self):
        ap = ArithmeticProgression(0, 1, 1)
        assert list(ap.elements()) == [0]

    @pytest.mark.parametrize("start,step,count", [(-1, 1, 1), (0, 0, 2), (0, 1, 0)])
    def test_rejects_invalid(self, start, step, count):
        with pytest.raises(ValueError):
            ArithmeticProgression(start, step, count)

    @given(st.integers(0, 1000), st.integers(1, 50), st.integers(1, 50))
    def test_mean_and_sum_agree_with_enumeration(self, start, step, count):
        ap = ArithmeticProgression(start, step, count)
        vals = list(ap.elements())
        assert len(vals) == count
        assert ap.sum() == sum(vals)
        assert ap.mean() == Fraction(sum(vals), count)


class TestResidueOrbit:
    def test_examples(self):
        assert residue_orbit(3, 5) == Counter({0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
        assert residue_orbit(1, 1) == Counter({0: 1})
        assert residue_orbit(17, 4) == Counter({0: 1, 1: 1, 2: 1, 3: 1})

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            residue_orbit(4, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            residue_orbit(0, 5)
        with pytest.raises(ValueError):
            residue_orbit(3, 0)

    @given(st.integers(1, 300), st.integers(1, 300))
    def test_orbit_is_full_permutation(self, x, y):
        if gcd(x, y) != 1:
            with pytest.raises(ValueError):
                residue_orbit(x, y)
        else:
            assert residue_orbit(x, y) == Counter(range(y))


class TestApReduceMod:
    def test_examples(self):
        assert ap_reduce_mod(5, 3, 4, negate=False) == ArithmeticProgression(2, 3, 4)
        assert ap_reduce_mod(5, 3, 4, negate=True) == ArithmeticProgression(1, 3, 4)
        assert ap_reduce_mod(0, 2, 3, negate=False) == ArithmeticProgression(0, 2, 3)

    @given(
        st.integers(-400, 400),
        st.integers(1, 20),
        st.integers(1, 20),
        st.booleans(),
    )
    def test_equals_brute_force_reduction(self, y, x, big_x, negate):
        base = -y if negate else y
        brute = Counter((base + m * x) % (big_x * x) for m in range(big_x))
        assert Counter(ap_reduce_mod(y, x, big_x, negate).elements()) == brute

    def test_rejects_bad_step_or_count(self):
        with pytest.raises(ValueError):
            ap_reduce_mod(1, 0, 3)
        with pytest.raises(ValueError):
            ap_reduce_mod(1, 3, 0)


class TestPairingClasses:
    def test_examples(self):
        assert pairing_classes(2, 3) == {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        assert pairing_classes(2, 2) == {(1, 1), (2, 2)}
        four_six = pairing_classes(4, 6)
        assert len(four_six) == 12
        assert all((i - j) % 2 == 0 for i, j in four_six)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pairing_classes(0, 3)

    @given(st.integers(1, 20), st.integers(1, 20))
    def test_matches_co_occurrence_scan(self, x, y):
        # two cyclic index sequences meet each predicted pair exactly once
        # over lcm(x, y) steps
        steps = x * y // gcd(x, y)
        seen = [(s % x + 1, s % y + 1) for s in range(steps)]
        assert len(seen) == len(set(seen))
        assert set(seen) == pairing_classes(x, y)
        assert len(seen) == x * y // gcd(x, y)
