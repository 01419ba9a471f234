import sys
from collections import Counter
from dataclasses import replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction
from math import ceil, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoiclock import extended
from aoiclock.basic import ConfigError, decompose
from aoiclock.extended import (
    SystemConfig,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    freshness_offset_K,
    max_bound_prob,
    rel_error_bound_extended,
    sequence_conditional,
)
from aoiclock.simulate import bernoulli_threshold

from conftest import (
    ln_bracket,
    max_bound_prob_ref,
    progressions,
    series_expectation_ref,
    series_tail_ref,
)

REFERENCE = decompose(34, 7, 10)
REF_CFG = SystemConfig(REFERENCE)
# at p = 1/2, 1 - sigma just below (1-p)^10: k = 11
NEAR_TIE = 1 - Fraction(1, 2**10) * (1 - Fraction(1, 10**30))


class Half(Fraction):
    """A ``Fraction`` subclass, which ``_as_probability`` turns into a ``Fraction``."""


def cfg_strategy(limit=20, dmax=25):
    triples = st.tuples(
        st.integers(1, limit), st.integers(1, limit), st.integers(1, limit)
    ).filter(lambda t: gcd(gcd(t[0], t[1]), t[2]) == 1)
    return st.builds(
        lambda t, db, dn: SystemConfig(decompose(*t), delta_b=db, delta_n=dn),
        triples,
        st.integers(0, dmax),
        st.integers(0, dmax),
    )


class TestSystemConfig:
    def test_float_p_rejected(self):
        with pytest.raises(ConfigError, match="float"):
            SystemConfig(REFERENCE, p=0.5)
        with pytest.raises(ConfigError, match="bool"):
            SystemConfig(REFERENCE, p=True)

    def test_p_parsed_from_string(self):
        assert SystemConfig(REFERENCE, p="1/3").p == Fraction(1, 3)

    def test_p_out_of_range(self):
        with pytest.raises(ConfigError):
            SystemConfig(REFERENCE, p=0)
        with pytest.raises(ConfigError):
            SystemConfig(REFERENCE, p=Fraction(3, 2))

    @pytest.mark.parametrize("p, want", [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1), Fraction(1)),
        ("2/7", Fraction(2, 7)),
        (1, Fraction(1)),
        (Half(1, 2), Fraction(1, 2)),  # a subclass comes back as a plain Fraction
        (0.5, "not float"),
        (True, "not bool"),
        ("half", "cannot parse"),
        (Fraction(0), "got 0$"),
        (Fraction(3, 2), "got 3/2$"),
        (Fraction(-1, 2), "got -1/2$"),
        (2, "got 2$"),
        (Half(3, 2), "got 3/2$"),
    ])
    def test_as_probability(self, p, want):
        if isinstance(want, str):
            with pytest.raises(ConfigError, match=want):
                extended._as_probability(p)
        else:
            got = extended._as_probability(p)
            assert type(got) is Fraction and got == want

    def test_negative_shift_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(REFERENCE, delta_b=-1)


def age(cfg, k, l):
    """The library's conditional age at read k, one read of ``sequence_conditional``."""
    return int(sequence_conditional(cfg, l, k, 1)[0])


class TestAoiConditional:
    def test_reference_matches_lossless_shifted_by_floor(self):
        # Zero shifts, zero retransmissions: the age is the lossless age
        # plus the fixed freshness offset contribution at these periods.
        assert age(REF_CFG, 1, 0) == 6

    def test_all_units_floor(self):
        cfg = SystemConfig(decompose(1, 1, 1))
        assert age(cfg, 0, 0) == 2
        assert age(cfg, 5, 0) == 2

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            sequence_conditional(REF_CFG, 0, -1, 1)
        with pytest.raises(ValueError):
            sequence_conditional(REF_CFG, -1, 0, 1)

    @given(cfg_strategy(), st.integers(0, 10**4), st.integers(0, 30))
    def test_floor_and_periodicity(self, cfg, k, l):
        v = age(cfg, k, l)
        np_ = cfg.d.n_period
        assert v >= 2 + l * np_
        assert v == age(cfg, k + cfg.d.period, l)

    @given(cfg_strategy(), st.integers(0, 200), st.integers(0, 6))
    def test_retransmission_block_shift(self, cfg, k, l):
        d = cfg.d
        shift = d.B * d.b
        assert age(cfg, k, l + shift) == age(cfg, k, l) + shift * d.n_period


class TestProgressionFamilyConditional:
    def test_reference_offset(self):
        assert distribution_conditional(REF_CFG, 0).starts[0] == 3

    def test_index_ranges_enforced(self):
        with pytest.raises(ValueError, match="l must be >= 0"):
            distribution_conditional(REF_CFG, -1)

    def test_reference_distribution_l0(self):
        dist = distribution_conditional(REF_CFG, 0)
        assert sorted(dist.starts.tolist()) == [3, 5, 7, 9, 11]
        assert dist.step == 1 and dist.count == 7
        assert dist.mean() == 10

    @given(cfg_strategy(12, 15), st.integers(0, 3))
    def test_multiset_equality(self, cfg, l):
        d = cfg.d
        dist = distribution_conditional(cfg, l)
        seq = sequence_conditional(cfg, l, 1, d.period)
        assert dist.values == Counter(int(v) for v in seq)
        assert dist.min() == min(dist.values)
        assert dist.max() == max(dist.values)
        assert dist.mean() == Fraction(sum(v * c for v, c in dist.values.items()), d.period)

    @given(cfg_strategy(12, 15), st.integers(0, 4))
    def test_offset_block_shift(self, cfg, l):
        # progression (i, j) is entry i*N + j of the i-major starts
        d = cfg.d
        starts = distribution_conditional(cfg, l).starts
        shifted = distribution_conditional(cfg, l + d.b).starts
        assert shifted.tolist() == [s + d.b * d.n_period for s in starts.tolist()]

    @given(cfg_strategy())
    def test_progression_count_and_step(self, cfg):
        d = cfg.d
        dist = distribution_conditional(cfg, 0)
        assert len(dist.starts) == d.a * d.N
        assert dist.step == d.a * d.b and dist.count == d.B


class TestFreshnessOffset:
    def test_examples(self):
        assert freshness_offset_K(REF_CFG) == 3  # n = 2, delta_n = 0
        assert freshness_offset_K(SystemConfig(REFERENCE, delta_n=1)) == 2
        cfg = SystemConfig(decompose(3, 7, 5))  # n = 1
        assert freshness_offset_K(cfg) == 2

    @given(cfg_strategy())
    def test_range(self, cfg):
        k = freshness_offset_K(cfg)
        assert 2 <= k <= 1 + cfg.d.n

    @given(cfg_strategy(dmax=10**12))
    def test_matches_complementary_modulus(self, cfg):
        # K = 2 + ceil(x/n)*n - x at x = delta_n + 1
        x, n = cfg.delta_n + 1, cfg.d.n
        assert freshness_offset_K(cfg) == 2 + ceil(Fraction(x, n)) * n - x


class TestExpectedApprox:
    def test_reference_lossless(self):
        band = expected_approx_extended(REF_CFG)
        assert band.center == Fraction(21, 2)
        assert band.half_width == Fraction(1, 2)

    def test_reference_half_loss(self):
        band = expected_approx_extended(SystemConfig(REFERENCE, p="1/2"))
        assert band.center == Fraction(41, 2)
        assert band.half_width == Fraction(1, 2)


class TestExpectedExact:
    def test_guards(self):
        with pytest.raises(ValueError, match="terms_used"):
            extended.GeometricExpectation(Fraction(1), Fraction(0), 0)
        with pytest.raises(ValueError, match="tail_bound"):
            extended.GeometricExpectation(Fraction(1), Fraction(-1), 1)

    def test_lossless_is_single_term(self):
        ge = expected_exact_extended(REF_CFG)
        assert ge.value == distribution_conditional(REF_CFG, 0).mean() == 10
        assert ge.tail_bound == 0
        assert ge.terms_used == 1

    def test_half_loss_brackets_band(self):
        cfg = SystemConfig(REFERENCE, p="1/2")
        ge = expected_exact_extended(cfg)
        assert ge.tail_bound == 0
        assert expected_approx_extended(cfg).contains(ge.value)

    def test_value_is_weighted_conditional_mean(self):
        # Cross-check the closed form against a direct finite sum of
        # P(l) * E[age | l] with an independently bounded remainder.
        cfg = SystemConfig(decompose(3, 4, 5), p="2/3", delta_b=1, delta_n=2)
        ge = expected_exact_extended(cfg)
        p, q = cfg.p, 1 - cfg.p
        direct = Fraction(0)
        for l in range(200):
            direct += p * q**l * distribution_conditional(cfg, l).mean()
        assert 0 <= ge.value - direct <= series_tail_ref(cfg, 200)

    @given(cfg_strategy(12, 10), st.sampled_from(["1/2", "2/3", "1/10"]))
    @example(SystemConfig(decompose(6, 4, 5), delta_b=3), "1/10")  # b = 2
    @example(SystemConfig(decompose(12, 9, 5), delta_n=7), "2/3")  # b = 3
    @example(SystemConfig(decompose(10, 15, 7), delta_b=1, delta_n=4), "1/2")  # b = 5
    def test_inside_series_interval(self, cfg, p):
        cfg = SystemConfig(cfg.d, cfg.delta_b, cfg.delta_n, p)
        ge = expected_exact_extended(cfg)
        assert ge.tail_bound == 0
        assert ge.terms_used == cfg.d.b
        value, tail = series_expectation_ref(cfg, Fraction(1, 2**20))
        assert value <= ge.value <= value + tail

    def test_b_over_cap_rejected_before_any_kernel_call(self, monkeypatch):
        def kernel_called(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr(extended.kernels, "period_sums_conditional", kernel_called)
        b = 10**5 + 1  # one over the cap; odd, so coprime to the link period 2
        cfg = SystemConfig(decompose(3 * b, 7 * b, 2), p="1/2")
        assert cfg.d.b == b
        with pytest.raises(ValueError, match="grows as b\\^2"):
            expected_exact_extended(cfg)

    def test_cap_admits_its_own_b(self, monkeypatch):
        # b = 10^5, the cap itself, reaches the sums, where a stand-in stops it
        def kernel_called(*args):
            raise LookupError("kernel called")

        monkeypatch.setattr(extended.kernels, "period_sums_conditional", kernel_called)
        cfg = SystemConfig(decompose(3 * 10**5, 7 * 10**5, 11), p="1/2")
        assert cfg.d.b == extended._MAX_TERMS
        with pytest.raises(LookupError, match="kernel called"):
            expected_exact_extended(cfg)

    @given(cfg_strategy(12, 10))
    @example(SystemConfig(decompose(12, 9, 5), delta_b=2, delta_n=7))  # b = 3
    def test_conditional_mean_periodic_in_b(self, cfg):
        # the closed form rests on m(l) - l*N' depending only on l mod b, and
        # that on the family at l being the family at l mod b raised by
        # (l - l mod b)*N', progression by progression
        d = cfg.d
        base = [distribution_conditional(cfg, r).mean() - r * d.n_period for r in range(d.b)]
        for l in range(3 * d.b + 1):
            assert distribution_conditional(cfg, l).mean() - l * d.n_period == base[l % d.b]
            r = l % d.b
            assert progressions(distribution_conditional(cfg, l)) == tuple(
                replace(pr, start=pr.start + (l - r) * d.n_period)
                for pr in progressions(distribution_conditional(cfg, r))
            )


class TestShiftClasses:
    """A sweep evaluates each (decomposition, delta_b mod a*b, delta_n mod a*n)
    class once: the exact mean and K see the shifts only through those."""

    @given(cfg_strategy(12, 10), st.integers(0, 3), st.integers(0, 3),
           st.sampled_from(["1", "1/2", "1/3"]))
    @example(SystemConfig(decompose(3, 2, 6)), 0, 1, "1/2")  # a = 2, n = 3
    @example(SystemConfig(decompose(12, 9, 5), delta_b=2, delta_n=7), 3, 2, "1/3")  # b = 3
    def test_mean_and_offset_see_the_shifts_mod_ab_and_an(self, cfg, i, j, p):
        d = cfg.d
        cfg = SystemConfig(d, cfg.delta_b, cfg.delta_n, p)
        moved = SystemConfig(d, cfg.delta_b + i * d.a * d.b, cfg.delta_n + j * d.a * d.n, p)
        assert expected_exact_extended(moved).value == expected_exact_extended(cfg).value
        assert freshness_offset_K(moved) == freshness_offset_K(cfg)

    @pytest.mark.parametrize("p", ["1", "1/2"])
    def test_delta_n_mod_n_is_not_the_class(self, p):
        # at (3, 2, 6), a = 2 and n = 3: delta_n = 0 and 3 agree mod n, so
        # their K agree, but not mod a*n = 6, and their exact means differ
        d = decompose(3, 2, 6)
        assert (d.a, d.n) == (2, 3)
        cfgs = [SystemConfig(d, 0, dn, p) for dn in (0, 3)]
        assert freshness_offset_K(cfgs[0]) == freshness_offset_K(cfgs[1]) == 4
        means = [expected_exact_extended(cfg).value for cfg in cfgs]
        assert means[0] - means[1] == 1


class TestRelErrorBound:
    def test_reference_value(self):
        assert rel_error_bound_extended(REF_CFG) == Fraction(1, 20)

    def test_always_defined_even_for_units(self):
        cfg = SystemConfig(decompose(1, 1, 1))
        assert rel_error_bound_extended(cfg) > 0

    @given(cfg_strategy(10, 10))
    def test_bound_holds_against_exact(self, cfg):
        exact = expected_exact_extended(cfg).value
        center = expected_approx_extended(cfg).center
        assert abs(exact - center) / exact <= rel_error_bound_extended(cfg)


class TestMaxBound:
    def test_lossless_is_deterministic(self):
        assert max_bound_prob(REF_CFG, Fraction(99, 100)) == 18
        assert distribution_conditional(REF_CFG, 0).max() == 17

    def test_half_loss_quantile(self):
        cfg = SystemConfig(REFERENCE, p="1/2")
        assert max_bound_prob(cfg, Fraction(99, 100)) == 78

    def test_threshold_exactness(self):
        # With p = 1/2 the survival mass after m+1 failures is 2^-(m+1);
        # sigma = 15/16 is hit exactly at m = 3 and must not round up.
        cfg = SystemConfig(REFERENCE, p="1/2")
        assert max_bound_prob(cfg, Fraction(15, 16)) == 18 + 3 * 10

    @given(
        cfg_strategy(10, 10),
        st.integers(2, 200).flatmap(lambda v: st.tuples(st.integers(1, v), st.just(v))),
        st.one_of(
            st.fractions(0, 1, max_denominator=10**6).filter(lambda s: 0 < s < 1),
            st.integers(1, 40).map(lambda k: -k),
        ),
    )
    @example(REF_CFG, (1, 2), Fraction(15, 16))
    @example(REF_CFG, (1, 2), -1)  # sigma == p
    @example(REF_CFG, (1, 2), -4)
    @example(REF_CFG, (1, 3), -5)
    @example(REF_CFG, (9, 10), -3)
    @example(REF_CFG, (7, 7), Fraction(99, 100))
    @example(REF_CFG, (1, 2), NEAR_TIE)  # decided only after a doubling
    def test_matches_linear_scan(self, cfg, uv, sigma):
        # a negative sigma draw -k stands for 1 - (1-p)^k, the threshold hit
        # exactly at m = k - 1
        u, v = uv
        cfg = SystemConfig(cfg.d, cfg.delta_b, cfg.delta_n, Fraction(u, v))
        if isinstance(sigma, int):
            sigma = 1 - (1 - cfg.p) ** -sigma
            if sigma == 1:
                return
        assert max_bound_prob(cfg, sigma) == max_bound_prob_ref(cfg, sigma)

    @given(
        st.integers(2, 10**30).flatmap(lambda v: st.tuples(st.integers(1, v - 1), st.just(v))),
        st.integers(2, 30),
        st.integers(0, 60),
        st.sampled_from([-1, 0, 1]),
    )
    def test_near_boundaries_match_linear_scan(self, uv, k, j, side):
        # 1 - sigma = (1-p)^k * (1 + side * p * 10^-j): on a boundary, or
        # L = -log(1 - sigma) / -log(1 - p) about 10^-j either side of one,
        # where the logarithms' precision has to double
        cfg = SystemConfig(REFERENCE, p=Fraction(*uv))
        sigma = 1 - (1 - cfg.p) ** k * (1 + side * cfg.p / 10**j)
        if not 0 < sigma < 1:
            return
        assert max_bound_prob(cfg, sigma) == max_bound_prob_ref(cfg, sigma)

    @given(st.integers(1, 10**120), st.integers(1, 10**120), st.integers(12, 40))
    @example(2**400, 1, 15)  # ln(a/b) = 277.2..., whose last digit's place is 10^(3-P)
    @example(10**400 + 1, 10**400, 12)
    @example(3**700 + 1, 7, 20)  # a cut to its leading 4P bits
    def test_ln_bounds_bracket_the_logarithm(self, a, b, prec):
        a, b = max(a, b), min(a, b)
        floor, ceiling = Context(prec, ROUND_FLOOR), Context(prec, ROUND_CEILING)
        lo, hi = extended._ln_bounds(a, b, floor, ceiling)
        want_lo, want_hi = ln_bracket(Fraction(a, b), prec + 10)
        assert Fraction(lo) <= want_lo and want_hi <= Fraction(hi)
        assert hi - lo < Fraction(1, 10 ** (prec - 4)) * max(1, want_hi)

    def test_near_tie_doubles_the_precision(self, monkeypatch):
        # 1 - sigma is 10^-30 of itself below (1-p)^10, so k = 11
        cfg, sigma = SystemConfig(REFERENCE, p="1/2"), NEAR_TIE
        precs = []
        real = extended._ln_bounds

        def spy(a, b, floor, ceiling):
            precs.append(floor.prec)
            return real(a, b, floor, ceiling)

        monkeypatch.setattr(extended, "_ln_bounds", spy)
        assert max_bound_prob(cfg, sigma) == max_bound_prob_ref(cfg, sigma) == 18 + 10 * 10
        assert len(set(precs)) >= 2
        # a cap of exactly the last precision still admits it
        monkeypatch.setattr(extended, "_MAX_LOG_DIGITS", precs[-1])
        assert max_bound_prob(cfg, sigma) == 18 + 10 * 10

    def test_near_tie_past_the_cap_refused(self):
        # 1 - sigma differs from (1-p)^10 in its 3,000th digit
        cfg = SystemConfig(REFERENCE, p="1/2")
        sigma = 1 - Fraction(1, 2**10) * (1 + Fraction(1, 10**3000))
        with pytest.raises(ValueError) as exc:
            max_bound_prob(cfg, sigma)
        assert str(exc.value) == (
            "sigma = 1 - 9.77e-04 at p = 1/2 needs logarithms to over 1024 digits, the cap "
            "(about 0.1 s): 1 - sigma is too near (1-p)^10 to tell at 544"
        )

    def test_logarithms_over_cap_rejected_up_front(self, monkeypatch):
        def logarithms_taken(*args):
            raise AssertionError("logarithms taken")

        monkeypatch.setattr(extended, "_ln_bounds", logarithms_taken)
        cfg = SystemConfig(REFERENCE, p=Fraction(1, 10**600))
        with pytest.raises(ValueError, match=r"needs logarithms to about 1209 digits, over the "
                           r"cap of 1024 \(about 0.1 s\)$"):
            max_bound_prob(cfg, Fraction(99, 100))

    def test_p_below_float_range(self):
        # float(p) is 0.0, and L is just over 2
        cfg = SystemConfig(REFERENCE, 3, 5, Fraction(1, 10**400))
        sigma = Fraction(2, 10**400)
        assert max_bound_prob(cfg, sigma) == max_bound_prob_ref(cfg, sigma) == 37

    @pytest.mark.parametrize("p, sigma, digits, k", [
        # (1/10^5, 999/1000): about 3.5*10^6 digits for each exact power
        (Fraction(1, 10**5), Fraction(999, 1000), 30, 690_773),
        (Fraction(1, 10**40), Fraction(99, 100), 100, 46051701859880913680359829093687284152020),
        # -log(1/2) * 10^400 transmissions
        (Fraction(1, 10**400), Fraction(1, 2), 850, None),
    ], ids=["1e-5", "1e-40", "1e-400"])
    def test_small_p_against_the_series(self, p, sigma, digits, k):
        n_lo, n_hi = ln_bracket(1 / (1 - sigma), digits)
        d_lo, d_hi = ln_bracket(1 / (1 - p), digits)
        want = ceil(n_lo / d_hi)
        assert n_hi / d_lo <= want  # the series decide k = want
        assert k in (None, want)
        cfg = SystemConfig(REFERENCE, p=p)
        assert max_bound_prob(cfg, sigma) == 18 + 10 * (want - 1)

    def test_sigma_past_digit_limit_decided(self, default_digit_limit):
        # 1 - sigma = 10^-10^6: k is the least integer >= 10^6 * ln(10) / ln(3/2)
        cfg, sigma = SystemConfig(REFERENCE, p=Fraction(1, 3)), 1 - Fraction(1, 10 ** (10**6))
        n_lo, n_hi = ln_bracket(Fraction(10), 30)
        d_lo, d_hi = ln_bracket(Fraction(3, 2), 30)
        assert 5_678_873 < 10**6 * n_lo / d_hi and 10**6 * n_hi / d_lo <= 5_678_874
        assert max_bound_prob(cfg, sigma) == 18 + 10 * (5_678_874 - 1)

    def test_refusal_writes_no_big_int(self, default_digit_limit):
        # sigma's terms have 5,001 digits, past str()'s default limit of
        # 4,300; the refusal writes 1 - sigma and p to three digits instead
        cfg, sigma = SystemConfig(REFERENCE, p=Fraction(1, 10**600)), 1 - Fraction(1, 10**5000)
        with pytest.raises(ValueError) as exc:
            max_bound_prob(cfg, sigma)
        assert str(exc.value) == (
            "sigma = 1 - 1.00e-5000 at p = 1.00e-600 needs logarithms to about 1212 digits, "
            "over the cap of 1024 (about 0.1 s)"
        )

    def test_sigma_range(self):
        with pytest.raises(ValueError):
            max_bound_prob(REF_CFG, Fraction(0))
        with pytest.raises(ValueError):
            max_bound_prob(REF_CFG, Fraction(1))

    @given(cfg_strategy(10, 10), st.sampled_from([Fraction(1, 2), Fraction(9, 10)]))
    def test_bound_dominates_quantile_mass(self, cfg, sigma):
        bound = max_bound_prob(cfg, sigma)
        p, q = cfg.p, 1 - cfg.p
        mass = Fraction(0)
        l = 0
        while True:
            top = distribution_conditional(cfg, l).max()
            if top > bound:
                break
            mass += p * q**l
            if q == 0:
                break
            l += 1
        assert mass >= sigma


# 1 + 10^-5000: both terms pass the digit limit
OVER_ONE = Fraction(10**5000 + 1, 10**5000)


class TestFractionText:
    @pytest.mark.parametrize("refusal, error, want", [
        (lambda: SystemConfig(REFERENCE, p=OVER_ONE), ConfigError, "p must be in (0, 1]"),
        (lambda: bernoulli_threshold(OVER_ONE), ValueError, "p must be in (0, 1]"),
        (lambda: max_bound_prob(SystemConfig(REFERENCE, p=Fraction(1, 3)), OVER_ONE),
         ValueError, "sigma must be in (0, 1)"),
    ], ids=["SystemConfig", "bernoulli_threshold", "max_bound_prob"])
    def test_out_of_range_refusals_write_no_big_int(self, default_digit_limit, refusal, error,
                                                    want):
        with pytest.raises(error) as exc:
            refusal()
        assert str(exc.value) == f"{want}, got 1 + 1.00e-5000"

    @pytest.mark.parametrize("x, want", [
        # in full while both terms are below 10^100
        (Fraction(1, 3), "1/3"),
        (Fraction(0), "0"),
        (Fraction(-7, 2), "-7/2"),
        (Fraction(10**99 - 1, 10**99), f"{10**99 - 1}/{10**99}"),
        # past it, to three digits: near 1 as the distance from 1
        (1 - Fraction(1, 10**1000), "1 - 1.00e-1000"),
        (1 + Fraction(3, 10**1000), "1 + 3.00e-1000"),
        # and elsewhere as the value itself, negative ones and numerators too
        (Fraction(1, 10**1000), "1.00e-1000"),
        (Fraction(-1, 10**1000), "-1.00e-1000"),
        (Fraction(10**1000, 3), "3.33e+999"),
        (Fraction(-(10**1000)), "-1.00e+1000"),
        # a term of exactly 10^100 is past it, and 0.4 is not near 1
        (Fraction(10**100, 3), "3.33e+99"),
        (Fraction(1, 10**100), "1.00e-100"),
        (Fraction(2 * 10**100 + 1, 5 * 10**100), "4.00e-01"),
    ])
    def test_any_fraction(self, default_digit_limit, x, want):
        assert extended._fraction_text(x) == want


class TestPastDigitLimit:
    def test_a_term_of_the_limit_converts(self, default_digit_limit):
        assert extended._past_digit_limit("9" * 4300) is None
        assert extended._past_digit_limit("9" * 4301) == (
            "a term of 4301 digits is past the interpreter's limit of 4300 digits for "
            "int<->str conversion")

    def test_no_limit_passes_every_term(self, monkeypatch):
        # the limit switched off (0), and an interpreter without one
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert extended._past_digit_limit("9" * 5000) is None
        finally:
            sys.set_int_max_str_digits(limit)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert extended._past_digit_limit("12345") is None
