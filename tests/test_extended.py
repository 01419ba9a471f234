import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoiclock import extended
from aoiclock.basic import ConfigError, decompose
from aoiclock.extended import (
    SystemConfig,
    aoi_conditional,
    c_extended,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    freshness_offset_K,
    max_bound_prob,
    rel_error_bound_extended,
    sequence_conditional,
)
from aoiclock.simulate import bernoulli_threshold

from conftest import max_bound_prob_ref, progressions, series_expectation_ref, series_tail_ref

REFERENCE = decompose(34, 7, 10)
REF_CFG = SystemConfig(REFERENCE)


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


class TestAoiConditional:
    def test_reference_matches_lossless_shifted_by_floor(self):
        # Zero shifts, zero retransmissions: the age is the lossless age
        # plus the fixed freshness offset contribution at these periods.
        assert aoi_conditional(REF_CFG, 1, 0) == 6

    def test_all_units_floor(self):
        cfg = SystemConfig(decompose(1, 1, 1))
        assert aoi_conditional(cfg, 0, 0) == 2
        assert aoi_conditional(cfg, 5, 0) == 2

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            aoi_conditional(REF_CFG, -1, 0)
        with pytest.raises(ValueError):
            aoi_conditional(REF_CFG, 0, -1)

    @given(cfg_strategy(), st.integers(0, 10**4), st.integers(0, 30))
    def test_floor_and_periodicity(self, cfg, k, l):
        v = aoi_conditional(cfg, k, l)
        np_ = cfg.d.n_period
        assert v >= 2 + l * np_
        assert v == aoi_conditional(cfg, k + cfg.d.period, l)

    @given(cfg_strategy(), st.integers(0, 200), st.integers(0, 6))
    def test_retransmission_block_shift(self, cfg, k, l):
        d = cfg.d
        shift = d.B * d.b
        assert (
            aoi_conditional(cfg, k, l + shift)
            == aoi_conditional(cfg, k, l) + shift * d.n_period
        )


class TestProgressionFamilyConditional:
    def test_reference_offset(self):
        assert c_extended(REF_CFG, 0, 0, 0) == 3

    def test_index_ranges_enforced(self):
        with pytest.raises(ValueError):
            c_extended(REF_CFG, 1, 0, 0)
        with pytest.raises(ValueError):
            c_extended(REF_CFG, 0, 5, 0)
        with pytest.raises(ValueError):
            c_extended(REF_CFG, 0, 0, -1)
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
        d = cfg.d
        for i in range(d.a):
            for j in range(d.N):
                assert (
                    c_extended(cfg, i, j, l + d.b)
                    == c_extended(cfg, i, j, l) + d.b * d.n_period
                )

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

    def test_exact_powers_over_cap_rejected_up_front(self, monkeypatch):
        def powers_built(*args):
            raise AssertionError("exact powers built")

        # the module's pow() resolves through its globals before the builtins
        monkeypatch.setattr(extended, "pow", powers_built, raising=False)
        cfg = SystemConfig(REFERENCE, p=Fraction(1, 10**6))
        with pytest.raises(ValueError, match="digits, over the cap"):
            max_bound_prob(cfg, Fraction(99, 100))

    def test_p_below_float_range(self):
        # float(p) is 0.0, so m + 1 is estimated as sigma/p = 2, and stepped up to 3
        cfg = SystemConfig(REFERENCE, 3, 5, Fraction(1, 10**400))
        sigma = Fraction(2, 10**400)
        assert max_bound_prob(cfg, sigma) == max_bound_prob_ref(cfg, sigma) == 37

    def test_p_below_float_range_over_cap_rejected_up_front(self, monkeypatch):
        def powers_built(*args):
            raise AssertionError("exact powers built")

        monkeypatch.setattr(extended, "pow", powers_built, raising=False)
        cfg = SystemConfig(REFERENCE, 3, 5, Fraction(1, 10**400))
        # -log(1/2) * 10^400 transmissions, of 400 digits each
        with pytest.raises(ValueError, match=r"about 6\.93e\+399 failed transmissions; deciding "
                           r"it exactly takes integers of about 2\.77e\+402 digits, over the cap"):
            max_bound_prob(cfg, Fraction(1, 2))

    def test_refusal_writes_no_big_int(self):
        # sigma's terms have 10^6 + 1 digits, past str()'s default limit of
        # 4,300; the refusal writes 1 - sigma to three digits instead
        cfg, sigma = SystemConfig(REFERENCE, p=Fraction(1, 3)), 1 - Fraction(1, 10 ** (10**6))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueError) as exc:
                max_bound_prob(cfg, sigma)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == (
            "sigma = 1 - 1.00e-1000000 at p = 1/3 needs a run of about 5.68e+06 failed "
            "transmissions; deciding it exactly takes integers of about 2.71e+06 digits, "
            "over the cap of 1000000 (about 0.65 s)"
        )

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_estimate_off_by_a_factor_is_stepped(self, monkeypatch, scale):
        # a halved estimate of m + 1 is stepped up, a doubled one down
        cfg = SystemConfig(REFERENCE, 3, 5, Fraction(1, 7))
        sigma = Fraction(99, 100)
        real = extended._neg_log1m
        monkeypatch.setattr(
            extended, "_neg_log1m", lambda x: real(x) * (scale if x == sigma else 1)
        )
        assert max_bound_prob(cfg, sigma) == max_bound_prob_ref(cfg, sigma) == 307

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


@pytest.fixture
def default_digit_limit():
    """CPython's default int->str limit of 4,300 digits, for library callers
    outside ``cli.main``."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


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
    ])
    def test_any_fraction(self, default_digit_limit, x, want):
        assert extended._fraction_text(x) == want
