import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from itertools import islice, product
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoiclock import cli, extended, kernels, sweep
from aoiclock.basic import ConfigError, decompose
from aoiclock.extended import SystemConfig
from aoiclock.sweep import (
    EmptyGridError,
    SweepGrid,
    SweepResult,
    enumerate_configs,
    run_sweep,
    write_outputs,
)
from conftest import (
    eval_chunk_ref,
    relative_error_ref,
    rows_of,
    run_sweep_ref,
    sum_ref,
)

FIG_GRID = {"A": 17, "B": 7, "N": 5, "a": 1, "b": 1, "n": 2}

# Every skip reason (A = B = N = a = b = n = 1 gives equal periods), four
# delta_b values of which three are sliced, and two each of delta_n and p.
SMALL_GRID = {
    "A": [1, 2, 3, 5],
    "B": [1, 2, 3, 7],
    "N": [1, 2, 5],
    "a": [1, 2, 3],
    "b": [1, 2, 3],
    "n": [1, 2, 3],
    "delta_b": [0, 3, 5, 9],
    "delta_n": [0, 2],
    "p": ["1/3", "1"],
}
GOLDEN = Path(__file__).parent / "golden" / "sweep_small"
# sha256 of each output file of the bundled grid and of stdout, its out
# directory removed; recorded before the sweep folded its blocks with numpy
BUNDLED_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "sweep_bundled_sha256.json").read_text()
)
BUNDLED_GRID = files("aoiclock") / "grids" / "default.json"


class TestGridParsing:
    def test_scalars_lists_and_ranges(self):
        # a one-value range is "lo..lo", or a step past hi - lo
        g = SweepGrid.from_dict(
            {"A": 3, "B": [5, 2, 5], "N": "2..8:3", "delta_b": "4..4", "delta_n": "3..4:2",
             "p": ["1", "1/2"]}
        )
        assert g.A == (3,)
        assert g.B == (2, 5)
        assert g.N == (2, 5, 8)
        assert (g.delta_b, g.delta_n) == ((4,), (3,))
        assert g.p == (Fraction(1, 2), Fraction(1))

    def test_defaults(self):
        g = SweepGrid.from_dict({})
        assert g.A == tuple(range(2, 22))
        assert g.a == g.b == g.n == (1,)
        assert g.delta_b == g.delta_n == (0,)
        assert g.p == (Fraction(1),)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown grid fields"):
            SweepGrid.from_dict({"A": 3, "gamma": 1})

    def test_float_p_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"p": [0.5]})
        with pytest.raises(ValueError, match="bool"):
            SweepGrid.from_dict({"p": [True]})

    @pytest.mark.parametrize("raw, rest", [
        ([0.5], "p must be an exact rational (Fraction, int or string), not float"),
        ([True], "p must be an exact rational (Fraction, int or string), not bool"),
        (["1/2", "half"], "cannot parse probability 'half'"),
        ("3/2", "p must be in (0, 1], got 3/2"),
    ], ids=["float", "bool", "unparsable", "out-of-range"])
    def test_p_errors_name_the_field(self, raw, rest):
        with pytest.raises(ValueError) as exc:
            SweepGrid.from_dict({"p": raw})
        assert str(exc.value) == f"grid field p: {rest}"

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"A": 0})
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"delta_b": [-1]})
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"B": "5..2"})
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"B": "7"})
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"A": True})
        with pytest.raises(ValueError, match="^grid field A: expected int, list or range string$"):
            SweepGrid.from_dict({"A": 2.5})
        for field, raw in [("p", []), ("A", []), ("delta_n", [])]:
            with pytest.raises(ValueError, match=f"^grid field {field}: empty list$"):
                SweepGrid.from_dict({field: raw})
        # list entries that int() would truncate, coerce or fail on
        for field, raw in [("A", [2.5, 3]), ("B", [True]), ("delta_b", [0.9]), ("n", [1, False]),
                           ("A", [None]), ("A", [[2]]), ("A", ["x"])]:
            with pytest.raises(ValueError, match=f"^grid field {field}: .* is not an integer$"):
                SweepGrid.from_dict({field: raw})
        for raw in ["1..x", "x..3", "1..3:y"]:
            with pytest.raises(ValueError, match=r"^grid field A: bad range '.*'$"):
                SweepGrid.from_dict({"A": raw})
        # an integral float entry is still an integer
        assert SweepGrid.from_dict({"A": [2.0, 3]}).A == (2, 3)

    def test_oversized_grid_rejected_before_listing(self):
        # 10^12 cofactors times the default 20 x 20: the grid is sized from
        # its fields' lengths, so nothing of that size is ever built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                SweepGrid.from_dict({"A": "1..1000000000000"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith(
            f"grid has {4 * 10**14} candidates, over the cap of {sweep._MAX_CANDIDATES}: "
        )
        assert peak < 10**5
        # past 2^63 values, where len() of a range overflows
        with pytest.raises(ValueError, match=f"^grid has {4 * 10**21} candidates"):
            SweepGrid.from_dict({"A": "1..100000000000000000000:10"})

    def test_cap_admits_its_own_value(self, monkeypatch):
        # the bundled grid's 157,464 candidates
        bundled = json.loads(BUNDLED_GRID.read_text())
        monkeypatch.setattr(sweep, "_MAX_CANDIDATES", 157464)
        assert SweepGrid.from_dict(bundled).n_candidates() == 157464
        monkeypatch.setattr(sweep, "_MAX_CANDIDATES", 157463)
        with pytest.raises(ValueError, match="^grid has 157464 candidates, over the cap of 157463"):
            SweepGrid.from_dict(bundled)

    def test_b_over_term_cap_rejected_before_listing(self):
        # a kept tuple's decomposition has the grid's b, so a b over the exact
        # expectation's term cap is refused with the grid
        cap = extended._MAX_TERMS
        with pytest.raises(ValueError) as exc:
            SweepGrid.from_dict({"A": 1, "B": 2, "N": 1, "b": [1, cap + 1]})
        assert str(exc.value) == (
            f"grid field b: value {cap + 1} is over the cap of {cap} on the exact "
            f"expectation's terms"
        )
        assert SweepGrid.from_dict({"b": [1, cap]}).b == (1, cap)

    def test_overlong_slice_file_name_rejected(self):
        # slice_A_<243 digits>.csv is 255 bytes, NAME_MAX on most file systems
        assert SweepGrid.from_dict({"A": [1, 10**242]}).A == (1, 10**242)
        with pytest.raises(ValueError) as exc:
            SweepGrid.from_dict({"A": [1, 10**243]})
        assert str(exc.value) == (
            "grid field A: a slice file name of 256 bytes is over the 255-byte limit on file names"
        )
        # only sliced values name files: of five, the first, middle and last
        unsliced = Fraction(15 * 10**298 + 1, 10**300)
        grid = SweepGrid.from_dict({"p": ["1/10", str(unsliced), "1/5", "1/2", "1"]})
        assert grid.p[1] == unsliced

    def test_delta_zero_allowed(self):
        assert SweepGrid.from_dict({"delta_n": "0..2"}).delta_n == (0, 1, 2)

    def test_from_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"A": [2, 3], "B": 5, "N": 7}')
        g = SweepGrid.from_json(path)
        assert g.A == (2, 3)
        assert g.n_candidates() == 2

    def test_json_must_be_object(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            SweepGrid.from_json(path)


# a factor field: small values, which often keep a tuple, or values up to 2^70
factor_values = st.lists(
    st.one_of(st.integers(1, 12), st.integers(1, 2**70)), min_size=1, max_size=3
)


def _classify_ref(factors):
    """(decomposition, skip reason) of one factor tuple, by ``decompose``."""
    A, B, N, a, b, n = factors
    ap, bp, np_ = A * b * n, B * b * a, N * n * a
    try:
        d = decompose(ap, bp, np_)
    except ConfigError:
        return None, "common_factor"
    if (d.A, d.B, d.N, d.a, d.b, d.n) != factors:
        return None, "factor_mismatch"
    if ap == bp == np_:
        return None, "equal_periods"
    return d, None


class TestEnumeration:
    def test_small_cube_is_fully_excluded(self):
        # No triple from {2,3,4}^3 is pairwise coprime once a=b=n=1 forces
        # the cofactors to be the periods themselves.
        g = SweepGrid.from_dict({"A": "2..4", "B": "2..4", "N": "2..4"})
        assert g.n_candidates() == 27
        with pytest.raises(EmptyGridError):
            enumerate_configs(g)

    def test_single_point(self):
        g = SweepGrid.from_dict(FIG_GRID)
        cfgs = enumerate_configs(g)
        assert len(cfgs) == 1
        assert cfgs[0].d == decompose(34, 7, 10)

    def test_equal_periods_excluded(self):
        g = SweepGrid.from_dict({"A": 1, "B": 1, "N": 1})
        with pytest.raises(EmptyGridError):
            enumerate_configs(g)

    def test_validity_matches_pairwise_coprimality(self):
        g = SweepGrid.from_dict(
            {"A": "1..4", "B": "1..4", "N": "1..4", "a": [1, 2], "b": [1, 3], "n": [1, 2]}
        )
        got = {
            (c.d.A, c.d.B, c.d.N, c.d.a, c.d.b, c.d.n) for c in enumerate_configs(g)
        }
        # a candidate is valid iff the rebuilt periods decompose back to the
        # same factors, which reduces to three pairwise coprimality checks
        want = set()
        for A in g.A:
            for B in g.B:
                for N in g.N:
                    for a in g.a:
                        for b in g.b:
                            for n in g.n:
                                ok = (
                                    gcd(B * b, N * n) == 1
                                    and gcd(A * n, a * B) == 1
                                    and gcd(A * b, a * N) == 1
                                )
                                ap, bp, np_ = A * b * n, B * b * a, N * n * a
                                if ok and not (ap == bp == np_):
                                    want.add((A, B, N, a, b, n))
        assert got == want

    @given(
        st.fixed_dictionaries({f: factor_values for f in sweep._FACTORS}),
        st.integers(0, 800),
        st.one_of(st.none(), st.integers(0, 800)),
        st.sampled_from([1, 7, sweep._BLOCK]),
    )
    @example({f: [1, 2, 3, 5] for f in sweep._FACTORS}, 0, None, sweep._BLOCK)
    # kept tuples whose periods pass 2^63: A*b*n = (2^61 - 1)*5*7
    @example({"A": [2**61 - 1], "B": [1, 2], "N": [3], "a": [1], "b": [5], "n": [1, 7]},
             0, None, sweep._BLOCK)
    # ... and where B*b*a alone, or N*n*a alone, passes 2^63
    @example({"A": [1, 3], "B": [2**61 - 1], "N": [1], "a": [1, 7], "b": [5], "n": [1]},
             0, None, sweep._BLOCK)
    @example({"A": [1, 3], "B": [1], "N": [2**61 - 1], "a": [1, 7], "b": [1], "n": [5]},
             0, None, sweep._BLOCK)
    # factors past 2^63 themselves, in kept tuples and in each skip reason
    @example({"A": [3, 2**64 + 1], "B": [1, 2**64], "N": [1, 2, 7], "a": [1, 2**64 + 1],
              "b": [1, 2], "n": [1, 5]}, 3, None, 7)
    def test_classification_equals_decompose(self, factors, start, stop, tile):
        with pytest.MonkeyPatch.context() as mp:
            # classification takes any factors, a b past the term cap too
            mp.setattr(sweep, "_MAX_TERMS", 2**70)
            grid = SweepGrid.from_dict(factors)
            mp.setattr(sweep, "_BLOCK", tile)
            got = list(sweep._iter_candidates(grid, start, stop))
        want = [
            (f, *_classify_ref(f))
            for f in islice(product(*(getattr(grid, f) for f in sweep._FACTORS)), start, stop)
        ]
        assert got == want
        for _, d, _ in got:
            if d is not None:
                assert all(type(getattr(d, f)) is int for f in d.__dataclass_fields__)

    def test_deltas_and_p_multiply_candidates(self):
        g = SweepGrid.from_dict(dict(FIG_GRID, delta_b=[0, 3], p=["1", "1/2"]))
        cfgs = enumerate_configs(g)
        assert len(cfgs) == 4
        assert [(c.delta_b, c.p) for c in cfgs] == [
            (0, Fraction(1, 2)),
            (0, Fraction(1)),
            (3, Fraction(1, 2)),
            (3, Fraction(1)),
        ]


class TestRelativeError:
    def test_reference_lossless(self):
        cfg = SystemConfig(decompose(34, 7, 10))
        assert relative_error_ref(cfg) == Fraction(-1, 20)

    def test_sign_convention(self):
        # exact 10 < center 10.5 gives a negative signed error
        cfg = SystemConfig(decompose(34, 7, 10))
        assert relative_error_ref(cfg) < 0

    def test_zero_error_lands_in_bin_zero(self):
        # periods (3, 4, 10) at p = 1/2: the exact mean 37/2 is the band center,
        # so the error is exactly 0 and belongs in [0, bin_width)
        grid = SweepGrid.from_dict(
            {"A": [3], "B": [2], "N": [5], "a": [2], "b": [1], "n": [1], "p": ["1/2"]}
        )
        assert run_sweep(grid).global_hist.counts == {0: 1}

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_config_error_verdict_on_both_sides_of_the_bound(self, dtype):
        # m2k and ab range free of any config, so the band theorem does not
        # hold and the verdict is false on some rows; each row's verdict is
        # |num/den| <= ab*u / (u*(m2k - ab) + 2w*N'), as Fractions
        cols = np.array([
            row for row in product(range(2, 13), range(1, 12), (1, 2, 3), (1, 2, 3), (0, 1, 2),
                                   (1, 3, 5), (1, 2, 4))
            if row[1] < row[0]
        ]).T
        m2k, ab, n_period, u, w, acc, den0 = (c.astype(dtype) for c in cols)
        num, den, ok = sweep._config_error(m2k, ab, n_period, u, w, acc, den0)
        sides = []
        for row in zip(*cols.tolist(), num.tolist(), den.tolist()):
            m2k_, ab_, n_, u_, w_, acc_, den0_, num_, den_ = row
            assert num_ == den_ - den0_ * (u_ * m2k_ + 2 * w_ * n_)
            assert den_ == 2 * (w_ * n_ * den0_ + u_ * u_ * acc_) > 0
            error = abs(Fraction(num_, den_))
            bound = Fraction(ab_ * u_, u_ * (m2k_ - ab_) + 2 * w_ * n_)
            sides.append((error > bound) - (error < bound))
        assert ok.tolist() == [side <= 0 for side in sides]
        assert {-1, 0, 1} <= set(sides)


# factor tuples (A, B, N, a, b, n) a sweep keeps, with b up to 8: the
# pairwise coprimality test of TestEnumeration, periods not all equal
KEPT_FACTORS = [
    (A, B, N, a, b, n)
    for A, B, N, a, b, n in product(
        range(1, 8), range(1, 8), range(1, 8), (1, 2, 3), range(1, 9), (1, 2, 3)
    )
    if gcd(B * b, N * n) == gcd(A * n, a * B) == gcd(A * b, a * N) == 1
    and not A * b * n == B * b * a == N * n * a
]
decompositions = st.sampled_from(KEPT_FACTORS).map(
    lambda f: decompose(f[0] * f[4] * f[5], f[1] * f[4] * f[3], f[2] * f[5] * f[3])
)
probabilities = st.integers(1, 60).flatmap(
    lambda v: st.builds(Fraction, st.integers(1, v), st.just(v))
)
# any order, repeats allowed: the rows follow the combos as given
combo_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), probabilities), min_size=1, max_size=6
)


@pytest.fixture
def geometric_dtypes(monkeypatch):
    """The dtypes of (terms, v, w) at each ``kernels.geometric_sum`` call, None for ints."""
    dtypes = []
    real = kernels.geometric_sum

    def spy(terms, v, w):
        dtypes.append(tuple(getattr(x, "dtype", None) for x in (terms, v, w)))
        return real(terms, v, w)

    monkeypatch.setattr(kernels, "geometric_sum", spy)
    return dtypes


class TestEvalChunk:
    """The integer evaluation against the per-config Fraction oracle."""

    @given(
        st.lists(decompositions, min_size=1, max_size=3),
        combo_lists,
        st.sampled_from([Fraction(1, 100), Fraction(3, 7), Fraction(1)]),
    )
    # num and den past 2^53 while every intermediate fits int64: an int64
    # ratio would round both before dividing, and lose the last bit
    @example([decompose(62, 31, 2)], [(0, 0, Fraction(1, 3))], Fraction(1, 100))
    @example([decompose(47, 47, 2)], [(0, 0, Fraction(1, 2))], Fraction(1, 100))
    # each t_r fits int64, but the Horner sum over b = 30 terms of 2^r t_r does not
    @example([decompose(30, 3000090, 1)], [(0, 0, Fraction(1, 2))], Fraction(1, 100))
    # s_b = delta_b + 2 + r*N' passes 2^63 - 1 by 1 to 3 (b = 3, N' = 1), so
    # the shift stage must choose Python ints; a*b = 3 does not divide 2^64,
    # so a wrapped s_b would give another r_ab
    @example([decompose(6, 9, 1)], [(2**63 - 2, 0, Fraction(1, 2)), (2**63 - 2, 0, Fraction(1))],
             Fraction(1, 100))
    # ... and through (b - 1)*N' = 20 on a shift of 2^63 - 12
    @example([decompose(6, 9, 10)], [(2**63 - 12, 0, Fraction(1, 2))], Fraction(1, 100))
    # s_n = delta_n + 1 = 2^63, and a*n = 3 does not divide 2^64
    @example([decompose(3, 2, 3)], [(0, 2**63 - 1, Fraction(1, 2)), (0, 2**63 - 1, Fraction(1))],
             Fraction(1, 100))
    # b = 33 terms at p = 1/3: the geometric stage's partial sums pass 2^63
    @example([decompose(33, 594, 1)], [(0, 0, Fraction(1, 3))], Fraction(1, 100))
    # M + 2K = 2n + 4 passes 2^63 at n = 2^62 - 1, with delta_n = 0 and = n
    @example([decompose(2**62 - 1, 2, 2**62 - 1)], [(0, 0, Fraction(1)), (0, 0, Fraction(1, 2))],
             Fraction(1, 100))
    @example([decompose(2**62 - 1, 2, 2**62 - 1)], [(0, 2**62 - 1, Fraction(1))], Fraction(1, 100))
    # relative errors below -1: |num| passes 2^53 while den stays below it
    @example([decompose(48, 48, 1)], [(9, 0, Fraction(1, 2))], Fraction(1, 100))
    @example([decompose(49, 49, 1)], [(42, 0, Fraction(1, 2))], Fraction(1, 100))
    # num and den below 2^53, but |num|*(u*(M + 2K - a*b) + 2w*N') past 2^63:
    # through u near 2^14 and 2^15, and through 2w*N' at p = 3/4097
    @example([decompose(9, 88, 1512)], [(1, 40, Fraction(16383, 16384))], Fraction(1, 100))
    @example([decompose(14, 495, 3465)], [(38, 19, Fraction(32768, 32769))], Fraction(1, 100))
    @example([decompose(6, 89447, 186672)], [(811, 3, Fraction(3, 4097))], Fraction(1, 100))
    # every bin fits int64, but num*bd, the bin's numerator, does not
    @example([decompose(34, 7, 10), decompose(12, 9, 5)],
             [(0, 0, Fraction(1, 3)), (3, 5, Fraction(1, 3))], Fraction(1, 10**17))
    # ... nor den*bn, its denominator, at p = 1/3 and at p = 1
    @example([decompose(34, 7, 10), decompose(12, 9, 5)],
             [(0, 0, Fraction(1, 3)), (3, 5, Fraction(1, 3))], Fraction(10**15, 3))
    @example([decompose(34, 7, 10)], [(0, 0, Fraction(1))], Fraction(10**17, 3))
    def test_rows_equal_fraction_oracle(self, decomps, combos, bin_width):
        payload = (decomps, combos, bin_width)

        def bits(rows):
            return [(i, err.hex(), ok) for i, err, ok in rows]

        assert bits(rows_of(sweep._eval_chunk(payload))) == bits(eval_chunk_ref(payload))

    def test_sums_shared_across_p(self, monkeypatch):
        # each (decomposition, shift pair, r < b) hyperperiod sum is one row
        # of the floor-sum pass, computed once and shared by every p
        rows = []
        real = kernels._row_sums

        def counted(*args):
            rows.append(np.broadcast(*args).size)
            return real(*args)

        monkeypatch.setattr(kernels, "_row_sums", counted)
        grid = SweepGrid.from_json(BUNDLED_GRID)
        decomps = [d for _, d, _ in sweep._iter_candidates(grid) if d is not None]
        out = sweep._eval_chunk((decomps[:2], sweep._combos(grid), Fraction(1, 100)))
        # 3 x 3 shift pairs, each serving the grid's 3 values of p
        assert len(out) == 2 * 27
        assert rows == [9 * (decomps[0].b + decomps[1].b)]
        # once per sum through a whole sweep, however it is cut into blocks
        for block in (sweep._BLOCK, 1, 7):
            monkeypatch.setattr(sweep, "_BLOCK", block)
            rows.clear()
            assert run_sweep(grid).n_configs == 27 * len(decomps)
            assert sum(rows) == 9 * sum(d.b for d in decomps)

    @pytest.mark.parametrize("rows, lanes", [(1, 3), (7, 1 << 16), (40, 5)])
    def test_rows_do_not_depend_on_pass_sizes(self, monkeypatch, rows, lanes):
        # the floor-sum pass cut into passes of a few rows and lanes
        grid = SweepGrid.from_json(BUNDLED_GRID)
        decomps = [d for _, d, _ in sweep._iter_candidates(grid) if d is not None][:60]
        payload = (decomps, sweep._combos(grid), Fraction(1, 100))
        want = rows_of(sweep._eval_chunk(payload))
        monkeypatch.setattr(sweep, "_ROWS", rows)
        monkeypatch.setattr(kernels, "_LANES", lanes)
        assert rows_of(sweep._eval_chunk(payload)) == want

    @pytest.mark.parametrize("b", [63, 64, 65])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    def test_power_bound_edge_equals_fraction_oracle(self, geometric_dtypes, b, p):
        # the geometric stage sizes its dtype with powers at min(b, 64): int64
        # at p = 1 whatever b is, and Python ints at any v >= 2 from b = 63 on
        payload = ([decompose(2 * b, 3 * b, 11)], [(0, 0, p), (4, 7, p)], Fraction(1, 100))
        rows = rows_of(sweep._eval_chunk(payload))
        assert geometric_dtypes == [(np.dtype(np.int64 if p == 1 else object),) * 3]
        assert [(i, err.hex(), ok) for i, err, ok in rows] == [
            (i, err.hex(), ok) for i, err, ok in eval_chunk_ref(payload)
        ]

    def test_p1_geometric_stage_stays_int64_past_b_64(self, geometric_dtypes):
        grid = SweepGrid.from_dict({"A": 2, "B": 3, "N": 11, "b": 100, "delta_b": [0, 5]})
        assert run_sweep(grid).n_configs == 2
        assert geometric_dtypes == [(np.dtype(np.int64),) * 3]

    def test_object_path_rows_equal_fraction_oracle(self):
        # periods past 2^63 (A*b*n = 3*25*(10^18 + 9)), a shift of 2^62 and
        # v^b = 10^25 force the exact path on every stage
        grid = SweepGrid.from_dict(
            {"A": [1, 3], "B": [2, 5], "N": [1, 7], "b": 25, "n": [1, 10**18 + 9],
             "delta_b": [0, 2**62], "delta_n": [1], "p": ["1/10", "1"]}
        )
        decomps = [d for _, d, _ in sweep._iter_candidates(grid) if d is not None]
        assert len(decomps) == 16 and max(d.a_period for d in decomps) > 2**63
        payload = (decomps, sweep._combos(grid), Fraction(1, 100))
        rows = rows_of(sweep._eval_chunk(payload))
        assert [(i, err.hex(), ok) for i, err, ok in rows] == [
            (i, err.hex(), ok) for i, err, ok in eval_chunk_ref(payload)
        ]


    # numpy reads [2, 2^63 + 1] as float64, so the p denominators (and
    # v - u) of such a grid must become columns in one step, never through
    # a default np.asarray
    @pytest.mark.parametrize("probs", [
        [Fraction(1, 2), Fraction(1, 2**63 + 1)],
        [Fraction(1, 3), Fraction(2, 2**63 + 3)],
    ])
    def test_p_denominators_straddling_int64_equal_fraction_oracle(self, probs):
        decomps = [decompose(2, 3, 5), decompose(34, 7, 10), decompose(12, 9, 5)]
        payload = (decomps, [(0, 0, p) for p in probs] + [(3, 1, probs[1])], Fraction(1, 100))
        rows = rows_of(sweep._eval_chunk(payload))
        assert [(i, err.hex(), ok) for i, err, ok in rows] == [
            (i, err.hex(), ok) for i, err, ok in eval_chunk_ref(payload)
        ]
        assert [tuple(map(type, row)) for row in rows] == [(int, float, bool)] * len(rows)

    def test_straddling_grid_has_no_bound_violation(self):
        grid = SweepGrid.from_dict(
            {"A": "2..7", "B": "2..7", "N": "2..7", "p": ["1/2", "1/9223372036854775809"]}
        )
        result = run_sweep(grid)
        assert (result.n_configs, result.bound_violations) == (96, 0)
        assert all(type(i) is int for i in result.global_hist.counts)
        errs = [float(relative_error_ref(cfg)) for cfg in enumerate_configs(grid)]
        assert result.mean_error == sum_ref(errs) / len(errs)


class TestRowView:
    """``_eval_chunk``'s three columns, read as rows by ``conftest.rows_of``."""

    # at a bin width of 10^-30 every bin is past int64
    @pytest.mark.parametrize("bin_width", [Fraction(1, 100), Fraction(1, 10**30)])
    def test_reads_as_the_row_list(self, bin_width):
        decomps = [decompose(34, 7, 10), decompose(12, 9, 5)]
        combos = [(0, 0, Fraction(1)), (0, 0, Fraction(1, 3)), (3, 5, Fraction(1, 3))]
        payload = (decomps, combos, bin_width)
        rows, want = sweep._eval_chunk(payload), eval_chunk_ref(payload)
        assert len(rows) == len(want) == 6
        assert rows_of(rows) == want
        assert [tuple(map(type, row)) for row in rows_of(rows)] == [(int, float, bool)] * 6
        bins = [i for i, _, _ in want]
        assert (max(map(abs, bins)) > 2**63) == (bin_width == Fraction(1, 10**30))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_reads_columns_only(self, monkeypatch, jobs):
        # a block has no row view to build: the sweep folds its columns
        monkeypatch.setattr(sweep, "_CORES", 2)
        monkeypatch.setattr(sweep, "_BLOCK", 2048)
        grid = SweepGrid.from_json(BUNDLED_GRID)
        rows = sweep._eval_chunk(([decompose(34, 7, 10)], sweep._combos(grid), Fraction(1)))
        with pytest.raises(TypeError, match="not iterable"):
            iter(rows)
        assert run_sweep(grid, jobs=jobs).n_configs == 11_178


@pytest.fixture(scope="module")
def grid():
    return SweepGrid.from_dict(
        {
            "A": "2..6",
            "B": "2..6",
            "N": "2..6",
            "delta_b": [0, 4],
            "p": ["1", "2/3"],
        }
    )


@pytest.fixture(scope="module")
def result(grid):
    return run_sweep(grid)


class TestRunSweep:
    def test_totals_partition(self, grid, result):
        assert result.n_candidates == grid.n_candidates() == 5 * 5 * 5 * 2 * 2
        assert result.n_configs + sum(result.skip_counts.values()) == result.n_candidates
        assert sum(result.global_hist.counts.values()) == result.n_configs
        assert len(result.float_errors) == result.n_configs

    def test_errors_are_the_read_only_float64_column(self, result):
        errs = result.float_errors
        assert (type(errs), errs.dtype, errs.flags.writeable) == (np.ndarray, np.float64, False)
        with pytest.raises(ValueError, match="read-only"):
            errs[0] = 0.0

    def test_no_bound_violations(self, result):
        assert result.bound_violations == 0

    def test_p_slices_partition_global(self, result):
        p_slices = [sl for sl in result.slices if sl.parameter == "p"]
        assert len(p_slices) == 2
        assert sum(sl.n_configs for sl in p_slices) == result.n_configs
        merged = {}
        for sl in p_slices:
            for idx, c in sl.histogram.counts.items():
                merged[idx] = merged.get(idx, 0) + c
        assert merged == result.global_hist.counts

    def test_quantiles_ordered(self, result):
        for sl in result.slices:
            if sl.n_configs:
                assert sl.q01 <= sl.q50 <= sl.q99

    def test_parallel_jobs_identical(self, grid, result, tmp_path):
        r3 = run_sweep(grid, jobs=3)
        # bits, which == is not: it equates -0.0 with 0.0
        assert r3.float_errors.tobytes() == result.float_errors.tobytes()
        assert r3.global_hist == result.global_hist
        assert r3.skip_counts == result.skip_counts
        # empty slices hold NaN quantiles, so compare the printed form
        assert repr(r3.slices) == repr(result.slices)
        d1, d3 = tmp_path / "j1", tmp_path / "j3"
        f1 = write_outputs(result, d1)
        f3 = write_outputs(r3, d3)
        for a, b in zip(f1, f3):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_bad_args(self, grid):
        with pytest.raises(ValueError):
            run_sweep(grid, bin_width=Fraction(0))
        with pytest.raises(ValueError):
            run_sweep(grid, jobs=0)

    def test_empty_grid_raises(self):
        with pytest.raises(EmptyGridError):
            run_sweep(SweepGrid.from_dict({"A": "2..4", "B": "2..4", "N": "2..4"}))


class TestHistogramRows:
    @given(
        st.dictionaries(st.integers(-(10**30), 10**30), st.integers(1, 9), min_size=1, max_size=20),
        st.fractions(min_value=Fraction(1, 10**25), max_value=10**6, max_denominator=10**25).filter(
            lambda x: x > 0
        ),
    )
    @example({-3: 1, -1: 2, 0: 3, 7: 4}, Fraction(1, 100))
    @example({-(10**30): 1, 10**30: 1}, Fraction(3, 7))
    def test_edges_equal_fraction_floats(self, counts, bin_width):
        rows = list(sweep.Histogram(bin_width, counts).to_rows())
        assert [(lo.hex(), hi.hex(), n) for lo, hi, n in rows] == [
            (float(i * bin_width).hex(), float((i + 1) * bin_width).hex(), counts[i])
            for i in sorted(counts)
        ]


class TestProcesses:
    """run_sweep starts at most one process per block and per core, the parent included;
    its blocks are ``_BLOCK`` factor tuples whatever ``jobs`` is."""

    @staticmethod
    def stub_pool(asked):
        class StubPool:
            # records the process count it is asked for and starts none
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items):
                return map(fn, items)

        return StubPool

    # a Pool's process count includes the caller; grid is (fields, _BLOCK),
    # with None for the default block
    @pytest.mark.parametrize("cores, grid, processes", [
        (2, (SMALL_GRID, None), [1]),  # 1,296 tuples: one block, the caller's
        (64, (SMALL_GRID, 21), [62]),  # 62 blocks of 21
        (64, (dict(FIG_GRID, A=[17, 19]), 1), [2]),  # two factor tuples: two blocks
        (64, (FIG_GRID, None), [1]),  # one factor tuple: one block
        (1, (SMALL_GRID, 21), [1]),
    ])
    def test_huge_jobs_capped(self, monkeypatch, cores, grid, processes):
        asked = []
        monkeypatch.setattr(sweep, "Pool", self.stub_pool(asked))
        monkeypatch.setattr(sweep, "_CORES", cores)
        fields, block = grid
        if block is not None:
            monkeypatch.setattr(sweep, "_BLOCK", block)
        grid = SweepGrid.from_dict(fields)
        want = run_sweep(grid, jobs=1)
        assert asked == [1]
        asked.clear()
        got = run_sweep(grid, jobs=100_000)
        assert asked == processes
        assert TestRunSweepOracle.fields(got) == TestRunSweepOracle.fields(want)

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_workers_equal_jobs_1(self, monkeypatch, jobs):
        # SMALL_GRID's 1,296 factor tuples in 14 blocks of 97: jobs - 1
        # workers, each with blocks of its own
        pids = _spy_forks(monkeypatch)
        monkeypatch.setattr(sweep, "_CORES", 4)
        monkeypatch.setattr(sweep, "_BLOCK", 97)
        grid = SweepGrid.from_dict(SMALL_GRID)
        want = run_sweep(grid, jobs=1)
        assert pids == []
        got = run_sweep(grid, jobs=jobs)
        assert len(pids) == jobs - 1
        assert TestRunSweepOracle.fields(got) == TestRunSweepOracle.fields(want)

    @pytest.mark.parametrize("affinity, cpus, cores", [(False, None, 1), (False, 5, 5),
                                                       (True, 5, 3)])
    def test_cores_without_an_affinity_mask(self, affinity, cpus, cores):
        # where os.sched_getaffinity is missing, os.cpu_count() or 1
        code = _CORES_WITHOUT.format(affinity=affinity, cpus=cpus)
        run = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                             capture_output=True, timeout=60)
        assert run.stdout == f"{cores}\n".encode()

    def test_bundled_grid_forks_nothing(self, monkeypatch, tmp_path):
        # its 5,832 factor tuples are one block, which the caller evaluates
        # at any jobs
        def refuse():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(sweep, "_CORES", 2)
        assert _bundled_digests(tmp_path / "out", 2) == BUNDLED_DIGESTS

    def test_cores_are_the_affinity_mask(self):
        assert sweep._CORES == len(os.sched_getaffinity(0))

    def test_without_fork_every_sweep_runs_inline(self, tmp_path):
        out = tmp_path / "out"
        run = subprocess.run(
            [sys.executable, "-c", _WITHOUT_FORK, str(BUNDLED_GRID), str(out)],
            env=_child_env(), check=True, capture_output=True, timeout=60,
        )
        assert run.stderr == b"1\n"
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        stdout = run.stdout.replace(str(out).encode(), b"")
        digests["stdout"] = hashlib.sha256(stdout).hexdigest()
        assert digests == BUNDLED_DIGESTS


# Deletes os.fork, prints sweep._CORES to stderr and runs the bundled sweep
# at --jobs 2 into argv[2].
_WITHOUT_FORK = """
import os, sys
del os.fork
from aoiclock import cli, sweep
print(sweep._CORES, file=sys.stderr)
sys.exit(cli.main(["sweep", "--grid", sys.argv[1], "--out", sys.argv[2], "--jobs", "2"]))
"""


def _child_env() -> dict:
    """This environment, with the package first on a child's PYTHONPATH."""
    src = str(Path(sweep.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _spy_forks(monkeypatch) -> list:
    """A list to which every os.fork appends the child's pid, in the parent."""
    pids, real = [], os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


# Prints sweep._CORES where os.cpu_count() gives {cpus}, and the affinity
# mask, if kept, holds three cores.
_CORES_WITHOUT = """
import os
os.cpu_count = lambda: {cpus}
if {affinity}:
    os.sched_getaffinity = lambda pid: {{0, 1, 2}}
else:
    del os.sched_getaffinity
from aoiclock import sweep
print(sweep._CORES)
"""


@contextlib.contextmanager
def alarm(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestWorkers:
    """A failure in a worker or in the parent fails the sweep, and leaves no child
    (the autouse fixture of conftest checks that)."""

    @staticmethod
    def split(monkeypatch, mine, theirs):
        """Run the parent's blocks with ``mine`` and the worker's with ``theirs``,
        in blocks small enough that SMALL_GRID and the bundled grid fork one."""
        parent = os.getpid()
        monkeypatch.setattr(
            sweep, "_run_block", lambda p: (mine if os.getpid() == parent else theirs)(p)
        )
        monkeypatch.setattr(sweep, "_CORES", 2)
        monkeypatch.setattr(sweep, "_BLOCK", 256)

    def test_dead_worker_fails_the_sweep(self, monkeypatch):
        # the parent reads EOF on the dead worker's pipe, not waiting for its result
        self.split(monkeypatch, sweep._run_block, lambda p: os._exit(3))
        with alarm(10), pytest.raises(ChildProcessError, match=r"\(exit status 3\)$"):
            run_sweep(SweepGrid.from_dict(SMALL_GRID), jobs=2)

    def test_unpicklable_result_ends_the_worker_with_status_1(self, monkeypatch):
        # pickling fails outside the error pipe, so the worker exits 1 unsent
        self.split(monkeypatch, sweep._run_block, lambda p: lambda: None)
        with alarm(10), pytest.raises(ChildProcessError, match=r"\(exit status 1\)$"):
            run_sweep(SweepGrid.from_dict(SMALL_GRID), jobs=2)

    def test_dead_second_worker_named_with_its_status(self, monkeypatch):
        # the second of two workers closes its pipe, then dies: the parent
        # reads EOF on that pipe at once, and waits for the worker's status
        pids, serve = _spy_forks(monkeypatch), sweep._serve

        def dies_late(fn, items, fd):
            if items[0][1] == 2 * sweep._BLOCK:  # the second worker's first block
                os.close(fd)
                time.sleep(0.5)
                os._exit(3)
            serve(fn, items, fd)

        monkeypatch.setattr(sweep, "_serve", dies_late)
        monkeypatch.setattr(sweep, "_CORES", 3)
        monkeypatch.setattr(sweep, "_BLOCK", 256)
        with alarm(10), pytest.raises(ChildProcessError) as err:
            run_sweep(SweepGrid.from_dict(SMALL_GRID), jobs=3)
        assert len(pids) == 2
        assert str(err.value) == (f"sweep worker {pids[1]} ended without sending a result "
                                  f"(exit status 3)")

    def test_worker_error_reaches_the_caller(self, monkeypatch, capsys, tmp_path):
        def boom(p):
            raise ValueError("boom")

        self.split(monkeypatch, sweep._run_block, boom)
        out = tmp_path / "out"
        argv = ["sweep", "--grid", str(BUNDLED_GRID), "--out", str(out), "--jobs", "2"]
        with alarm(10):
            assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: boom\n"
        assert list(out.iterdir()) == []  # --out is made before the run, and nothing written

    def test_parent_error_kills_the_workers(self, monkeypatch):
        def boom(p):
            raise RuntimeError("parent")

        self.split(monkeypatch, boom, lambda p: time.sleep(60))
        with alarm(10), pytest.raises(RuntimeError, match="^parent$"):
            run_sweep(SweepGrid.from_dict(SMALL_GRID), jobs=2)


class TestSum:
    @given(st.lists(st.one_of(st.floats(width=64), st.floats(-1, 1)), max_size=50))
    @example([-0.0])
    @example([-0.0] * 4)
    @example([float("inf"), 1.0, float("-inf")])
    @example([float("-inf"), -1.0])
    @example([1.0, float("nan"), 2.0])
    @example([1e16, 1.0, -1e16])
    # a pairwise sum adds the small terms together first, and gets 1 + 7 ulp
    @example([1.0] + [1e-16] * 15)
    @example([])
    def test_bits_equal_left_to_right_loop(self, xs):
        # numpy warns where inf - inf makes a nan, or a sum overflows; the loop does not
        with np.errstate(invalid="ignore", over="ignore"):
            got = sweep._sum(np.array(xs, dtype=np.float64))
        assert type(got) is float and got.hex() == sum_ref(xs).hex()

    def test_left_to_right_from_zero(self):
        # sum() compensates since Python 3.12 and gives 1.0 here
        assert sweep._sum([1e16, 1.0, -1e16]) == 0.0
        assert sweep._sum([]) == 0.0
        assert sweep._sum([-0.0]) == 0.0 and str(sweep._sum([-0.0])) == "0.0"

    def test_mean_error_uses_it(self):
        result = SweepResult(
            Fraction(1), 3, 3, {}, 0, sweep.Histogram(Fraction(1)), [1e16, 1.0, -1e16], ()
        )
        assert result.mean_error == 0.0


# every skip reason
EVERY_SKIP_GRID = SweepGrid.from_dict(
    {"A": [1, 3], "B": [1, 3], "N": [1, 5], "a": [1, 2], "b": [1, 2, 3], "n": [1, 3],
     "delta_b": [0, 5], "delta_n": [0, 2], "p": ["1/3", "1"]}
)
# small random grids, up to 768 factor tuples
sweep_grids = st.fixed_dictionaries(
    {
        "A": st.lists(st.integers(1, 7), min_size=1, max_size=4),
        "B": st.lists(st.integers(1, 7), min_size=1, max_size=4),
        "N": st.lists(st.integers(1, 5), min_size=1, max_size=3),
        "a": st.lists(st.integers(1, 3), min_size=1, max_size=2),
        "b": st.lists(st.integers(1, 3), min_size=1, max_size=2),
        "n": st.lists(st.integers(1, 3), min_size=1, max_size=2),
        "delta_b": st.lists(st.integers(0, 12), min_size=1, max_size=4),
        "delta_n": st.lists(st.integers(0, 12), min_size=1, max_size=2),
        "p": st.lists(st.sampled_from(["1", "1/2", "1/3", "2/3", "1/10"]), min_size=1, max_size=4),
    }
).map(SweepGrid.from_dict)


class TestRunSweepOracle:
    """run_sweep against the one-loop fold of conftest.run_sweep_ref."""

    @staticmethod
    def fields(result):
        def hexed(x):
            return float.hex(x) if isinstance(x, float) else x

        slices = [
            tuple(hexed(getattr(sl, f)) for f in sl.__dataclass_fields__) for sl in result.slices
        ]
        return (
            result.bin_width, result.n_candidates, result.n_configs, result.skip_counts,
            result.bound_violations, result.global_hist,
            [x.hex() for x in result.float_errors], slices, result.mean_error.hex(),
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("block", ["default", 1, 7, "whole"])
    @settings(max_examples=15)
    @example(EVERY_SKIP_GRID, Fraction(1, 100))
    @given(
        sweep_grids,
        st.sampled_from([Fraction(1, 100), Fraction(3, 7), Fraction(1, 10**30)]),
    )
    def test_fields_equal_oracle(self, jobs, block, grid, bin_width):
        n_tuples = prod(len(getattr(grid, f)) for f in sweep._FACTORS)
        with pytest.MonkeyPatch.context() as mp:
            if block != "default":
                mp.setattr(sweep, "_BLOCK", n_tuples if block == "whole" else block)
            try:
                expected = run_sweep_ref(grid, bin_width)
            except EmptyGridError as exc:
                with pytest.raises(EmptyGridError, match=f"^{re.escape(str(exc))}$"):
                    run_sweep(grid, bin_width, jobs)
                return
            got = run_sweep(grid, bin_width, jobs)
        assert self.fields(got) == self.fields(expected)


def _bundled_digests(out, jobs) -> dict:
    """sha256 of each output file and of stdout, ``out`` removed from it, of
    ``aoiclock sweep`` on the bundled grid into ``out``."""
    buf = io.StringIO()
    argv = ["sweep", "--grid", str(BUNDLED_GRID), "--out", str(out), "--jobs", str(jobs)]
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    digests["stdout"] = hashlib.sha256(buf.getvalue().replace(str(out), "").encode()).hexdigest()
    return digests


class TestBundledGolden:
    """The bundled grid's outputs and stdout, pinned by sha256 at jobs 1 and 2."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_digests(self, tmp_path, jobs):
        assert _bundled_digests(tmp_path / "out", jobs) == BUNDLED_DIGESTS

    def test_digests_with_a_worker(self, monkeypatch, tmp_path):
        # blocks of 2,048 tuples cut the bundled grid in three, so jobs 2 forks
        forks = []
        real = os.fork

        def counted():
            forks.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(sweep, "_CORES", 2)
        monkeypatch.setattr(sweep, "_BLOCK", 2048)
        assert _bundled_digests(tmp_path / "out", 2) == BUNDLED_DIGESTS
        assert forks == [1]


class TestWriteOutputs:
    def test_file_set_and_headers(self, tmp_path):
        g = SweepGrid.from_dict(dict(FIG_GRID, p=["1", "1/2", "1/4", "1/8"]))
        result = run_sweep(g)
        files = write_outputs(result, tmp_path / "out")
        names = sorted(f.name for f in files)
        assert "global.csv" in names
        assert "summary.csv" in names
        # p has 4 values, sliced at first/middle/last; "/" is slug-escaped
        assert "slice_p_1-8.csv" in names
        assert sum(1 for n in names if n.startswith("slice_p_")) == 3
        assert sum(1 for n in names if n.startswith("slice_A_")) == 1
        head = (tmp_path / "out" / "global.csv").read_text().splitlines()[0]
        assert head == "bin_left,bin_right,count"
        shead = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
        assert shead == "parameter,fixed_value,mean,q01,q50,q99,n_configs,n_skipped"

    def test_rerun_byte_identical(self, tmp_path):
        g = SweepGrid.from_dict({"A": "2..5", "B": "3..7", "N": 2, "p": ["3/4"]})
        f1 = write_outputs(run_sweep(g), tmp_path / "r1")
        f2 = write_outputs(run_sweep(g), tmp_path / "r2")
        assert [f.name for f in f1] == [f.name for f in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()


class TestSmallGridGolden:
    """SMALL_GRID's outputs, pinned byte for byte at jobs 1 and 2."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outputs_match_golden(self, tmp_path, jobs):
        result = run_sweep(SweepGrid.from_dict(SMALL_GRID), jobs=jobs)
        assert result.n_candidates == 20_736
        assert result.skip_counts == {
            "common_factor": 13_664, "factor_mismatch": 1_920, "equal_periods": 16,
        }
        files = write_outputs(result, tmp_path)
        assert sorted(f.name for f in files) == sorted(
            f.name for f in GOLDEN.iterdir()
        )
        for f in files:
            assert f.read_bytes() == (GOLDEN / f.name).read_bytes(), f.name
