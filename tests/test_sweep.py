import json
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from math import gcd
from pathlib import Path

import pytest

from aoiclock import sweep
from aoiclock.basic import decompose
from aoiclock.extended import SystemConfig
from aoiclock.sweep import (
    EmptyGridError,
    SweepGrid,
    enumerate_configs,
    relative_error,
    run_sweep,
    write_outputs,
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
BUNDLED_GRID = files("aoiclock") / "grids" / "default.json"


class TestGridParsing:
    def test_scalars_lists_and_ranges(self):
        g = SweepGrid.from_dict(
            {"A": 3, "B": [5, 2, 5], "N": "2..8:3", "p": ["1", "1/2"]}
        )
        assert g.A == (3,)
        assert g.B == (2, 5)
        assert g.N == (2, 5, 8)
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
        for field, raw in [("p", []), ("A", []), ("delta_n", [])]:
            with pytest.raises(ValueError, match=f"^grid field {field}: empty list$"):
                SweepGrid.from_dict({field: raw})
        # list entries that int() would truncate or coerce
        for field, raw in [("A", [2.5, 3]), ("B", [True]), ("delta_b", [0.9]), ("n", [1, False])]:
            with pytest.raises(ValueError, match=f"^grid field {field}: .* is not an integer$"):
                SweepGrid.from_dict({field: raw})
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
        assert relative_error(cfg) == Fraction(-1, 20)

    def test_sign_convention(self):
        # exact 10 < center 10.5 gives a negative signed error
        cfg = SystemConfig(decompose(34, 7, 10))
        assert relative_error(cfg) < 0

    def test_zero_error_lands_in_bin_zero(self):
        # periods (3, 4, 10) at p = 1/2: the exact mean 37/2 is the band center,
        # so the error is exactly 0 and belongs in [0, bin_width)
        grid = SweepGrid.from_dict(
            {"A": [3], "B": [2], "N": [5], "a": [2], "b": [1], "n": [1], "p": ["1/2"]}
        )
        assert run_sweep(grid).global_hist.counts == {0: 1}


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
        assert result.global_hist.total() == result.n_configs
        assert len(result.float_errors) == result.n_configs

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
        assert r3.float_errors == result.float_errors
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


class TestPerConfigErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_configs_are_counted_in_every_slice(self, monkeypatch, jobs):
        real = sweep.relative_error

        def flaky(cfg):
            if cfg.p == Fraction(1, 3):
                raise ArithmeticError("injected")
            return real(cfg)

        monkeypatch.setattr(sweep, "relative_error", flaky)
        grid = SweepGrid.from_dict(SMALL_GRID)
        result = run_sweep(grid, jobs=jobs)
        # half the 5,136 valid configs hold p = 1/3
        assert result.skip_counts["error:ArithmeticError"] == 2_568
        assert result.n_configs == 2_568
        assert result.n_configs + sum(result.skip_counts.values()) == result.n_candidates
        for sl in result.slices:
            holding = result.n_candidates // len(grid.values_of(sl.parameter))
            assert sl.n_configs + sl.n_skipped == holding, (sl.parameter, sl.value)
        p_third = next(sl for sl in result.slices if sl.parameter == "p" and sl.value == "1/3")
        assert p_third.n_configs == 0
