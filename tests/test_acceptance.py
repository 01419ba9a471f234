"""Acceptance suite: eleven go/no-go criteria over exhaustive grids, exact
rational identities, and fixed-seed Monte Carlo runs.

Each test prints one verdict line; conftest echoes all of them after the run
summary.  Stated runtime budgets are asserted, not just aspired to.
"""

import time
from fractions import Fraction
from math import ceil, sqrt

import numpy as np
import pytest

import conftest
from conftest import ap_reduce_mod, coprime_triples, pairing_classes, residue_orbit, whole_trace
from aoiclock import kernels
from aoiclock.basic import (
    NullSequenceError,
    decompose,
    distribution_basic,
    expected_approx_basic,
    expected_exact_basic,
    max_bound_basic,
    rel_error_bound_basic,
)
from aoiclock.extended import (
    SystemConfig,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    max_bound_prob,
    sequence_conditional,
)
from aoiclock.simulate import RngSpec, simulate_extended, stream_basic
from aoiclock.sweep import SweepGrid, run_sweep, write_outputs

_GOLD = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _criterion(num, name, budget_s, body):
    """Run one criterion body, record its verdict line, enforce the budget."""
    t0 = time.time()
    try:
        detail = body()
    except BaseException as exc:
        line = f"[ACCEPTANCE] AC{num} {name}: FAIL ({type(exc).__name__}: {exc})"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.time() - t0
    in_budget = budget_s is None or elapsed < budget_s
    status = "PASS" if in_budget else "FAIL"
    stamp = f"{detail}, {elapsed:.1f}s"
    if budget_s is not None:
        stamp += f" < {budget_s:.0f}s" if in_budget else f" OVER {budget_s:.0f}s budget"
    line = f"[ACCEPTANCE] AC{num} {name}: {status} ({stamp})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert in_budget, line


@pytest.fixture(scope="module")
def grid30():
    """Every period triple with values <= 30 and triple gcd 1."""
    return coprime_triples(30)


@pytest.fixture(scope="module")
def ext_cfgs():
    """Extended configs: all period triples <= 21, phase shifts subsampled
    deterministically over {0..20}."""
    return [
        SystemConfig(decompose(*t), delta_b=(7 * i) % 21, delta_n=(11 * i) % 21)
        for i, t in enumerate(coprime_triples(21))
    ]


MC_PS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
MC_SIGMAS = (Fraction(9, 10), Fraction(99, 100))
MC_CYCLES = 10**6


def _mc_seed(run_idx: int) -> int:
    return (_GOLD * (run_idx + 1)) & _M64


@pytest.fixture(scope="module")
def mc_configs(ext_cfgs):
    """110 extended configs, evenly strided over the <=21 period grid."""
    stride = max(1, len(ext_cfgs) // 110)
    return ext_cfgs[::stride][:110]


@pytest.fixture(scope="module")
def mc_study(mc_configs):
    """One million-cycle trace per (config, p) under fixed seeds.

    Stores per-run aggregates only: the empirical mean, a batch-means
    standard error, the certified exact expectation, and exceedance counts
    against the probabilistic max bounds.
    """
    t0 = time.time()
    records = []
    run_idx = 0
    for base in mc_configs:
        for p in MC_PS:
            cfg = SystemConfig(base.d, base.delta_b, base.delta_n, p)
            seed = _mc_seed(run_idx)
            run_idx += 1
            tr = simulate_extended(cfg, MC_CYCLES, RngSpec(seed))
            w = tr.warmup_cycles
            ages = tr.ages[w:]
            n = len(ages)
            nb = 200
            blen = n // nb
            bmeans = ages[: nb * blen].reshape(nb, blen).mean(axis=1)
            se = float(bmeans.std(ddof=1)) / sqrt(nb)
            exceed = {}
            for sigma in MC_SIGMAS:
                bound = max_bound_prob(cfg, sigma)
                exceed[sigma] = (int((ages > bound).sum()), n)
            records.append(
                {
                    "cfg": cfg,
                    "seed": seed,
                    "n": n,
                    "mean": float(Fraction(int(ages.sum()), n)),
                    "se": se,
                    "exact": expected_exact_extended(cfg),
                    "exceed": exceed,
                }
            )
    return records, time.time() - t0


def test_ac1_progression_families_exhaustive(grid30):
    def body():
        for t in grid30:
            d = decompose(*t)
            dist = distribution_basic(d)
            seq = np.sort(kernels.seq_basic(*t, 1, d.period))
            assert np.array_equal(dist.to_sorted_array(), seq), t
        return f"{len(grid30)} configs, multisets equal"

    _criterion(1, "progression families match brute force", 30, body)


def test_ac2_exact_mean_identity(grid30):
    def body():
        for t in grid30:
            d = decompose(*t)
            total = int(kernels.seq_basic(*t, 1, d.period).sum())
            assert expected_exact_basic(d) == Fraction(total, d.period), t
        return f"{len(grid30)} configs, exact rational equality"

    _criterion(2, "closed-form mean equals period average", 30, body)


def test_ac3_band_max_and_relative_bounds(grid30):
    def body():
        null_cases = 0
        for t in grid30:
            d = decompose(*t)
            exact = expected_exact_basic(d)
            band = expected_approx_basic(d)
            assert abs(exact - band.center) <= band.half_width, t
            dist = distribution_basic(d)
            assert dist.max() <= max_bound_basic(d), t
            try:
                bound = rel_error_bound_basic(d)
            except NullSequenceError:
                assert exact == 0, t
                null_cases += 1
                continue
            assert abs(exact - band.center) <= bound * exact, t
        return f"{len(grid30)} configs, {null_cases} null sequences"

    _criterion(3, "approximation band, max and relative bounds", 30, body)


def test_ac4_reference_configuration():
    def body():
        d = decompose(34, 7, 10)
        assert (d.A, d.B, d.N, d.a, d.b, d.n) == (17, 7, 5, 1, 1, 2)
        dist = distribution_basic(d)
        assert len(dist.starts) == d.a * d.N == 5
        assert dist.count == 7 and dist.step == 1
        assert expected_exact_basic(d) == 7
        assert dist.max() == 14
        assert max_bound_basic(d) == 15
        return "5 progressions of 7, mean 7, max 14 <= 15"

    _criterion(4, "reference configuration", None, body)


def test_ac5_conditional_families_grid(ext_cfgs):
    def body():
        assert len(ext_cfgs) >= 2000
        for cfg in ext_cfgs:
            d = cfg.d
            for l in range(4):
                dist = distribution_conditional(cfg, l)
                seq = np.sort(
                    kernels.seq_conditional(
                        d.a_period, d.b_period, d.n_period,
                        cfg.delta_b, cfg.delta_n, l, 1, d.period,
                    )
                )
                assert np.array_equal(dist.to_sorted_array(), seq), (cfg, l)
        return f"{len(ext_cfgs)} configs x l in 0..3, multisets equal"

    _criterion(5, "conditional progression families match brute force", 60, body)


def test_ac6_simulators_equal_formulas(grid30, ext_cfgs):
    def body():
        for t in grid30:
            d = decompose(*t)
            cycles = 3 * d.period + 1
            tr = whole_trace(stream_basic(d, cycles))
            model = kernels.seq_basic(*t, 0, cycles)
            assert np.array_equal(tr.ages, model), t
        for cfg in ext_cfgs:
            d = cfg.d
            warm_bound = (
                ceil((cfg.delta_b + cfg.delta_n + d.b_period + d.n_period + 2) / d.a_period) + 1
            )
            cycles = warm_bound + 2 * d.period + 2
            tr = simulate_extended(cfg, cycles, RngSpec(0))
            w = tr.warmup_cycles
            assert w <= warm_bound, cfg
            model = kernels.seq_conditional(
                d.a_period, d.b_period, d.n_period,
                cfg.delta_b, cfg.delta_n, 0, w, cycles - w,
            )
            assert np.array_equal(tr.ages[w:], model), cfg
            assert (tr.fails[w:] == 0).all(), cfg
        return f"{len(grid30)} lossless + {len(ext_cfgs)} buffered configs"

    _criterion(6, "simulators reproduce the closed forms", None, body)


def _conditional_ages_vec(cfg, k_arr, l_arr):
    # direct array form of the conditional age; cross-checked against
    # sequence_conditional, one read at a time, on a sample inside AC7
    d = cfg.d
    t = k_arr * d.a_period
    r_n = (t - cfg.delta_n - 1) % d.n_period
    r_b = (t - cfg.delta_b - 2 - l_arr * d.n_period) % d.b_period
    return 2 + l_arr * d.n_period + r_n + (r_b - r_n) % d.b_period


def test_ac7_bridge_identity(mc_configs):
    def body():
        cycles = 10**4
        run_idx = 0
        total = 0
        spot = 0
        for base in mc_configs:
            for p in MC_PS:
                cfg = SystemConfig(base.d, base.delta_b, base.delta_n, p)
                tr = simulate_extended(cfg, cycles, RngSpec(_mc_seed(run_idx)))
                run_idx += 1
                w = tr.warmup_cycles
                k = np.arange(w, cycles, dtype=np.int64)
                l = tr.fails[w:]
                want = _conditional_ages_vec(cfg, k, l)
                assert np.array_equal(tr.ages[w:], want), (cfg, tr.seed if hasattr(tr, "seed") else None)
                total += len(k)
                # tie the vectorized expression back to the library's closed form
                for idx in range(0, len(k), max(1, len(k) // 4)):
                    one = sequence_conditional(cfg, int(l[idx]), int(k[idx]), 1)
                    assert int(want[idx]) == int(one[0])
                    spot += 1
        return f"{total} records over {run_idx} runs, {spot} scalar spot checks"

    _criterion(7, "simulated ages satisfy the conditional identity", None, body)


def test_ac8_long_run_means(mc_study):
    records, sim_elapsed = mc_study

    def body():
        zmax = 0.0
        for r in records:
            ge = r["exact"]
            band = expected_approx_extended(r["cfg"])
            assert band.contains(ge.value), r["cfg"]
            assert r["se"] > 0, r["cfg"]
            z = abs(r["mean"] - float(ge.value)) / r["se"]
            zmax = max(zmax, z)
            assert z <= 3.0, (r["cfg"], r["seed"], z, r["mean"], float(ge.value), r["se"])
        return f"{len(records)} runs x {MC_CYCLES} cycles, max |z| = {zmax:.2f}, sim {sim_elapsed:.0f}s"

    t0 = time.time()
    _criterion(8, "million-cycle means within 3 SE and exact band", None, body)
    # the 10-minute budget covers simulation plus checks
    assert sim_elapsed + (time.time() - t0) < 600


def test_ac9_probabilistic_max_bound(mc_study):
    records, _ = mc_study

    def body():
        worst = -1.0
        for r in records:
            for sigma in MC_SIGMAS:
                count, n = r["exceed"][sigma]
                frac = count / n
                allow = float(1 - sigma) + 3.0 * sqrt(float(sigma * (1 - sigma)) / n)
                worst = max(worst, frac - allow)
                assert frac <= allow, (r["cfg"], r["seed"], sigma, frac, allow)
        return f"{len(records)} runs x sigma {{0.9, 0.99}}, worst margin {worst:.1e}"

    _criterion(9, "exceedance of probabilistic max within tolerance", None, body)


def test_ac10_bundled_sweep(tmp_path):
    def body():
        from importlib.resources import files

        grid = SweepGrid.from_json(str(files("aoiclock") / "grids" / "default.json"))
        res1 = run_sweep(grid, jobs=1)
        assert res1.n_configs > 8000, res1.n_configs
        mean = res1.mean_error
        assert -0.08 <= mean <= 0.0, mean
        inside = sum(1 for e in res1.float_errors if -0.14 <= e <= 0.06)
        share = inside / res1.n_configs
        assert share >= 0.95, share
        assert res1.bound_violations == 0
        res8 = run_sweep(grid, jobs=8)
        f1 = write_outputs(res1, tmp_path / "jobs1")
        f8 = write_outputs(res8, tmp_path / "jobs8")
        assert [p.name for p in f1] == [p.name for p in f8]
        for a, b in zip(f1, f8):
            assert a.read_bytes() == b.read_bytes(), a.name
        return (
            f"{res1.n_configs} configs, mean {mean:.4f} in [-0.08, 0], "
            f"{share:.3f} of mass in [-0.14, 0.06], jobs 1 == 8 bytewise"
        )

    _criterion(10, "bundled sweep reproduces the error envelope", 300, body)


def test_ac11_residue_identities():
    def body():
        from math import gcd

        orbits = 0
        for y in range(1, 201):
            full = set(range(y))
            for x in range(1, 201):
                if gcd(x, y) == 1:
                    orb = residue_orbit(x, y)
                    assert set(orb) == full, (x, y)
                    assert all(c == 1 for c in orb.values()), (x, y)
                    orbits += 1

        for x in range(1, 21):
            for y in range(1, 21):
                steps = x * y // gcd(x, y)
                seen = [(s % x + 1, s % y + 1) for s in range(steps)]
                assert len(set(seen)) == steps, (x, y)
                assert set(seen) == pairing_classes(x, y), (x, y)

        ys = np.arange(-400, 401, dtype=np.int64)
        reductions = 0
        for x in range(1, 21):
            for big_x in range(1, 21):
                k_row = np.arange(big_x, dtype=np.int64) * x
                for negate in (False, True):
                    starts = np.fromiter(
                        (ap_reduce_mod(int(y), x, big_x, negate).start for y in ys),
                        np.int64,
                        len(ys),
                    )
                    sign = -1 if negate else 1
                    brute = np.sort((sign * ys[:, None] + k_row) % (big_x * x), axis=1)
                    assert np.array_equal(brute, starts[:, None] + k_row), (x, big_x, negate)
                    reductions += len(ys)
        return f"{orbits} orbits, 400 pairings, {reductions} reductions"

    _criterion(11, "residue identities hold exhaustively", 10, body)
