"""The names the benchmark harness in ``bench/`` reads from the package.

``bench/layers.py`` wraps public functions and a few private sweep stages by
attribute, and times the kernels it finds in ``kernels.IMPLS``;
``bench/workloads.py`` calls public functions and reads the whole trace that
``simulate_extended`` returns.  A rename or deletion in ``src/`` that drops
one of those names breaks the harness.  These tests fail on such a change
without running a benchmark.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(BENCH))
    return layers


def _holders(layers, fn) -> list[str]:
    return [
        f"{mod.__name__}.{attr}"
        for mod in layers._MODULES
        for attr, val in vars(mod).items()
        if val is fn
    ]


def test_tracer_swaps_and_restores_every_traced_function(layers):
    originals = [orig for orig, _ in layers.Tracer()._replacements()]
    assert all(_holders(layers, fn) for fn in originals)
    with layers.Tracer().installed():
        assert [h for fn in originals for h in _holders(layers, fn)] == []
    assert all(_holders(layers, fn) for fn in originals)


def test_kernel_shapes_name_registered_kernels(layers):
    from aoiclock import kernels

    impls = kernels.IMPLS[kernels.backend()]
    assert [name for _, name, _ in layers.KERNEL_SHAPES if name not in impls] == []


def test_eval_chunk_returns_one_row_per_config():
    # the tracer counts sweep.eval_configs as the rows _eval_chunk returns
    from fractions import Fraction

    from aoiclock import sweep
    from aoiclock.basic import decompose

    decomps = [decompose(34, 7, 10), decompose(12, 9, 5)]
    combos = [(0, 0, Fraction(1)), (0, 0, Fraction(1, 3)), (3, 5, Fraction(1, 3))]
    rows = sweep._eval_chunk((decomps, combos, Fraction(1, 100)))
    assert len(rows) == len(decomps) * len(combos)
    assert [len(c) for c in (rows.bins, rows.errs, rows.oks)] == [len(rows)] * 3


# (jobs, cores): the caller alone, a worker beside it, and a one-core host
@pytest.mark.parametrize("jobs, cores", [
    pytest.param(1, 2, id="1"), pytest.param(2, 2, id="2"), pytest.param(2, 1, id="2-one-core"),
])
def test_traced_sweep_records_every_stage(layers, monkeypatch, jobs, cores):
    # per-layer sweep metrics come from these spans and counters; with a
    # worker, it keeps its own, and only the pool's time reaches the parent.
    # Every sweep enters one pool, so the pool's span is there at any
    # process count
    from aoiclock import sweep

    # run_sweep starts no more processes than there are cores
    monkeypatch.setattr(sweep, "_CORES", cores)

    # blocks of one factor tuple, so that a second process has one to take
    monkeypatch.setattr(sweep, "_BLOCK", 1)

    grid = sweep.SweepGrid.from_dict(
        {"A": [1, 3], "B": [2, 5], "N": [1, 7], "b": [1, 2], "p": ["1/2", "1"]}
    )
    tracer = layers.Tracer()
    with tracer.installed():
        result = sweep.run_sweep(grid, jobs=jobs)
    assert tracer.stats["sweep.pool"].calls == 1
    assert tracer.stats["sweep.run_sweep"].calls == 1
    if min(jobs, cores) == 1:
        for span in ("sweep.enumerate", "sweep.eval"):
            assert tracer.stats[span].calls, span
        assert tracer.counts["sweep.candidates"] == 2 * 2 * 2 * 2
        assert tracer.counts["sweep.eval_configs"] == result.n_configs


@pytest.mark.parametrize("model", ["basic", "extended"])
def test_traced_analyze_counts_every_read_of_the_family(layers, capsys, model):
    # basic.distribution.values and extended.distribution.values count the
    # reads of the families the traced analyze calls build: one hyperperiod
    from aoiclock import cli
    from aoiclock.basic import decompose

    argv = ["analyze", "--model", model, "--a-period", "7", "--b-period", "311",
            "--n-period", "317"]
    tracer = layers.Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert tracer.counts[f"{model}.distribution.values"] == decompose(7, 311, 317).period


def test_traced_simulate_records_the_trace_it_writes(layers, capsys, tmp_path):
    # the trace-export workload's per-layer metrics come from this span; a
    # traced pass that never enters it has no simulate.write_trace_csv.* values
    from aoiclock import cli

    out = tmp_path / "trace.csv"
    argv = ["simulate", "--model", "extended", "--a-period", "9", "--b-period", "13",
            "--n-period", "3", "--p", "1/5", "--seed", "1", "--cycles", "20000",
            "--out", str(out)]
    tracer = layers.Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert tracer.stats["simulate.write_trace_csv"].calls == 1
    values = layers.layer_values(tracer)
    assert values["simulate.write_trace_csv.rows"] == 20000
    assert values["simulate.write_trace_csv.bytes"] == out.stat().st_size > 0


def test_mini_traced_passes_reach_every_layer(layers, tmp_path):
    # a traced benchmark run fills the layers its own workload misses from
    # one mini traced pass of each other workload, so together the four must
    # pass their checks and reach every per-layer metric
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    tracer = layers.Tracer()
    for name, workload in workloads.WORKLOADS.items():
        res, _ = workload(1, tmp_path, mini=True).run_traced(0, tracer)
        assert (res.failed, res.problems) == (0, []), name
    assert set(layers.layer_values(tracer)) == {name for name, _, _ in layers.LAYER_METRICS}


def _package_reads(path: Path) -> set[tuple[str, str]]:
    """Each ``(module, name)`` a bench file reads as ``<module>.<name>``, where
    ``<module>`` is ``aoiclock`` or a submodule imported from it."""
    tree = ast.parse(path.read_text())
    modules = {"aoiclock": "aoiclock"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "aoiclock":
            modules.update({a.asname or a.name: f"aoiclock.{a.name}" for a in node.names})
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


# each file with one read the scan must see: the Monte Carlo workload's
# simulator, and the kernel the tracer wraps
@pytest.mark.parametrize("name, seen", [
    ("workloads.py", ("aoiclock", "simulate_extended")),
    ("layers.py", ("aoiclock.kernels", "sim_extended")),
])
def test_bench_reads_only_names_the_package_has(name, seen):
    reads = _package_reads(BENCH / name)
    assert seen in reads
    missing = [f"{mod}.{attr}" for mod, attr in sorted(reads)
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_simulate_extended_returns_what_the_montecarlo_workload_reads():
    # bench/workloads.py slices a whole run's ages at its warm-up
    from fractions import Fraction

    import aoiclock

    cfg = aoiclock.SystemConfig(aoiclock.decompose(34, 7, 10), 3, 5, Fraction(1, 2))
    trace = aoiclock.simulate_extended(cfg, 1000, aoiclock.RngSpec(1))
    ages = trace.ages[trace.warmup_cycles :]
    assert len(ages) == 1000 - trace.warmup_cycles > 0
    assert (ages >= 0).all()
