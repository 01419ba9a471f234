"""The package namespace re-exports every public name of its submodules, and no more
than the pinned list."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import aoiclock

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(aoiclock.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_is_exported(name):
    module = importlib.import_module(f"aoiclock.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if n not in aoiclock.__all__] == []
    assert [n for n in names if getattr(aoiclock, n, None) is not getattr(module, n)] == []


def test_package_all_resolves():
    assert [n for n in aoiclock.__all__ if not hasattr(aoiclock, n)] == []


# the public surface: what the command line, another library function or the
# benchmark calls; helpers that only tests use live in tests/conftest.py
PUBLIC = [
    "AoiDistribution", "BandedValue", "ConfigError", "EmptyGridError", "GeometricExpectation",
    "Histogram", "NullSequenceError", "PeriodDecomposition", "RngSpec", "SliceStat",
    "SweepGrid", "SweepResult", "SystemConfig", "Trace", "TraceStream", "__version__",
    "aoi_basic", "aoi_conditional", "backend", "bernoulli_threshold", "c_basic", "c_extended",
    "comp_mod", "decompose", "distribution_basic", "distribution_conditional",
    "enumerate_configs", "expected_approx_basic", "expected_approx_extended",
    "expected_exact_basic", "expected_exact_extended", "floor_mod", "floor_sum",
    "freshness_offset_K", "max_bound_basic", "max_bound_lossless", "max_bound_prob",
    "rel_error_bound_basic", "rel_error_bound_extended", "run_sweep", "sequence_basic",
    "sequence_conditional", "simulate_extended", "stream_basic", "stream_extended",
    "write_outputs", "write_trace_csv",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 47
    assert sorted(aoiclock.__all__) == PUBLIC


def test_import_leaves_multiprocessing_out():
    # the sweep forks its own workers
    src = str(Path(aoiclock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, aoiclock, aoiclock.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n"
