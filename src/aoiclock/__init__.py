"""Exact age-of-information analysis for clocked sender/receiver pairs.

A source regenerates a value on one periodic schedule, a link forwards the
freshest copy on another, and a reader samples on a third, all sharing one
slotted clock.  This package computes the resulting age process in closed
form (distributions, exact and banded expectations, worst-case and
probabilistic bounds), simulates it slot-exactly for cross-checking, and
sweeps configuration grids to map the approximation error.
"""

__version__ = "0.1.0"

from .basic import (
    AoiDistribution,
    BandedValue,
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
from .extended import (
    GeometricExpectation,
    SystemConfig,
    distribution_conditional,
    expected_approx_extended,
    expected_exact_extended,
    freshness_offset_K,
    max_bound_lossless,
    max_bound_prob,
    rel_error_bound_extended,
    sequence_conditional,
)
from .kernels import backend
from .modmath import floor_sum
from .simulate import (
    RngSpec,
    Trace,
    TraceStream,
    bernoulli_threshold,
    simulate_extended,
    stream_basic,
    stream_extended,
    write_trace_csv,
)
from .sweep import (
    EmptyGridError,
    Histogram,
    SliceStat,
    SweepGrid,
    SweepResult,
    enumerate_configs,
    run_sweep,
    write_outputs,
)

__all__ = [
    "__version__",
    "backend",
    # modmath
    "floor_sum",
    # basic model
    "ConfigError", "NullSequenceError", "PeriodDecomposition", "AoiDistribution",
    "BandedValue", "decompose", "sequence_basic", "distribution_basic",
    "expected_exact_basic", "expected_approx_basic", "rel_error_bound_basic", "max_bound_basic",
    # extended model
    "SystemConfig", "GeometricExpectation", "sequence_conditional", "distribution_conditional",
    "freshness_offset_K", "expected_approx_extended", "expected_exact_extended",
    "rel_error_bound_extended", "max_bound_lossless", "max_bound_prob",
    # simulation
    "RngSpec", "Trace", "TraceStream", "bernoulli_threshold", "simulate_extended",
    "stream_basic", "stream_extended", "write_trace_csv",
    # sweep
    "EmptyGridError", "SweepGrid", "Histogram", "SliceStat", "SweepResult",
    "enumerate_configs", "run_sweep", "write_outputs",
]
