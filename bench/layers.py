"""Per-layer timings and counts, recorded from outside the program.

``Tracer.installed()`` swaps each traced aoiclock function for a wrapper in
every aoiclock module namespace that holds it, and restores the originals on
exit.  A wrapper adds its call's duration to the span's total, and to the
enclosing span's child time, so a span's self time is its total minus the
traced calls it made.  Spans are aggregated per name in memory.

Most spans wrap public functions.  The sweep's stages have no public entry
point, so three private names of ``aoiclock.sweep`` are wrapped as well:
``_iter_candidates`` (enumerate), ``_eval_chunk`` (evaluate) and ``Pool``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import aoiclock
from aoiclock import basic, cli, extended, kernels, modmath, simulate, sweep

_MODULES = (aoiclock, basic, cli, extended, kernels, modmath, simulate, sweep)


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0


def _n_tx(args) -> int:
    """Transmissions ``sim_extended`` draws, from its arguments."""
    a_period, _, n_period, _, delta_n, _, _, cycles = args
    t_last = (cycles - 1) * a_period
    return 0 if t_last - 1 < delta_n else (t_last - 1 - delta_n) // n_period + 1


class Tracer:
    def __init__(self):
        self.stats: dict[str, Span] = defaultdict(Span)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def _enter(self):
        self._stack.append([0.0])
        return perf_counter()

    def _leave(self, name: str, t0: float) -> None:
        dt = perf_counter() - t0
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dt
        span = self.stats[name]
        span.calls += 1
        span.total += dt
        span.self_s += dt - children

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def wrap_gen(self, name, fn, count=None):
        """Like ``wrap`` for a generator: times each step, not the consumer's work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0)
                if count is not None:
                    count(self.counts, args, item)
                yield item

        return traced

    def _timed_sim(self, fn):
        """``sim_extended`` also records its peak traced allocation."""

        @functools.wraps(fn)
        def traced(*args):
            tracemalloc.start()
            try:
                return fn(*args)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counts["kernels.sim_extended.peak_alloc_bytes"] = max(
                    peak, self.counts["kernels.sim_extended.peak_alloc_bytes"]
                )

        return traced

    def _pool(self, pool_cls):
        tracer = self

        class TimedPool:
            def __init__(self, *args, **kwargs):
                self.t0 = perf_counter()
                self.pool = pool_cls(*args, **kwargs)

            def __enter__(self):
                return self.pool.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.pool.__exit__(*exc)
                finally:
                    span = tracer.stats["sweep.pool"]
                    span.calls += 1
                    span.total += perf_counter() - self.t0

        return TimedPool

    def _replacements(self):
        def cli_exit(c, args, rc):
            c["cli.nonzero_exits"] += rc != 0

        def candidates(c, args, item):
            c["sweep.candidates"] += 1
            c["sweep.kept"] += item[1] is not None

        def eval_configs(c, args, rows):
            c["sweep.eval_configs"] += len(rows)

        def terms(c, args, ge):
            c["extended.exact.terms"] += ge.terms_used
            c["extended.exact.terms_max"] = max(c["extended.exact.terms_max"], ge.terms_used)

        def values(prefix):
            def count(c, args, dist):
                c[prefix + ".values"] += sum(dist.values.values())

            return count

        def draws(c, args, result):
            n_tx, cycles = _n_tx(args), args[7]
            c["kernels.sim_extended.draws"] += n_tx
            # int64 ages and fails per read, one 64-bit variate per draw
            c["kernels.sim_extended.bytes_computed"] += 16 * cycles + 8 * n_tx

        def sums(c, args, result):
            c["kernels.period_sums.terms"] += args[5]

        def rows(c, args, result):
            trace, dest = args[0], args[1]
            c["simulate.write_trace_csv.rows"] += trace.cycles
            if isinstance(dest, (str, bytes, os.PathLike)):
                c["simulate.write_trace_csv.bytes"] += os.path.getsize(dest)

        wrap, gen = self.wrap, self.wrap_gen
        return [
            (cli.main, wrap("cli.main", cli.main, cli_exit)),
            (sweep.run_sweep, wrap("sweep.run_sweep", sweep.run_sweep)),
            (sweep.write_outputs, wrap("sweep.write_outputs", sweep.write_outputs)),
            (sweep._iter_candidates, gen("sweep.enumerate", sweep._iter_candidates, candidates)),
            (sweep._eval_chunk, wrap("sweep.eval", sweep._eval_chunk, eval_configs)),
            (sweep.Pool, self._pool(sweep.Pool)),
            (extended.expected_exact_extended,
             wrap("extended.exact", extended.expected_exact_extended, terms)),
            (extended.distribution_conditional,
             wrap("extended.distribution", extended.distribution_conditional,
                  values("extended.distribution"))),
            (extended.max_bound_prob, wrap("extended.max_bound_prob", extended.max_bound_prob)),
            (basic.decompose, wrap("basic.decompose", basic.decompose)),
            (basic.distribution_basic,
             wrap("basic.distribution", basic.distribution_basic, values("basic.distribution"))),
            (kernels.sim_extended,
             wrap("kernels.sim_extended", self._timed_sim(kernels.sim_extended), draws)),
            (kernels.period_sums_conditional,
             wrap("kernels.period_sums", kernels.period_sums_conditional, sums)),
            (simulate.simulate_extended,
             wrap("simulate.simulate_extended", simulate.simulate_extended)),
            (simulate.write_trace_csv,
             wrap("simulate.write_trace_csv", simulate.write_trace_csv, rows)),
        ]

    @contextlib.contextmanager
    def installed(self):
        swaps = {id(orig): new for orig, new in self._replacements()}
        undo = []
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if id(val) in swaps:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, swaps[id(val)])
        try:
            yield self
        finally:
            for mod, attr, val in undo:
                setattr(mod, attr, val)


# (name, unit, span that must have run for the value to come from this tracer)
LAYER_METRICS = [
    ("sweep.enumerate_s", "s", "sweep.enumerate"),
    ("sweep.candidates", "count", "sweep.enumerate"),
    ("sweep.kept_ratio", "ratio", "sweep.enumerate"),
    ("sweep.eval_s_per_config", "s", "sweep.eval"),
    ("sweep.aggregate_self_s", "s", "sweep.run_sweep"),
    ("sweep.write_s", "s", "sweep.write_outputs"),
    ("sweep.parallel_efficiency", "ratio", "sweep.eval"),
    ("extended.exact.calls", "count", "extended.exact"),
    ("extended.exact.self_s", "s", "extended.exact"),
    ("extended.exact.terms", "count", "extended.exact"),
    ("extended.exact.terms_max", "count", "extended.exact"),
    ("extended.distribution.self_s", "s", "extended.distribution"),
    ("extended.distribution.values", "count", "extended.distribution"),
    ("extended.max_bound_prob.s", "s", "extended.max_bound_prob"),
    ("basic.decompose.s", "s", "basic.decompose"),
    ("basic.distribution.s", "s", "basic.distribution"),
    ("basic.distribution.values", "count", "basic.distribution"),
    ("kernels.sim_extended.s", "s", "kernels.sim_extended"),
    ("kernels.sim_extended.draws", "count", "kernels.sim_extended"),
    ("kernels.sim_extended.ns_per_draw", "ns", "kernels.sim_extended"),
    ("kernels.sim_extended.bytes_computed", "bytes", "kernels.sim_extended"),
    ("kernels.sim_extended.peak_alloc_bytes", "bytes", "kernels.sim_extended"),
    ("kernels.period_sums.s", "s", "kernels.period_sums"),
    ("kernels.period_sums.terms", "count", "kernels.period_sums"),
    ("simulate.simulate_extended.self_s", "s", "simulate.simulate_extended"),
    ("simulate.write_trace_csv.s", "s", "simulate.write_trace_csv"),
    ("simulate.write_trace_csv.rows", "count", "simulate.write_trace_csv"),
    ("simulate.write_trace_csv.bytes", "bytes", "simulate.write_trace_csv"),
    ("cli.main.self_s", "s", "cli.main"),
    ("cli.nonzero_exits", "count", "cli.main"),
]


def layer_values(t: Tracer) -> dict:
    """Every LAYER_METRICS value this tracer saw; layers it never reached are absent."""
    st, c = t.stats, t.counts
    eval_s = st["sweep.eval"].total
    values = {
        "sweep.enumerate_s": st["sweep.enumerate"].total,
        "sweep.candidates": c["sweep.candidates"],
        "sweep.kept_ratio": c["sweep.kept"] / max(1, c["sweep.candidates"]),
        "sweep.eval_s_per_config": eval_s / max(1, c["sweep.eval_configs"]),
        "sweep.aggregate_self_s": st["sweep.run_sweep"].self_s,
        "sweep.write_s": st["sweep.write_outputs"].total,
        # serial evaluation time / (jobs x evaluation wall time at jobs=nproc)
        "sweep.parallel_efficiency": (
            eval_s / (c["sweep.jobs"] * c["sweep.pool_s"]) if c["sweep.pool_s"] else None
        ),
        "extended.exact.calls": st["extended.exact"].calls,
        "extended.exact.self_s": st["extended.exact"].self_s,
        "extended.exact.terms": c["extended.exact.terms"],
        "extended.exact.terms_max": c["extended.exact.terms_max"],
        "extended.distribution.self_s": st["extended.distribution"].self_s,
        "extended.distribution.values": c["extended.distribution.values"],
        "extended.max_bound_prob.s": st["extended.max_bound_prob"].total,
        "basic.decompose.s": st["basic.decompose"].total,
        "basic.distribution.s": st["basic.distribution"].total,
        "basic.distribution.values": c["basic.distribution.values"],
        "kernels.sim_extended.s": st["kernels.sim_extended"].total,
        "kernels.sim_extended.draws": c["kernels.sim_extended.draws"],
        "kernels.sim_extended.ns_per_draw": (
            st["kernels.sim_extended"].total / max(1, c["kernels.sim_extended.draws"]) * 1e9
        ),
        "kernels.sim_extended.bytes_computed": c["kernels.sim_extended.bytes_computed"],
        "kernels.sim_extended.peak_alloc_bytes": c["kernels.sim_extended.peak_alloc_bytes"],
        "kernels.period_sums.s": st["kernels.period_sums"].total,
        "kernels.period_sums.terms": c["kernels.period_sums.terms"],
        "simulate.simulate_extended.self_s": st["simulate.simulate_extended"].self_s,
        "simulate.write_trace_csv.s": st["simulate.write_trace_csv"].total,
        "simulate.write_trace_csv.rows": c["simulate.write_trace_csv.rows"],
        "simulate.write_trace_csv.bytes": c["simulate.write_trace_csv.bytes"],
        "cli.main.self_s": st["cli.main"].self_s,
        "cli.nonzero_exits": c["cli.nonzero_exits"],
    }
    return {
        name: values[name]
        for name, _, span in LAYER_METRICS
        if st[span].calls and values[name] is not None
    }


# The five kernel shapes of the README's backend table, on the active backend.
KERNEL_SHAPES = [
    ("seq_basic_1e6", "seq_basic", (34, 7, 10, 0, 10**6)),
    ("seq_conditional_1e6", "seq_conditional", (34, 7, 10, 3, 5, 2, 0, 10**6)),
    ("period_sums_500", "period_sums_conditional", (34, 7, 10, 3, 5, 500, 35)),
    ("sim_basic_1e6", "sim_basic", (34, 7, 10, 10**6)),
    ("sim_extended_1e6", "sim_extended", (34, 7, 10, 3, 5, 1 << 52, 42, 10**6)),
]
KERNEL_REPEATS = 5


def kernel_shapes() -> dict:
    """Median seconds per call of each kernel shape, after one warm-up call."""
    import numpy as np

    impls = kernels.IMPLS[kernels.backend()]
    out = {}
    for label, name, args in KERNEL_SHAPES:
        fn = impls[name]
        if name == "sim_extended":
            args = args[:6] + (np.uint64(args[6]),) + args[7:]
        fn(*args)
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = perf_counter()
            fn(*args)
            times.append(perf_counter() - t0)
        out[f"kernels.shape.{label}.s"] = sorted(times)[KERNEL_REPEATS // 2]
    return out
