"""The four benchmark workloads: seeded inputs, one pass, output checks.

Every workload has the same shape.  ``setup()`` builds the first inputs and
makes one warm-up call; ``run_pass(k)`` runs pass ``k`` and returns a
``PassResult``.  Pass ``k`` draws fresh inputs from ``(seed, k)``, so the
same seed always gives the same inputs, and no pass can profit from a cache
filled by an earlier one.  Inputs are stratified (a fixed number of draws
from each cost class) so that one pass costs about the same under every seed.

A pass times each operation on its own: one ``aoiclock sweep`` call, one
Monte Carlo study (the whole pass), one ``analyze`` call, one ``simulate``
call.  Before each
operation the workload's ``HostClock`` may time its reference loop, so that
run.py can express operation times at a fixed host speed.  The
benchmark's own checks of the outputs run outside those timings, except in
montecarlo, where the checks (exact expectation, probabilistic bound) are
program calls and part of the study.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, sqrt
from pathlib import Path
from time import perf_counter

import numpy as np

import aoiclock
from aoiclock import cli
from hostclock import HostClock

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_GRID = ROOT / "src" / "aoiclock" / "grids" / "default.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    """What one pass did: per-operation start times and latencies, work
    items, failures.

    ``failed`` counts operations that exited non-zero or raised; ``reasons``
    keeps their first error line.  ``problems`` lists failed output checks.
    """

    op_t0: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def absorb(self, other: "PassResult") -> None:
        self.op_t0 += other.op_t0
        self.op_s += other.op_s
        self.items += other.items
        self.failed += other.failed
        self.reasons.update(other.reasons)
        self.problems += other.problems

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)


def call_cli(argv):
    """Run ``aoiclock.cli.main(argv)`` in process; returns rc, stdout, stderr,
    start time and seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed call, not a crash
        rc = "exception"
        err.write(f"{type(exc).__name__}: {exc}\n")
    return rc, out.getvalue(), err.getvalue(), t0, perf_counter() - t0


def _count_call(res: PassResult, rc, err: str, t0: float, dt: float, items: int) -> bool:
    res.op_t0.append(t0)
    res.op_s.append(dt)
    if rc == 0:
        res.items += items
        return True
    res.failed += 1
    lines = err.strip().splitlines()
    status = f"exit {rc}" if isinstance(rc, int) else rc
    res.reasons[f"{status}: {lines[-1] if lines else ''}"[:200]] += 1
    return False


def coprime_triples(limit: int):
    """All period triples in [1, limit]^3 with triple gcd 1, as the tests build them."""
    return [
        (ap, bp, np_)
        for ap in range(1, limit + 1)
        for bp in range(1, limit + 1)
        for np_ in range(1, limit + 1)
        if gcd(gcd(ap, bp), np_) == 1
    ]


_TRIPLES_21 = coprime_triples(21)
# A'/N' sets the simulator's cost and memory (transmissions per read), so
# Monte Carlo inputs come from three fixed ratio classes.
STRATA = {
    "low": [t for t in _TRIPLES_21 if t[0] < t[2]],
    "mid": [t for t in _TRIPLES_21 if t[0] == 3 * t[2]],
    "high": [t for t in _TRIPLES_21 if t[0] == 13 * t[2]],
}


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    # Nominal seconds of one pass, checks included; a run of S seconds makes
    # round(S / PASS_S) passes, so the same seed always makes the same calls.
    PASS_S = 1.0

    def __init__(self, seed: int, work: Path, mini: bool = False):
        self.seed = seed
        self.work = work
        self.mini = mini
        self.clock = HostClock()

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.PASS_S))

    def cli(self, argv):
        self.clock.tick()
        return call_cli(argv)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int) -> PassResult:
        raise NotImplementedError

    def run_traced(self, k: int, tracer) -> tuple[PassResult, float]:
        """One pass with ``tracer`` installed; returns it and its comparable wall time."""
        with tracer.installed():
            res = self.run_pass(k)
        return res, res.wall_s


class SweepGridWorkload(Workload):
    """The bundled grid through ``aoiclock sweep --jobs nproc``, as users run it."""

    name = "sweep-grid"
    PASS_S = 4.5
    # the bundled grid's known size: candidates walked, configs evaluated
    EXPECT = (157_464, 11_178)
    MINI_GRID = {"A": "2..7", "B": "2..7", "N": "2..7", "p": ["1/2"]}

    def __init__(self, seed, work, mini=False):
        super().__init__(seed, work, mini)
        if mini:
            self.grid = work / "mini_grid.json"
            self.grid.write_text(json.dumps(self.MINI_GRID))
        else:
            self.grid = DEFAULT_GRID
        self.digest = None

    def setup(self):
        grid = aoiclock.SweepGrid.from_json(self.grid)
        configs = aoiclock.enumerate_configs(grid)
        aoiclock.expected_exact_extended(configs[0])

    def run_pass(self, k, jobs=None):
        jobs = jobs or nproc()
        res = PassResult()
        out = self.work / f"sweep{k}-j{jobs}"
        argv = ["sweep", "--grid", str(self.grid), "--out", str(out), "--jobs", str(jobs)]
        rc, stdout, err, t0, dt = self.cli(argv)
        if _count_call(res, rc, err, t0, dt, 0):
            res.items = self._check(stdout, out, res.problems)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def run_traced(self, k, tracer):
        # Workers keep their spans, so per-layer times come from a jobs=1
        # pass; the jobs=nproc pass gives the pool time and the wall time
        # that the untraced pass is compared with.
        par = type(tracer)()
        with par.installed():
            res = self.run_pass(k)
        with tracer.installed():
            serial = self.run_pass(k, jobs=1)
        tracer.counts["sweep.jobs"] = nproc()
        tracer.counts["sweep.pool_s"] = par.stats["sweep.pool"].total
        wall = res.wall_s
        res.absorb(serial)
        return res, wall

    def _check(self, stdout: str, out: Path, problems: list) -> int:
        fields = dict(
            tok.split("=", 1) for line in stdout.splitlines() for tok in line.split() if "=" in tok
        )
        candidates, evaluated = int(fields["candidates"]), int(fields["evaluated"])
        if not self.mini and (candidates, evaluated) != self.EXPECT:
            problems.append(f"sweep: candidates/evaluated {candidates}/{evaluated} != {self.EXPECT}")
        if fields["bound_violations"] != "0":
            problems.append(f"sweep: bound_violations={fields['bound_violations']}")
        rows = [
            line.split(",") for line in (out / "global.csv").read_text().splitlines()[1:]
        ]
        total = sum(int(r[2]) for r in rows)
        if total != evaluated:
            problems.append(f"sweep: global.csv holds {total} configs, stdout says {evaluated}")
        if not self.mini:
            # AC10 envelope of the bundled grid
            mean = float(fields["mean_error"])
            inside = sum(
                int(c) for lo, hi, c in rows if float(lo) >= -0.14 - 1e-12 and float(hi) <= 0.06 + 1e-12
            )
            if not -0.08 <= mean <= 0.0:
                problems.append(f"sweep: mean_error {mean} outside [-0.08, 0]")
            if inside < 0.95 * total:
                problems.append(f"sweep: {inside}/{total} of mass in [-0.14, 0.06], below 95%")
        # outputs are byte-identical across passes and across --jobs
        digest = _digest(out.iterdir())
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("sweep: outputs differ between passes")
        return evaluated


class MonteCarloWorkload(Workload):
    """AC8-shaped study: 10^6-read simulations checked against the exact mean."""

    name = "montecarlo"
    PASS_S = 4.5
    PS = ("1/5", "1/2", "4/5")
    SIGMAS = (Fraction(9, 10), Fraction(99, 100))
    # Runs are checked under fresh seeds thousands of times, so a 3-SE bar
    # would fail about one run in 370 by chance; 5 SE keeps false alarms
    # rare and still flags any real bias in the simulator, the formula or
    # the probabilistic bound.
    Z_MAX = 5.0
    BATCHES = 200

    def __init__(self, seed, work, mini=False):
        super().__init__(seed, work, mini)
        self.reads = 10**5 if mini else 10**6

    def runs(self, k):
        """(config, simulation seed) pairs of pass k: one config per ratio class, each p."""
        rng = _rng(self.name, self.seed, k)
        strata = ("mid",) if self.mini else ("low", "mid", "high")
        ps = self.PS[1:2] if self.mini else self.PS
        out = []
        for stratum in strata:
            triples = STRATA[stratum]
            if stratum == "mid":
                # N' cycles through 1..7 with the pass: the same mid mix under every seed
                triples = [t for t in triples if t[2] == 1 + k % 7]
            d = aoiclock.decompose(*rng.choice(triples))
            delta_b, delta_n = rng.randrange(21), rng.randrange(21)
            for p in ps:
                cfg = aoiclock.SystemConfig(d, delta_b, delta_n, Fraction(p))
                out.append((cfg, rng.getrandbits(64)))
        return out

    def setup(self):
        cfg, s = self.runs(0)[0]
        aoiclock.simulate_extended(cfg, 1000, aoiclock.RngSpec(s))
        aoiclock.expected_exact_extended(cfg)

    def run_pass(self, k):
        """One operation: the pass's whole study, a run for each config and p.

        Runs fall into cost classes (A'/N' and p), so percentiles over single
        runs sit between classes and jump with the seed; the time of a whole
        study does not.  The host clock samples between runs, off the clock.
        """
        res = PassResult()
        runs = self.runs(k)
        t0, busy, problems, rc, err = perf_counter(), 0.0, [], 0, ""
        for cfg, s in runs:
            self.clock.tick()
            t = perf_counter()
            try:
                problems += self._study(cfg, s)
            except Exception as exc:  # a run that raises fails the study, not the benchmark
                rc, err = "exception", f"{type(exc).__name__}: {exc}"
            busy += perf_counter() - t
            if rc != 0:
                break
        if _count_call(res, rc, err, t0, busy, self.reads * len(runs)):
            res.problems += problems
        return res

    def _study(self, cfg, s) -> list:
        tr = aoiclock.simulate_extended(cfg, self.reads, aoiclock.RngSpec(s))
        ages = tr.ages[tr.warmup_cycles :]
        n = len(ages)
        batches = ages[: self.BATCHES * (n // self.BATCHES)].reshape(self.BATCHES, -1)
        se = float(batches.mean(axis=1).std(ddof=1)) / sqrt(self.BATCHES)
        mean = Fraction(int(ages.sum()), n)
        ge = aoiclock.expected_exact_extended(cfg)
        lo, hi = ge.value, ge.value + ge.tail_bound
        # Distance from the certified interval in standard errors.  A trace
        # whose age never varied (a failure run long enough to matter is
        # rarer than one in 10^6 reads) has se == 0 and no z to test.
        z = float(max(lo - mean, mean - hi, 0)) / se if se > 0 else 0.0
        tag = f"montecarlo {cfg.d.a_period},{cfg.d.b_period},{cfg.d.n_period} p={cfg.p} seed={s}"
        problems = []
        if z > self.Z_MAX:
            problems.append(f"{tag}: mean {float(mean)} is {z:.2f} SE from [{float(lo)}, {float(hi)}]")
        for sigma in self.SIGMAS:
            # Reads within one failure run exceed together, so the tolerance
            # takes its standard error from batch means, not from n reads.
            bound = aoiclock.max_bound_prob(cfg, sigma)
            frac = int((ages > bound).sum()) / n
            over = (batches > bound).mean(axis=1)
            allow = float(1 - sigma) + self.Z_MAX * float(over.std(ddof=1)) / sqrt(self.BATCHES)
            if frac > allow:
                problems.append(f"{tag}: {frac} of reads exceed the sigma={sigma} bound, allowed {allow}")
        return problems


def _periods_for_hyperperiod(rng: random.Random, target: int):
    """Pairwise-coprime periods whose hyperperiod B*N is close to ``target``."""
    a_period = rng.choice((7, 11, 13, 17, 19, 23))
    b = max(2, round(sqrt(target) * rng.uniform(0.8, 1.25)))
    while b % a_period == 0:
        b += 1
    n = max(2, round(target / b))
    while gcd(b, n) != 1 or n % a_period == 0:
        n += 1
    return a_period, b, n


class AnalyzeWorkload(Workload):
    """In-process ``aoiclock analyze`` calls, one third from each cost class.

    - series: extended, small periods, p = 1/q with q log-spread over [10, 300];
    - expansion: extended, p = 1, hyperperiods log-spread over [1e4, 1e6] reads;
    - basic: basic model, hyperperiods log-spread over [1e4, 1e6] reads.
    """

    name = "analyze"
    PASS_S = 2.0
    PER_CLASS = 20

    def calls(self, k):
        rng = _rng(self.name, self.seed, k)
        per = 1 if self.mini else self.PER_CLASS
        span = 0.3 if self.mini else 1.0
        out = []
        for j in range(per):
            u = (j + rng.random()) / per * span
            ap, bp, np_ = rng.choice(_TRIPLES_21)
            q = round(10 * 30**u)
            out.append(self._argv("extended", ap, bp, np_, rng, f"1/{q}"))
            ap, bp, np_ = _periods_for_hyperperiod(rng, round(1e4 * 100**u))
            out.append(self._argv("extended", ap, bp, np_, rng, "1"))
            ap, bp, np_ = _periods_for_hyperperiod(rng, round(1e4 * 100**u))
            out.append(self._argv("basic", ap, bp, np_, rng))
        return out

    @staticmethod
    def _argv(model, ap, bp, np_, rng, p=None):
        argv = ["analyze", "--model", model, "--a-period", str(ap), "--b-period", str(bp),
                "--n-period", str(np_)]
        if model == "extended":
            argv += ["--delta-b", str(rng.randrange(21)), "--delta-n", str(rng.randrange(21)),
                     "--p", p, "--sigma", "99/100"]
        return argv

    def setup(self):
        call_cli(self.calls(0)[0])

    def run_pass(self, k):
        res = PassResult()
        for argv in self.calls(k):
            rc, out, err, t0, dt = self.cli(argv)
            if _count_call(res, rc, err, t0, dt, 1):
                problem = self._check(argv, out)
                if problem:
                    res.problems.append(problem)
        return res

    @staticmethod
    def _check(argv, out):
        try:
            rep = json.loads(out)
            band = rep["band"]
            center, half = Fraction(band["center"]), Fraction(band["half_width"])
            if rep["config"]["model"] == "extended":
                lo = Fraction(rep["expectation"]["value"])
                hi = lo + Fraction(rep["expectation"]["tail_bound"])
                ok = lo <= center + half and hi >= center - half
            else:
                exact = Fraction(rep["expected_exact"])
                ok = center - half <= exact <= center + half
        except (ValueError, KeyError, TypeError) as exc:
            return f"{' '.join(argv)}: unreadable output ({exc})"
        if not ok:
            return f"{' '.join(argv)}: exact value outside the band"
        return None


class TraceExportWorkload(Workload):
    """In-process ``aoiclock simulate --model extended --cycles 1e5 --out FILE`` calls.

    10^5 cycles rather than 10^6: the call has the same cost structure, and a
    run makes enough calls that its p90 has ten calls beyond it.
    """

    name = "trace-export"
    PASS_S = 0.18

    def __init__(self, seed, work, mini=False):
        super().__init__(seed, work, mini)
        self.cycles = 10**4 if mini else 10**5

    def argv(self, k, cycles, out):
        """Pass k's call.  A' = 3N'; N' in 1..7 and p cycle through a fixed
        schedule, so every run has the same cost mix; the seed draws B',
        the phase shifts and the simulation seed."""
        rng = _rng(self.name, self.seed, k)
        ps = MonteCarloWorkload.PS
        np_ = 1 + k % 7
        ap = 3 * np_
        bp = rng.choice([b for b in range(1, 22) if gcd(b, np_) == 1])
        return ["simulate", "--model", "extended", "--a-period", str(ap), "--b-period", str(bp),
                "--n-period", str(np_), "--delta-b", str(rng.randrange(21)),
                "--delta-n", str(rng.randrange(21)), "--p", ps[k // 7 % len(ps)],
                "--cycles", str(cycles), "--seed", str(rng.getrandbits(63)), "--out", str(out)]

    def setup(self):
        out = self.work / "warmup.csv"
        call_cli(self.argv(0, 1000, out))
        out.unlink(missing_ok=True)

    def run_pass(self, k):
        res = PassResult()
        out = self.work / f"trace{k}.csv"
        rc, _, err, t0, dt = self.cli(self.argv(k, self.cycles, out))
        if _count_call(res, rc, err, t0, dt, self.cycles):
            problem = self._check(out, err)
            if problem:
                res.problems.append(problem)
        out.unlink(missing_ok=True)
        return res

    def _check(self, path: Path, err: str):
        summary = dict(tok.split("=", 1) for tok in err.split() if "=" in tok)
        warm = int(summary["warmup"])
        with open(path) as fh:
            header = fh.readline()
            if header != "k,t,age,l\n":
                return f"trace-export: header {header!r}"
            for k in range(warm):
                if not fh.readline().endswith(",,\n"):
                    return f"trace-export: warm-up row {k} has an age"
            rows = np.loadtxt(fh, delimiter=",", usecols=(0, 2), dtype=np.int64, ndmin=2)
        if warm + len(rows) != self.cycles or int(summary["cycles"]) != self.cycles:
            return f"trace-export: {warm + len(rows)} rows for {self.cycles} cycles"
        if len(rows) and not np.array_equal(rows[:, 0], np.arange(warm, self.cycles)):
            return "trace-export: row indices are not consecutive"
        mean = f"{float(Fraction(int(rows[:, 1].sum()), len(rows))):.6f}" if len(rows) else None
        if mean != summary.get("mean"):
            return f"trace-export: file mean {mean} != summary {summary.get('mean')}"
        return None


WORKLOADS = {
    w.name: w
    for w in (SweepGridWorkload, MonteCarloWorkload, AnalyzeWorkload, TraceExportWorkload)
}


def machine_facts() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": aoiclock.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile, as the sweep summary computes it."""
    srt = sorted(xs)
    return srt[max(0, math.ceil(q * len(srt)) - 1)]
