"""aoiclock benchmark: four workloads, end-to-end metrics, per-layer traces.

One workload:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

All four, untraced and traced, with a results file:
    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from the repository root.  The program is imported from ``src/``; no
install step is needed.  The last line of a single-workload run is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are expressed at a fixed host speed (see
hostclock.py); the ``detail:`` line before the result also holds them raw.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NAMES = ("sweep-grid", "montecarlo", "analyze", "trace-export")
SETUP_PROBES = 7

# Workload-specific names of the generic throughput and latency metrics.
ALIASES = {
    "sweep-grid": {"throughput_per_s": "sweep_configs_per_s"},
    "montecarlo": {"throughput_per_s": "mc_reads_per_s"},
    "analyze": {"latency_p50_ms": "analyze_p50_ms", "latency_p90_ms": "analyze_p90_ms"},
    "trace-export": {"throughput_per_s": "export_rows_per_s"},
}


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not (SRC / "aoiclock" / "__init__.py").is_file():
        _die(f"no aoiclock sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hostclock
    import layers
    import workloads

    return workloads, layers, hostclock


def _work_dir() -> Path:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def _setup_probe(name: str, seed: int) -> None:
    """Child side of a setup measurement: get ready, say so, then time the
    reference loop on the host speed this process saw, and exit."""
    workloads, _, hostclock = _load_program()
    work = _work_dir()
    try:
        workloads.WORKLOADS[name](seed, work).setup()
        print("ready", flush=True)
        print(hostclock.reference_s(), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure_setup(name: str, seed: int, ref_s: float) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready, for fresh processes: raw, and
    scaled to the reference speed ``ref_s`` by the probe's own reference time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            _die(f"setup probe for {name} failed (exit {proc.returncode})")
        raw.append(ready - t0)
        scaled.append(raw[-1] * ref_s / float(rest))
    return raw, scaled


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _untraced(wl, seconds: float):
    """The workload's fixed number of passes for ``seconds``, with a host
    clock sample after each, so that the last operation is bracketed."""
    passes = []
    for k in range(wl.passes(seconds)):
        passes.append(wl.run_pass(k))
        wl.clock.sample()
    return passes


def _summary(passes):
    ops = [dt for p in passes for dt in p.op_s]
    reasons = {}
    for p in passes:
        for r, c in p.reasons.items():
            reasons[r] = reasons.get(r, 0) + c
    problems = [msg for p in passes for msg in p.problems]
    return ops, reasons, problems


def run_one(name: str, seed: int, seconds: int, traced: bool) -> dict:
    workloads, layers, hostclock = _load_program()
    setup = None if traced else _measure_setup(name, seed, hostclock.REF_S)
    work = _work_dir()
    raw = {}
    try:
        wl = workloads.WORKLOADS[name](seed, work)
        wl.setup()
        if traced:
            untraced = wl.run_pass(0)
            tracer = layers.Tracer()
            traced_pass, traced_wall = wl.run_traced(0, tracer)
            metrics, minis = _layer_metrics(workloads, layers, name, seed, work, tracer)
            passes = [untraced, traced_pass, *minis]
            metrics["trace.overhead_s"] = (traced_wall - untraced.wall_s, "s")
        else:
            passes = _untraced(wl, seconds)
            raw = _e2e_metrics(workloads, passes, setup[0], _unscaled)
            metrics = _e2e_metrics(workloads, passes, setup[1], wl.clock.scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _check_spec(metrics, traced)

    ops, reasons, problems = _summary(passes)
    failed = sum(p.failed for p in passes)
    detail = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "machine": workloads.machine_facts(),
        "passes": len(passes),
        "operations": len(ops),
        "items": sum(p.items for p in passes),
        "failed_ratio": failed / len(ops),
        "failure_reasons": reasons,
        "check_failures": problems[:20],
    }
    if setup:
        detail["setup_samples_s"] = setup[0]
        detail["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
        ref = wl.clock.ref_s
        detail["reference_loop_s"] = {"n": len(ref), "min": min(ref), "median": statistics.median(ref),
                                      "max": max(ref)}
    return {
        "detail": detail,
        "result": {
            "correct": not problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _unscaled(t0: float, t1: float) -> float:
    return 1.0


def _e2e_metrics(workloads, passes, setup, scale) -> dict:
    """End-to-end metrics, each operation's time multiplied by ``scale(t0, t1)``."""
    walls, ops = [], []
    for p in passes:
        times = [dt * scale(t0, t0 + dt) for t0, dt in zip(p.op_t0, p.op_s)]
        walls.append(sum(times))
        ops += times
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "throughput_per_s": (sum(p.items for p in passes) / sum(walls), "1/s"),
        "latency_p50_ms": (workloads.percentile(ops, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (workloads.percentile(ops, 0.9) * 1e3, "ms"),
    }


def _layer_metrics(workloads, layers, name, seed, work, tracer):
    """Layers the workload reached come from its traced pass; the rest from
    one traced pass of each other workload at a small size."""
    values = layers.layer_values(tracer)
    fallback = layers.Tracer()
    minis = [
        workloads.WORKLOADS[other](seed, work, mini=True).run_traced(0, fallback)[0]
        for other in NAMES
        if other != name
    ]
    for k, v in layers.layer_values(fallback).items():
        values.setdefault(k, v)
    units = {n: u for n, u, _ in layers.LAYER_METRICS}
    metrics = {n: (values[n], units[n]) for n, _, _ in layers.LAYER_METRICS}
    metrics.update({n: (v, "s") for n, v in layers.kernel_shapes().items()})
    return metrics, minis


def _check_spec(metrics: dict, traced: bool) -> None:
    """The metrics and units must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        _die(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")


def _print_run(out: dict) -> None:
    detail, result = out["detail"], out["result"]
    aliases = ALIASES[detail["workload"]]
    for k, m in result["metrics"].items():
        alias = f"  ({aliases[k]})" if k in aliases else ""
        print(f"{detail['workload']:>12}  {k:<40} {m['value']:>16.6g} {m['unit']}{alias}")
    print(f"{detail['workload']:>12}  {'failed_ratio':<40} {detail['failed_ratio']:>16.6g} "
          f"({result['failed']}/{result['attempted']})")
    print("detail: " + json.dumps(detail, sort_keys=True))


def run_all(seed: int, seconds: int, out_path: Path) -> int:
    """Every workload untraced then traced, each in its own process."""
    results = {}
    correct = True
    for name in NAMES:
        results[name] = {}
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.rstrip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                _die(f"{name} --trace {traced} exited {proc.returncode}")
            print("\n".join(lines[:-2]))
            detail = json.loads(lines[-2].removeprefix("detail: "))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            results[name]["per_layer" if traced else "end_to_end"] = result["metrics"]
            results[name]["traced" if traced else "untraced"] = {
                **{k: result[k] for k in ("correct", "attempted", "failed")}, **detail}
    machine = results[NAMES[0]]["untraced"]["machine"]
    doc = {"machine": machine, "seed": seed, "seconds": seconds, "aliases": ALIASES,
           "workloads": results}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"machine: {json.dumps(machine)}")
    print(f"all checks {'passed' if correct else 'FAILED'}; wrote {out_path}")
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, write --out")
    ap.add_argument("--out", type=Path, default=ROOT / "bench" / "results" / "latest.json")
    ap.add_argument("--setup-probe", choices=NAMES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe, args.seed)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if not args.workload:
        ap.error("--workload or --all is required")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_run(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
