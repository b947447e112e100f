#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root; no install step, the library is
imported from ``src/``)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` runs the workload untraced and reports its end-to-end
metrics.  ``--trace 1`` runs it twice on half the operations each, first
untraced and then with every layer's entry points wrapped
(:mod:`perfbench.layers`), and reports the per-layer metrics plus the
tracing overhead (the traced throughput's shortfall against the untraced
one).  ``--workload all`` runs each workload in its own fresh process.

Every run checks the workload's outputs.  Human-readable lines go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (sample
counts, digests, failure notes) and the traced run's spans are written
under ``perfbench/out/``.  Exit status: 0 when every check passed, 1 when
a check failed (the result is still printed), 2 when the library source
is missing or the arguments are wrong (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Stop starting operations this long after the process starts, or after
#: this many times a phase's nominal length (plus time for its set-ups),
#: so a run ends inside a 180-second limit even on a badly slowed program.
OP_DEADLINE_S = 140.0
PHASE_STRETCH = 3.0
SETUP_ALLOWANCE_S = 15.0

#: End-to-end metrics (name -> unit); every workload reports every one.
END_TO_END = {
    "throughput_per_s": "ops/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
WORKLOAD_NAMES = ("paper-sweep", "route-serve", "netsim-load", "campaign-sweep")


def calibrate_ms() -> float:
    """Median time of a fixed pure-Python loop: the host-speed witness."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workloads, name, seed, seconds, tracer, deadline):
    """Run one workload phase; checks run untraced, after the timing."""
    run = workloads.WORKLOADS[name]
    deadline = min(deadline, time.perf_counter() + PHASE_STRETCH * seconds + SETUP_ALLOWANCE_S)
    if name == "campaign-sweep":
        phase = run(seed, seconds, tracer, deadline, root=OUT_DIR / "campaigns")
    else:
        phase = run(seed, seconds, tracer, deadline)
    phase.peak_rss_mib = peak_rss_mib()
    return phase


def finish_checks(phase) -> None:
    for check in phase.deferred:
        phase.problems.extend(check())
    phase.deferred.clear()


def remember_digest(key: str, digest: str) -> str:
    """Compare *digest* with the one an earlier run stored under *key*."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    earlier = known.setdefault(key, digest)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    staged = path.with_suffix(".tmp")
    staged.write_text(json.dumps(known, indent=1, sort_keys=True))
    staged.replace(path)
    return earlier


def end_to_end(phase) -> dict:
    values = dict(phase.metrics)
    values["setup_s"] = statistics.median(phase.setup_s)
    values["peak_rss_mib"] = phase.peak_rss_mib
    return {metric: values[metric] for metric in END_TO_END if metric in values}


def run_workload(args) -> int:
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads
    from perfbench.trace import NullTracer, Tracer

    deadline = started + OP_DEADLINE_S
    calib_before = calibrate_ms()
    phases = []
    if not args.trace:
        phase = run_phase(workloads, args.workload, args.seed, args.seconds, NullTracer(), deadline)
        finish_checks(phase)
        phases.append(("untraced", phase))
        metrics = end_to_end(phase)
        units = END_TO_END
    else:
        half = args.seconds / 2
        base = run_phase(workloads, args.workload, args.seed, half, NullTracer(), deadline)
        finish_checks(base)
        tracer = Tracer()
        traced_start = time.perf_counter()
        layers.install(tracer)
        try:
            traced = run_phase(workloads, args.workload, args.seed, half, tracer, deadline)
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - traced_start
        finish_checks(traced)
        if traced.digest != base.digest:
            traced.problems.append("traced outputs differ from the untraced run's")
        phases += [("untraced", base), ("traced", traced)]
        metrics = layers.metrics(tracer, wall, traced.counters)
        metrics["py.gc_gen2"] = traced.gc_gen2
        untraced_rate = base.metrics["throughput_per_s"]
        metrics["trace.overhead_pct"] = (
            100.0 * (untraced_rate - traced.metrics["throughput_per_s"]) / untraced_rate
        )
        units = dict(layers.PER_LAYER)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        phase = traced
    calib_after = calibrate_ms()
    if args.trace:
        metrics["host.calib_ms"] = (calib_before + calib_after) / 2
    metrics = {name: metrics[name] for name in units if name in metrics}

    key = f"{args.workload} seed={args.seed} seconds={args.seconds / (2 if args.trace else 1):g}"
    earlier = remember_digest(key, phases[0][1].digest)
    if earlier != phases[0][1].digest:
        phase.problems.append(f"output digest differs from an earlier run with the same seed ({key})")
    missing = [m for m in units if m not in metrics]
    problems = [p for _, ph in phases for p in ph.problems]
    problems += [f"metric {m} could not be measured" for m in missing]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_calib_ms": {"before": calib_before, "after": calib_after},
        "phases": {
            label: {
                "attempted": ph.attempted,
                "failed": ph.failed,
                "wall_s": ph.wall_s,
                "op_seconds": ph.op_seconds,
                "setup_s": ph.setup_s,
                "metrics": ph.metrics,
                "samples": ph.samples,
                "digest": ph.digest,
                "notes": ph.notes,
                "series": ph.series,
                "problems": ph.problems,
            }
            for label, ph in phases
        },
        "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{phase.attempted} ops attempted, {phase.failed} failed, "
        f"timed phase {phase.wall_s:.2f} s"
    )
    for name, value in metrics.items():
        samples = phase.samples.get(name)
        suffix = f"  ({samples} samples)" if samples and not args.trace else ""
        print(f"  {name:<28} {value:>16.6g} {units[name]}{suffix}")
    if not args.trace:
        # Workload-specific figures (route-serve's tail and mutation
        # latency, campaign-sweep's resume time): printed and kept in the
        # report, but not in the result line, which holds only the metrics
        # every workload reports.
        for name, value in phase.metrics.items():
            if name not in metrics:
                samples = phase.samples.get(name)
                suffix = f"  ({samples} samples)" if samples else ""
                print(f"  also {name:<23} {value:>16.6g} s{suffix}")
    for key_, value in sorted(phase.notes.items()):
        print(f"  note {key_}: {value}")
    print(f"  host.calib_ms before {calib_before:.3f} after {calib_after:.3f}")
    print(f"  digest {phase.digest}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if child.returncode not in (0, 1):
            return child.returncode
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="run length; sizes each workload's fixed operation count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
