#!/usr/bin/env python
"""Benchmark: latency-vs-load saturation curves of the network simulator.

Replays open-loop Poisson traffic through the contention simulator of
``repro.netsim`` over a grid of offered loads, on fault-free and
clustered-fault meshes, and records the full latency/throughput statistics
per point: the classic saturation evaluation (flat hop-latency floor,
queueing rise, throughput knee) the paper's contention-free statistics
cannot produce.  Each scenario additionally runs the whole spatial traffic
suite at one moderate load, once through the vectorised array simulator
and once through the scalar dict-based oracle; the two must be
**bit-identical** (witnessed by ``NetSimStats.delivery_fingerprint``) and
the benchmark exits non-zero when any run disagrees.

The measurements are written as machine-readable JSON (schema
``repro.bench_saturation/v1``).  ``--compare`` checks the integer fields
and delivery fingerprints of a run against a previously committed
reference -- the CI regression guard re-runs the 16x16 scenarios and
compares them against ``benchmarks/results/BENCH_saturation.json``
(timings are informational only and never compared).  ``--require-knee``
additionally asserts the curve shape: every curve monotone over its
non-deadlocked points, and at least one clustered scenario crossing a
throughput knee (stable -> saturated with rising latency).

Usage::

    PYTHONPATH=src python benchmarks/bench_saturation.py                  # 16 + 32 reference
    PYTHONPATH=src python benchmarks/bench_saturation.py \\
        --widths 8 --clustered-faults 4 --loads 0.02 0.08 \\
        --cycles 64 --out /tmp/saturation.json                            # CI smoke
    PYTHONPATH=src python benchmarks/bench_saturation.py --widths 16 \\
        --clustered-faults 10 --require-knee \\
        --compare benchmarks/results/BENCH_saturation.json               # CI guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

from repro.api import MeshSession, traffic_keys
from repro.faults.scenario import generate_scenario
from repro.netsim import simulator_keys

SCHEMA = "repro.bench_saturation/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_saturation.json"

#: NetSimStats fields that must be bit-identical between simulators and
#: against the committed reference (all integers/bools -- JSON-exact).
STATS_FIELDS = (
    "attempted",
    "unroutable",
    "delivered",
    "in_flight",
    "total_latency",
    "total_queueing",
    "total_hops",
    "cycles_run",
    "saturated",
    "deadlocked",
)


def stats_fields(stats) -> dict:
    fields = {field: getattr(stats, field) for field in STATS_FIELDS}
    # The effective array backend is part of the compared record: a
    # reference produced under one backend cannot silently pass the
    # ``--compare`` guard of a run under another.
    fields["array_backend"] = stats.backend
    return fields


def spatial_patterns() -> list:
    """Every registered spatial workload (the arrival processes excluded)."""
    from repro.routing.traffic import ArrivalOptions, get_traffic

    return [
        key
        for key in traffic_keys()
        if not issubclass(get_traffic(key).options_type, ArrivalOptions)
    ]


def point_report(stats) -> dict:
    return {
        "fields": stats_fields(stats),
        "fingerprint": stats.delivery_fingerprint,
        "mean_latency": stats.mean_latency,
        "mean_queueing": stats.mean_queueing,
        "accepted_load": stats.accepted_load,
    }


def bench_pattern(session, traffic, args, run_oracle: bool) -> dict:
    """One spatial pattern at the moderate pattern load, both simulators."""
    kwargs = dict(
        traffic=traffic,
        arrival=args.arrival,
        load=args.pattern_load,
        cycles=args.cycles,
        seed=args.seed,
        drain_factor=args.drain_factor,
    )
    start = time.perf_counter()
    array_stats = session.simulate("mfp", sim="array", **kwargs)
    array_seconds = time.perf_counter() - start
    report = point_report(array_stats)
    report["array_seconds"] = array_seconds
    identical = True
    if run_oracle:
        start = time.perf_counter()
        scalar_stats = session.simulate("mfp", sim="scalar", **kwargs)
        scalar_seconds = time.perf_counter() - start
        identical = (
            array_stats.delivery_fingerprint == scalar_stats.delivery_fingerprint
            and stats_fields(array_stats) == stats_fields(scalar_stats)
            and np.array_equal(array_stats.busy, scalar_stats.busy)
        )
        report["scalar_seconds"] = scalar_seconds
        report["speedup"] = scalar_seconds / array_seconds
    report["identical"] = identical
    oracle_note = (
        f"   oracle {'ok' if identical else 'MISMATCH'}" if run_oracle else ""
    )
    state = (
        "deadlock" if array_stats.deadlocked
        else "saturated" if array_stats.saturated else "stable"
    )
    print(
        f"  {traffic:>18} delivered {array_stats.delivered:6d}/"
        f"{array_stats.attempted:<6d} latency {array_stats.mean_latency:8.2f} "
        f"[{state}]{oracle_note}"
    )
    return report


def curve_checks(curve: list) -> dict:
    """Shape verdicts of one latency-vs-load curve.

    ``monotone`` ignores deadlocked points: a deadlocked run stops early
    and only counts the quick deliveries, so its mean latency is not
    comparable.  The knee is the first saturated load; ``knee_rising``
    asserts the latency actually climbed across it.
    """
    live = [p for p in curve if not p["fields"]["deadlocked"]]
    latencies = [p["mean_latency"] for p in live]
    monotone = all(a <= b + 1e-9 for a, b in zip(latencies, latencies[1:]))
    knee_load = None
    knee_rising = False
    stable_latency = None
    for point in curve:
        if point["fields"]["saturated"]:
            knee_load = point["load"]
            knee_rising = (
                stable_latency is not None
                and point["mean_latency"] > stable_latency
            )
            break
        stable_latency = point["mean_latency"]
    return {"monotone": monotone, "knee_load": knee_load, "knee_rising": knee_rising}


def bench_scenario(args, width: int, num_faults: int) -> dict:
    distribution = "fault-free" if num_faults == 0 else "clustered"
    if num_faults:
        scenario = generate_scenario(
            num_faults=num_faults,
            width=width,
            model="clustered",
            seed=args.scenario_seed,
        )
        session = MeshSession.from_scenario(scenario)
    else:
        session = MeshSession(width=width)
    run_oracle = width <= args.oracle_width
    probe = session.simulate(
        "mfp", load=args.loads[0], cycles=1, seed=args.seed, messages=0
    )
    print(
        f"-- {width}x{width} {distribution} ({num_faults} faults, "
        f"{probe.enabled} enabled endpoints)"
    )
    patterns = {
        traffic: bench_pattern(session, traffic, args, run_oracle)
        for traffic in args.patterns
    }
    curve = []
    for load in args.loads:
        start = time.perf_counter()
        stats = session.simulate(
            "mfp",
            traffic="uniform",
            arrival=args.arrival,
            load=load,
            cycles=args.cycles,
            seed=args.seed,
            drain_factor=args.drain_factor,
            sim="array",
        )
        point = point_report(stats)
        point["load"] = load
        point["array_seconds"] = time.perf_counter() - start
        curve.append(point)
        print(
            f"  load {load:7.4f} latency {stats.mean_latency:8.2f} "
            f"(queue {stats.mean_queueing:6.2f}) accepted {stats.accepted_load:7.4f} "
            f"[{'deadlock' if stats.deadlocked else 'saturated' if stats.saturated else 'stable'}]"
        )
    checks = curve_checks(curve)
    print(
        f"  curve: monotone={checks['monotone']} knee_load={checks['knee_load']} "
        f"knee_rising={checks['knee_rising']}"
    )
    return {
        "width": width,
        "num_faults": num_faults,
        "distribution": distribution,
        "enabled": probe.enabled,
        "patterns": patterns,
        "curve": curve,
        **checks,
    }


def compare_reference(payload: dict, reference_path: Path) -> int:
    """Assert fields + fingerprints match the reference (timings ignored)."""
    reference = json.loads(reference_path.read_text())
    mismatches = 0
    compared = 0
    for key, scenario in payload["scenarios"].items():
        expected_scenario = reference.get("scenarios", {}).get(key)
        if expected_scenario is None:
            continue
        for traffic, report in scenario["patterns"].items():
            expected = expected_scenario["patterns"].get(traffic)
            if expected is None:
                continue
            compared += 1
            if (
                report["fields"] != expected["fields"]
                or report["fingerprint"] != expected["fingerprint"]
            ):
                mismatches += 1
                print(f"STATS REGRESSION {key}/{traffic}: {report['fields']} "
                      f"!= reference {expected['fields']}")
        expected_curve = {
            f"{p['load']:g}": p for p in expected_scenario.get("curve", [])
        }
        for point in scenario["curve"]:
            expected = expected_curve.get(f"{point['load']:g}")
            if expected is None:
                continue
            compared += 1
            if (
                point["fields"] != expected["fields"]
                or point["fingerprint"] != expected["fingerprint"]
            ):
                mismatches += 1
                print(f"CURVE REGRESSION {key} @ load {point['load']:g}: "
                      f"{point['fields']} != reference {expected['fields']}")
    print(f"[compared {compared} configurations against {reference_path}]")
    if compared == 0:
        # A renamed key or a shrunk default must not switch the guard off.
        print(f"NO OVERLAP: none of this run's configurations are in {reference_path}")
        return 1
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--widths", type=int, nargs="+", default=[16, 32],
        help="square mesh widths to sweep",
    )
    parser.add_argument(
        "--clustered-faults", type=int, nargs="+", default=None,
        help="clustered fault count per width (aligned with --widths; "
        "default 10 at 16x16, 12 at 32x32, else ~4%% of nodes); every "
        "width also runs fault-free",
    )
    parser.add_argument(
        "--loads", type=float, nargs="+",
        default=[0.01, 0.02, 0.04, 0.08, 0.16],
        help="offered loads of the saturation curve (messages/node/cycle)",
    )
    parser.add_argument(
        "--pattern-load", type=float, default=0.02,
        help="moderate load of the per-pattern differential runs",
    )
    parser.add_argument("--cycles", type=int, default=256)
    parser.add_argument("--drain-factor", type=int, default=8)
    parser.add_argument("--arrival", choices=("poisson", "bursty"), default="poisson")
    parser.add_argument("--seed", type=int, default=7, help="traffic seed")
    parser.add_argument(
        "--scenario-seed", type=int, default=1, help="fault-pattern seed"
    )
    parser.add_argument(
        "--oracle-width", type=int, default=16,
        help="run the scalar oracle (and the bit-identity check) on meshes "
        "up to this width",
    )
    parser.add_argument(
        "--patterns", nargs="+", default=None,
        help="spatial traffic registry keys (default: the whole suite)",
    )
    parser.add_argument(
        "--require-knee", action="store_true",
        help="fail unless every curve is monotone and at least one "
        "clustered scenario crosses a rising throughput knee",
    )
    parser.add_argument(
        "--compare", type=Path, default=None,
        help="reference JSON whose fields/fingerprints this run must reproduce",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.compare is not None and not args.compare.is_file():
        parser.error(f"--compare reference {args.compare} does not exist")
    if args.patterns is None:
        args.patterns = spatial_patterns()
    if args.clustered_faults is None:
        defaults = {16: 10, 32: 12}
        args.clustered_faults = [
            defaults.get(width, max(1, round(0.04 * width * width)))
            for width in args.widths
        ]
    if len(args.clustered_faults) != len(args.widths):
        parser.error("--clustered-faults needs one entry per --widths entry")

    scenarios = {}
    for width, num_faults in zip(args.widths, args.clustered_faults):
        for faults in (0, num_faults):
            key = f"{width}x{width}/{'fault-free' if faults == 0 else 'clustered'}"
            scenarios[key] = bench_scenario(args, width, faults)
    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "loads": args.loads,
            "pattern_load": args.pattern_load,
            "cycles": args.cycles,
            "drain_factor": args.drain_factor,
            "arrival": args.arrival,
            "seed": args.seed,
            "scenario_seed": args.scenario_seed,
            "construction": "mfp",
            "router": "extended-ecube",
            "simulators": list(simulator_keys()),
        },
        "scenarios": scenarios,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {args.out}]")

    exit_code = 0
    for key, scenario in scenarios.items():
        for traffic, report in scenario["patterns"].items():
            if not report["identical"]:
                print(f"SIMULATOR MISMATCH at {key}/{traffic}: array delivery "
                      "times differ from the scalar oracle")
                exit_code = 1
    if args.require_knee:
        for key, scenario in scenarios.items():
            if not scenario["monotone"]:
                print(f"CURVE NOT MONOTONE at {key}")
                exit_code = 1
        clustered = [s for s in scenarios.values() if s["distribution"] == "clustered"]
        if clustered and not any(s["knee_rising"] for s in clustered):
            print("NO THROUGHPUT KNEE on any clustered scenario")
            exit_code = 1
    if args.compare is not None and compare_reference(payload, args.compare):
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
