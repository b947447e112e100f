#!/usr/bin/env python
"""Benchmark: the batch routing engine against the scalar router.

Routes the full synthetic traffic suite over MFP regions on a sweep of
mesh sizes, once through the scalar per-message router and once through
the vectorized lockstep batch engine (``repro.routing.engine``), and
records per-configuration timings, ``messages_per_second`` and speedups.
The two engines must produce **bit-identical** ``RoutingStats``
aggregates; the benchmark refuses to report a speedup (and exits
non-zero) when any field differs.

The measurements are written as machine-readable JSON (schema
``repro.bench_routing/v1``).  ``--compare`` checks the stats fields of a
run against a previously committed reference -- the CI regression guard
re-runs the 100x100 configuration and compares it against
``benchmarks/results/BENCH_routing_engine.json`` (timings are
informational only and never compared).

Usage::

    PYTHONPATH=src python benchmarks/bench_routing_engine.py              # 100..300 sweep
    PYTHONPATH=src python benchmarks/bench_routing_engine.py \\
        --widths 24 --messages 300 --out /tmp/engine.json                 # CI smoke
    PYTHONPATH=src python benchmarks/bench_routing_engine.py --widths 100 \\
        --compare benchmarks/results/BENCH_routing_engine.json            # CI guard
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

SCHEMA = "repro.bench_routing/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_routing_engine.json"

#: RoutingStats fields that must be bit-identical between the engines.
STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


def stats_fields(stats) -> dict:
    fields = {field: getattr(stats, field) for field in STATS_FIELDS}
    # The effective array backend is part of the compared record: a
    # reference produced under one backend cannot silently pass the
    # ``--compare`` guard of a run under another.
    fields["array_backend"] = stats.backend
    return fields


def bench_pattern(
    session: MeshSession, traffic: str, messages: int, seed: int, repeats: int
) -> dict:
    """Time one traffic pattern through both engines (best of *repeats*)."""
    route = dict(traffic=traffic, messages=messages, seed=seed)
    # Warm every session cache (construction, router, rings, jump tables)
    # so both engines are timed on equal footing.
    scalar_stats = session.route("mfp", engine="scalar", **route)
    batch_stats = session.route("mfp", engine="batch", **route)
    timings = {}
    for engine in ("scalar", "batch"):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            session.route("mfp", engine=engine, **route)
            best = min(best, time.perf_counter() - start)
        timings[engine] = best
    identical = stats_fields(scalar_stats) == stats_fields(batch_stats)
    report = {
        "label": batch_stats.traffic,
        "messages": batch_stats.attempted,
        "delivery_rate": batch_stats.delivery_rate,
        "mean_detour": batch_stats.mean_detour,
        "scalar_seconds": timings["scalar"],
        "batch_seconds": timings["batch"],
        "scalar_messages_per_second": messages / timings["scalar"],
        "batch_messages_per_second": messages / timings["batch"],
        "speedup": timings["scalar"] / timings["batch"],
        "identical": identical,
        "stats": stats_fields(batch_stats),
    }
    print(
        f"{traffic:>18} scalar {timings['scalar'] * 1000:8.2f} ms   "
        f"batch {timings['batch'] * 1000:8.2f} ms   "
        f"speedup {report['speedup']:5.2f}x   "
        f"{report['batch_messages_per_second']:10.0f} msg/s   "
        f"identical {identical}"
    )
    return report


def bench_mesh(args, width: int) -> dict:
    num_faults = max(1, int(round(args.fault_fraction * width * width)))
    scenario = generate_scenario(
        num_faults=num_faults,
        width=width,
        model=args.distribution,
        seed=args.seed,
    )
    session = MeshSession.from_scenario(scenario)
    enabled = session.route("mfp", messages=0).enabled
    print(f"-- {width}x{width}: {scenario.describe()}, enabled endpoints {enabled}")
    patterns = {
        traffic: bench_pattern(session, traffic, args.messages, args.seed, args.repeats)
        for traffic in args.patterns
    }
    return {
        "width": width,
        "num_faults": num_faults,
        "enabled": enabled,
        "patterns": patterns,
    }


def compare_reference(payload: dict, reference_path: Path) -> int:
    """Assert stats fields match the committed reference (timings ignored)."""
    reference = json.loads(reference_path.read_text())
    mismatches = 0
    compared = 0
    for width, mesh in payload["meshes"].items():
        reference_mesh = reference.get("meshes", {}).get(width)
        if reference_mesh is None:
            continue
        for traffic, report in mesh["patterns"].items():
            expected = reference_mesh["patterns"].get(traffic)
            if expected is None:
                continue
            compared += 1
            if report["stats"] != expected["stats"]:
                mismatches += 1
                print(
                    f"STATS REGRESSION {width}x{width}/{traffic}: "
                    f"{report['stats']} != reference {expected['stats']}"
                )
    print(f"[compared {compared} configurations against {reference_path}]")
    if compared == 0:
        # A renamed key or a shrunk default must not switch the guard off.
        print(f"NO OVERLAP: none of this run's configurations are in {reference_path}")
        return 1
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--widths", type=int, nargs="+", default=[100, 200, 300],
        help="square mesh widths to sweep",
    )
    parser.add_argument("--messages", type=int, default=2000)
    parser.add_argument(
        "--fault-fraction", type=float, default=0.04,
        help="faults as a fraction of mesh nodes (0.04 matches the "
        "bench_traffic 100x100 / 400-fault scenario)",
    )
    parser.add_argument(
        "--distribution", choices=("random", "clustered"), default="clustered"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--patterns", nargs="+", default=None,
        help="traffic registry keys (default: every registered workload)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless every configuration reaches this batch speedup",
    )
    parser.add_argument(
        "--compare", type=Path, default=None,
        help="reference JSON whose stats fields this run must reproduce",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.compare is not None and not args.compare.is_file():
        parser.error(f"--compare reference {args.compare} does not exist")
    if args.patterns is None:
        args.patterns = list(traffic_keys())

    meshes = {str(width): bench_mesh(args, width) for width in args.widths}
    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "messages": args.messages,
            "fault_fraction": args.fault_fraction,
            "distribution": args.distribution,
            "seed": args.seed,
            "repeats": args.repeats,
            "construction": "mfp",
            "router": "extended-ecube",
        },
        "meshes": meshes,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {args.out}]")

    exit_code = 0
    for mesh in meshes.values():
        for traffic, report in mesh["patterns"].items():
            if not report["identical"]:
                print(
                    f"ENGINE MISMATCH at {mesh['width']}x{mesh['width']}/{traffic}: "
                    "batch stats differ from the scalar router"
                )
                exit_code = 1
            if args.min_speedup and report["speedup"] < args.min_speedup:
                print(
                    f"SPEEDUP BELOW TARGET at {mesh['width']}x{mesh['width']}/"
                    f"{traffic}: {report['speedup']:.2f}x < {args.min_speedup}x"
                )
                exit_code = 1
    if args.compare is not None and compare_reference(payload, args.compare):
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
