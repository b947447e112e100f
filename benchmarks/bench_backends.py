#!/usr/bin/env python
"""Benchmark: the array backends against each other on the hot primitives.

Sweeps every measurable backend of :mod:`repro._array_ops` (``numpy``,
``numba`` when installed, the uncompiled ``loops`` reference) over the
three hot workloads the facade dispatches: a 1000x1000 component
labelling + orthogonal-convex-hull round, a 10^6-message batch-routing
run, and a 64x64 open-loop netsim round.  All backends must be
**bit-identical** -- the benchmark refuses to report a speedup (and exits
non-zero) when any backend's results differ from the numpy baseline.

JIT warm-up is excluded by construction: every backend runs each workload
once (compiling numba kernels, priming session caches) before the timed
best-of-``--repeats`` passes.  Backends whose dependencies are missing
(numba/cupy on this machine) are recorded in the payload's
``unavailable`` block instead of being silently re-measured as numpy --
the committed JSON says exactly which implementations actually ran.

The measurements are written as machine-readable JSON (schema
``repro.bench_backends/v1``).  ``--compare`` checks the result fields of
a run against a previously committed reference (timings are
informational only and never compared).

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py                     # full run
    PYTHONPATH=src python benchmarks/bench_backends.py \\
        --mask-width 128 --messages 5000 --netsim-cycles 32 \\
        --out /tmp/backends.json                                           # CI smoke
    PYTHONPATH=src python benchmarks/bench_backends.py --mask-width 128 \\
        --messages 5000 --netsim-cycles 32 \\
        --compare benchmarks/results/BENCH_backends.json                   # CI guard
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

from repro import _array_ops
from repro.api import MeshSession
from repro.faults.scenario import generate_scenario

SCHEMA = "repro.bench_backends/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_backends.json"

#: RoutingStats fields that must be bit-identical across backends.
STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def bench_labelling_hull(args, backends) -> dict:
    """One labelling + hull round over a random ``--mask-width`` sq. mask."""
    rng = np.random.default_rng(args.seed)
    mask = rng.random((args.mask_width, args.mask_width)) < args.fill
    reports = {}
    for key in backends:
        ops = _array_ops.get_backend(key).ops()

        def round_trip(ops=ops):
            labels, count = ops.label_components(mask, 4)
            return labels, count, ops.hull_fixpoint(mask)

        labels, count, hull = round_trip()  # warm-up: JIT compile, caches
        seconds = _best_of(args.repeats, round_trip)
        reports[key] = {
            "effective": ops.key,
            "seconds": seconds,
            "stats": {"components": int(count), "hull_cells": int(hull.sum())},
            "_labels": labels,
            "_hull": hull,
        }
    base = reports["numpy"]
    for report in reports.values():
        report["identical"] = bool(
            np.array_equal(report["_labels"], base["_labels"])
            and np.array_equal(report["_hull"], base["_hull"])
            and report["stats"] == base["stats"]
        )
    for report in reports.values():
        report.pop("_labels")
        report.pop("_hull")
        report["speedup_vs_numpy"] = base["seconds"] / report["seconds"]
    return {
        "label": f"{args.mask_width}x{args.mask_width} labelling + hull fixpoint",
        "backends": reports,
    }


def bench_batch_routing(args, backends) -> dict:
    """One ``--messages``-message batch-routing run on a 100x100 mesh."""
    scenario = generate_scenario(
        num_faults=args.route_faults, width=args.route_width, seed=args.seed
    )
    session = MeshSession.from_scenario(scenario)
    reports = {}
    for key in backends:
        route = dict(
            traffic="uniform",
            messages=args.messages,
            seed=args.seed,
            engine="batch",
            backend=key,
        )
        # Warm-up: compile the backend's kernels and prime the session
        # caches (construction, router, rings, jump tables).
        warm = session.route("mfp", **{**route, "messages": min(args.messages, 1000)})
        seconds = _best_of(args.repeats, lambda: session.route("mfp", **route))
        stats = session.route("mfp", **route)
        reports[key] = {
            "effective": warm.backend,
            "seconds": seconds,
            "messages_per_second": args.messages / seconds,
            "stats": {field: getattr(stats, field) for field in STATS_FIELDS},
        }
    base = reports["numpy"]
    for report in reports.values():
        report["identical"] = report["stats"] == base["stats"]
        report["speedup_vs_numpy"] = base["seconds"] / report["seconds"]
    return {
        "label": (
            f"{args.messages} uniform messages, batch engine, "
            f"{args.route_width}x{args.route_width} mesh, "
            f"{args.route_faults} faults"
        ),
        "backends": reports,
    }


def bench_netsim_round(args, backends) -> dict:
    """One open-loop contention round on a ``--netsim-width`` sq. mesh."""
    scenario = generate_scenario(
        num_faults=args.netsim_faults, width=args.netsim_width, seed=args.seed
    )
    session = MeshSession.from_scenario(scenario)
    reports = {}
    for key in backends:
        simulate = dict(
            load=args.netsim_load,
            cycles=args.netsim_cycles,
            seed=args.seed,
            backend=key,
        )
        warm = session.simulate("mfp", **simulate)  # warm-up (JIT + caches)
        seconds = _best_of(args.repeats, lambda: session.simulate("mfp", **simulate))
        reports[key] = {
            "effective": warm.backend,
            "seconds": seconds,
            "stats": {
                "attempted": warm.attempted,
                "delivered": warm.delivered,
                "total_latency": warm.total_latency,
                "cycles_run": warm.cycles_run,
                "fingerprint": warm.delivery_fingerprint,
            },
        }
    base = reports["numpy"]
    for report in reports.values():
        report["identical"] = report["stats"] == base["stats"]
        report["speedup_vs_numpy"] = base["seconds"] / report["seconds"]
    return {
        "label": (
            f"{args.netsim_width}x{args.netsim_width} netsim round, "
            f"load {args.netsim_load}, {args.netsim_cycles} cycles"
        ),
        "backends": reports,
    }


def compare_reference(payload: dict, reference_path: Path) -> int:
    """Assert result fields match the committed reference (timings ignored)."""
    reference = json.loads(reference_path.read_text())
    mismatches = 0
    compared = 0
    for name, workload in payload["workloads"].items():
        reference_workload = reference.get("workloads", {}).get(name)
        if reference_workload is None:
            continue
        for backend, report in workload["backends"].items():
            expected = reference_workload["backends"].get(backend)
            if expected is None:
                continue
            compared += 1
            if report["stats"] != expected["stats"]:
                mismatches += 1
                print(
                    f"STATS REGRESSION {name}/{backend}: "
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
        "--backends", nargs="+", default=None,
        help="backend registry keys to measure (default: every backend "
        "whose own implementation can run here)",
    )
    parser.add_argument("--mask-width", type=int, default=1000)
    parser.add_argument(
        "--fill", type=float, default=0.3, help="mask occupancy fraction"
    )
    parser.add_argument("--messages", type=int, default=1_000_000)
    parser.add_argument("--route-width", type=int, default=100)
    parser.add_argument("--route-faults", type=int, default=400)
    parser.add_argument("--netsim-width", type=int, default=64)
    parser.add_argument("--netsim-faults", type=int, default=120)
    parser.add_argument("--netsim-load", type=float, default=0.05)
    parser.add_argument("--netsim-cycles", type=int, default=128)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--min-numba-speedup", type=float, default=None,
        help="fail unless the numba backend (when measurable) reaches this "
        "speedup over numpy on every workload",
    )
    parser.add_argument(
        "--compare", type=Path, default=None,
        help="reference JSON whose result fields this run must reproduce",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.compare is not None and not args.compare.is_file():
        parser.error(f"--compare reference {args.compare} does not exist")

    status = _array_ops.backend_status()
    if args.backends is None:
        # Measure backends that run their own implementation; re-timing a
        # fallen-back backend would just measure numpy twice and lie about
        # the label.
        args.backends = [
            key
            for key in _array_ops.backend_keys()
            if _array_ops.get_backend(key).ops().key == key
        ]
    unavailable = {
        key: {
            "available": False,
            "effective": _array_ops.get_backend(key).ops().key,
        }
        for key in _array_ops.backend_keys()
        if key not in args.backends
    }
    print(f"measuring backends: {', '.join(args.backends)}")
    if unavailable:
        print(f"not measurable here (fall back to numpy): {', '.join(unavailable)}")

    workloads = {}
    for name, bench in (
        ("labelling_hull", bench_labelling_hull),
        ("batch_routing", bench_batch_routing),
        ("netsim_round", bench_netsim_round),
    ):
        workload = bench(args, args.backends)
        workloads[name] = workload
        print(f"-- {name}: {workload['label']}")
        for backend, report in workload["backends"].items():
            print(
                f"{backend:>8} {report['seconds'] * 1000:10.2f} ms   "
                f"vs numpy {report['speedup_vs_numpy']:6.2f}x   "
                f"identical {report['identical']}"
            )

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend_status": status,
        "measured": list(args.backends),
        "unavailable": unavailable,
        "config": {
            "mask_width": args.mask_width,
            "fill": args.fill,
            "messages": args.messages,
            "route_width": args.route_width,
            "route_faults": args.route_faults,
            "netsim_width": args.netsim_width,
            "netsim_faults": args.netsim_faults,
            "netsim_load": args.netsim_load,
            "netsim_cycles": args.netsim_cycles,
            "seed": args.seed,
            "repeats": args.repeats,
        },
        "workloads": workloads,
    }
    if not status.get("numba", False):
        payload["notes"] = (
            "numba is not installed in this environment: the numba backend "
            "falls back to the numpy ops and cannot be measured; the loops "
            "timings show the exact kernels numba would JIT, interpreted."
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {args.out}]")

    exit_code = 0
    for name, workload in workloads.items():
        for backend, report in workload["backends"].items():
            if not report["identical"]:
                print(
                    f"BACKEND MISMATCH at {name}/{backend}: results differ "
                    "from the numpy baseline"
                )
                exit_code = 1
            if (
                args.min_numba_speedup
                and backend == "numba"
                and report["effective"] == "numba"
                and report["speedup_vs_numpy"] < args.min_numba_speedup
            ):
                print(
                    f"SPEEDUP BELOW TARGET at {name}/numba: "
                    f"{report['speedup_vs_numpy']:.2f}x < {args.min_numba_speedup}x"
                )
                exit_code = 1
    if args.compare is not None and compare_reference(payload, args.compare):
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
