#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

Runs ``perfbench/run.py`` once per seed on each workload (sequentially,
each in its own process) and prints, per metric, the median, the
quartiles and the quartile spread as a share of the median, next to a
third of the metric's bound from ``BENCHMARK.json``.  Usage::

    python3 perfbench/spread.py --workloads netsim-load --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/out/set1.json

``--out`` keeps the raw values, so two sets can be compared with
``--compare earlier.json``: each metric's median shift is shown as a
share of the earlier median, next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    child = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    values: dict = {}
    for workload in args.workloads:
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    worst = 0.0
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            line = (
                f"{workload:>15} {name:<17} median {median:12.6g}  "
                f"spread {spread:6.3f}  (bound/3 {bounds[name] / 3:.3f})"
            )
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            before = earlier.get(workload, {}).get(name)
            if before:
                base = statistics.median(before)
                shift = (median - base) / base
                worse = shift if better[name] == "lower" else -shift
                line += f"  worse-by {worse:+.3f} (bound {bounds[name]:.2f})"
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
