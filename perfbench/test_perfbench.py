"""Tests of the benchmark itself: failure accounting, tracing, the contract.

Run from the repository root::

    python3 -m pytest perfbench -q

Failures are injected by wrapping a public library function so that it
raises; no test relies on a live defect of the library.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.api as api  # noqa: E402
import repro.api.executor as executor  # noqa: E402
import repro.faults as faults  # noqa: E402
from repro.serve.daemon import RouteDaemon  # noqa: E402
from repro.serve.protocol import E_BAD_PAIR, ProtocolError  # noqa: E402

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.trace import NullTracer, Tracer  # noqa: E402

FAR = time.perf_counter() + 3600.0


def test_paper_sweep_counts_a_raising_trial_and_continues(monkeypatch, tmp_path):
    plan = workloads.paper_plan(seed=5, seconds=1)
    original = api.run_trial

    def flaky(spec):
        if spec == plan[3]:
            raise RuntimeError("injected")
        return original(spec)

    monkeypatch.setattr(api, "run_trial", flaky)
    phase = workloads.paper_sweep(5, 1, NullTracer(), FAR)
    run.finish_checks(phase)
    assert (phase.attempted, phase.failed) == (len(plan), 1)
    assert phase.problems == []


def test_netsim_load_counts_raising_and_deadlocked_trials(monkeypatch):
    seeds = [faults.derive_trial_seed(9, 0, 3, trial) for trial in range(3)]
    original = faults.generate_scenario

    def flaky(*args, seed=0, **kwargs):
        if seed == seeds[1]:
            raise RuntimeError("injected")
        return original(*args, seed=seed, **kwargs)

    monkeypatch.setattr(faults, "generate_scenario", flaky)
    phase = workloads.netsim_load(9, 3 / workloads.NETSIM_TRIALS_PER_S, NullTracer(), FAR)
    run.finish_checks(phase)
    assert phase.attempted == 3
    unhealthy = [
        workloads.netsim_trial(seed)
        for seed in (seeds[0], seeds[2])
    ]
    expected = 1 + sum(s.deadlocked or s.in_flight > 0 for s in unhealthy)
    assert phase.failed == expected
    assert phase.problems == []


def test_route_serve_counts_error_responses(monkeypatch):
    original = RouteDaemon._parse_pairs
    warm_up = [0, 0, workloads.SERVE_WIDTH - 1, workloads.SERVE_WIDTH - 1]
    timed = {"requests": 0}

    def flaky(self, payload):
        if payload["pairs"][0] != warm_up:
            timed["requests"] += 1
            if timed["requests"] == 17:
                raise ProtocolError(E_BAD_PAIR, "injected")
        return original(self, payload)

    monkeypatch.setattr(RouteDaemon, "_parse_pairs", flaky)
    phase = workloads.route_serve(3, 0.2, NullTracer(), FAR)
    run.finish_checks(phase)
    requests = max(workloads.SERVE_CLIENTS, round(0.2 * workloads.SERVE_REQUESTS_PER_S))
    assert phase.failed == 1
    assert phase.attempted == requests + phase.notes["mutations"]
    assert phase.problems == []


def test_route_serve_churn_is_the_serving_benchmarks_mix():
    source = importlib.util.spec_from_file_location("bench_serve", ROOT / "benchmarks" / "bench_serve.py")
    bench_serve = importlib.util.module_from_spec(source)
    source.loader.exec_module(bench_serve)
    expected = [
        ("repair" if kind == "remove" else kind, [tuple(node) for node in nodes])
        for kind, nodes in bench_serve.churn_events(workloads.SERVE_WIDTH, 30, 5)
    ]
    assert workloads.serve_churn(5, 30) == expected
    assert [kind for kind, _ in expected].count("add") == 20


def test_campaign_sweep_counts_an_aborted_campaign(monkeypatch, tmp_path):
    original = executor.run_trial
    # Campaign base seeds are seed * 1000 + index: fail the second one.
    doomed_seeds = {d.seed for d in workloads.campaign_spec(2 * 1000 + 1).iter_plan()}

    def flaky(spec):
        if spec.seed in doomed_seeds:
            raise RuntimeError("injected")
        return original(spec)

    monkeypatch.setattr(executor, "run_trial", flaky)
    phase = workloads.campaign_sweep(2, 2 / workloads.CAMPAIGN_PER_S, NullTracer(), FAR, root=tmp_path)
    run.finish_checks(phase)
    assert (phase.attempted, phase.failed) == (2, 1)
    assert "failed permanently" in phase.notes["errors"][0]
    assert phase.problems == []


def test_tracer_self_times_cover_the_wall_and_uninstall_restores():
    import repro.netsim.session as netsim_session

    original = netsim_session.build_plan
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert netsim_session.build_plan is not original
        start = time.perf_counter()
        with tracer.span("campaign.outer"):
            with tracer.span("faults.inner"):
                time.sleep(0.01)
            time.sleep(0.01)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert netsim_session.build_plan is original
    per_layer = tracer.layer_self_seconds(wall)
    assert per_layer["faults"] == pytest.approx(0.01, abs=0.005)
    assert per_layer["campaign"] == pytest.approx(0.01, abs=0.005)
    assert sum(per_layer.values()) == pytest.approx(wall, rel=1e-6)
    assert [span[3] for span in tracer.spans] == [-1, 0]


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )


def test_traced_run_reports_every_per_layer_metric():
    child = _run("--workload", "netsim-load", "--seed", "4", "--seconds", "1.5", "--trace", "1")
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in layers.PER_LAYER}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric_and_every_setup(workload):
    child = _run("--workload", workload, "--seed", "4", "--seconds", "1.5", "--trace", "0")
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == run.END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    report = json.loads((run.OUT_DIR / f"{workload}-seed4-trace0.json").read_text())
    setups = report["phases"]["untraced"]["setup_s"]
    assert len(setups) == workloads.SETUP_REPEATS


def test_fails_without_printing_when_the_library_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = _run("--workload", "paper-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert child.returncode not in (0, 1)
    assert child.stdout == ""
