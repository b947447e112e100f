"""The four benchmark workloads.

Each workload turns ``(seed, seconds)`` into a fixed list of operations,
sets up several times (the median is ``setup_s``), runs the operations
as its timed phase, and checks the outputs afterwards, outside the timed
phase.  The operation count is derived from ``seconds`` through a
nominal rate, never from the clock, so the same seed and length always
attempt -- and fail -- exactly the same operations.

An operation fails when it raises, when the daemon answers with an error,
when a netsim trial deadlocks or leaves messages undelivered, or when a
campaign aborts.  Failed operations are counted and the run continues.

Times are calibrated for the host's speed: every timed stretch is
bracketed by a host probe (a fixed pure-Python loop) and scaled by
``PROBE_REF_S`` over the probe's time.  The shared 2-vCPU host this
benchmark was built on runs everything 1.6-1.8 times slower for stretches
of up to minutes; calibrated times stay put across them, and a change to
the library moves them exactly as it moves wall times on a quiet host.
Raw wall-clock values are kept in each phase's notes and series.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro.api as api
import repro.faults as faults
from repro.campaign import CampaignRunner, CampaignSpec
from repro.serve import InProcessClient, RouteDaemon

from perfbench.trace import NullTracer

#: Set-up repetitions per phase; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: The host-speed probe: a fixed pure-Python loop of this many iterations,
#: timed before and after every operation and set-up.
PROBE_LOOPS = 30_000
#: The probe's time on the reference host: the 2-vCPU x86-64 VM this
#: benchmark was built on, in its fast state (the probe's 5th percentile
#: there; the slow state takes 2.4-2.6 ms).  Every reported time is in
#: seconds of that host: a raw duration times ``PROBE_REF_S`` over the
#: mean of the probes around it.
PROBE_REF_S = 0.0017
#: Seed of every set-up's warm-up input.  Set-up does the same work on
#: every seed, so ``setup_s`` follows the code, not the drawn inputs.
WARMUP_SEED = 20_040_426


@dataclass
class Phase:
    """What one timed phase of a workload measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: Peak RSS right after the timed phase, before any check runs.
    peak_rss_mib: float = 0.0
    #: Seconds from the first operation's start to the last one's end.
    wall_s: float = 0.0
    #: Each operation's calibrated duration, in plan order.
    op_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics other than ``setup_s`` and ``peak_rss_mib``, and
    #: the workload's own figures that only it reports (printed, not in
    #: the result line).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind each quantile metric.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Output-check failures (empty when every check passed).
    problems: List[str] = field(default_factory=list)
    #: Checks that call back into the library; run untraced, after timing.
    deferred: List[Callable[[], List[str]]] = field(default_factory=list)
    #: Digest of the outputs that must repeat for the same seed.
    digest: str = ""
    #: Generation-2 collections during the timed operations (set-up and
    #: its forced collections excluded).
    gc_gen2: int = 0
    #: Per-layer counters the program keeps itself (the daemon's stats).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Extra facts for the report (failure breakdowns and the like).
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Raw per-event series, written to the report only.
    series: Dict[str, List[float]] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _quantile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def gc_gen2() -> int:
    return gc.get_stats()[2]["collections"]


def probe_s() -> float:
    """Time one run of the host-speed probe, a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value % 7
    return time.perf_counter() - start


def _scale(before: float, after: float) -> float:
    """Reference-host seconds per second, from the probes around a stretch."""
    return PROBE_REF_S * 2.0 / (before + after)


def repeat_setup(setup: Callable[[], Any], repeats: int = SETUP_REPEATS) -> Tuple[Any, List[float]]:
    """Run *setup* several times; keep the last state and every duration.

    Durations are calibrated (see ``PROBE_REF_S``) by probes around each.
    """
    seconds = []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        before = probe_s()
        start = time.perf_counter()
        state = setup()
        elapsed = time.perf_counter() - start
        seconds.append(elapsed * _scale(before, probe_s()))
    gc.collect()
    return state, seconds


def _serial(
    ops: Sequence[Any],
    run_op: Callable[[Any], Tuple[Any, bool]],
    tracer: Any,
    deadline: float,
    setup_s: List[float],
) -> Tuple[Phase, List[Any]]:
    """Run *ops* back to back as the timed phase; returns it and the results.

    An op returns ``(result, ok)`` or raises; a raising op leaves its
    exception as its result.  The host probe runs before the first op and
    after each one, and the phase's throughput is over the ops' calibrated
    times.  No op starts after *deadline* (a safety stop that keeps a
    pathologically slow program inside the run limit).
    """
    results: List[Any] = []
    durations: List[float] = []
    probes = [probe_s()]
    failed = 0
    collections = gc_gen2()
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if time.perf_counter() > deadline:
            break
        tracer.op = index
        start = time.perf_counter()
        try:
            result, ok = run_op(op)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            result, ok = exc, False
        durations.append(time.perf_counter() - start)
        results.append(result)
        failed += not ok
        probes.append(probe_s())
    tracer.op = None
    wall = time.perf_counter() - started
    scales = [_scale(before, after) for before, after in zip(probes, probes[1:])]
    phase = Phase(
        setup_s=setup_s,
        wall_s=wall,
        op_seconds=[duration * scale for duration, scale in zip(durations, scales)],
        attempted=len(results),
        failed=failed,
        gc_gen2=gc_gen2() - collections,
    )
    phase.metrics["throughput_per_s"] = len(results) / sum(phase.op_seconds)
    phase.metrics["latency_p50_s"] = _quantile(phase.op_seconds, 0.5)
    phase.samples = {"latency_p50_s": len(results)}
    phase.notes["raw"] = {
        "throughput_per_s": len(results) / wall,
        "latency_p50_s": _quantile(durations, 0.5),
    }
    phase.series = {"raw_op_s": durations, "scale": scales}
    return phase, results


# -- paper-sweep ----------------------------------------------------------------------

PAPER_WIDTH = 100
PAPER_COUNTS = tuple(range(100, 900, 100))
PAPER_DISTRIBUTIONS = ("random", "clustered")
#: Sweep passes (16 trials each) per second of run length.
PAPER_PASSES_PER_S = 0.7
#: Trials per pass: every (distribution, fault count) once.
PAPER_PASS = len(PAPER_COUNTS) * len(PAPER_DISTRIBUTIONS)


def paper_plan(seed: int, seconds: float) -> List[api.TrialSpec]:
    """Whole passes over the Figures 9-11 grid, seeded as the sweeps are."""
    passes = max(1, round(seconds * PAPER_PASSES_PER_S))
    return [
        api.TrialSpec(
            num_faults=count,
            seed=faults.derive_trial_seed(seed, index, passes, trial),
            width=PAPER_WIDTH,
            distribution=distribution,
        )
        for trial in range(passes)
        for distribution in PAPER_DISTRIBUTIONS
        for index, count in enumerate(PAPER_COUNTS)
    ]


def _trial_record(metrics) -> Dict[str, Any]:
    return {
        "faults": metrics.num_faults,
        "distribution": metrics.distribution,
        "seed": metrics.seed,
        "models": {
            label: [row.num_regions, row.disabled_nonfaulty, row.mean_region_size, row.rounds]
            for label, row in metrics.per_model.items()
        },
    }


def _check_paper_trial(spec, metrics, keys: Sequence[str] = ("fb", "fp", "mfp", "dmfp")) -> List[str]:
    """Rebuild one trial's constructions: DMFP must disable MFP's exact set.

    With every key, each model's metrics must also repeat the timed run's.
    """
    scenario = faults.generate_scenario(
        spec.num_faults, spec.width, model=spec.distribution, seed=spec.seed
    )
    built = {key: api.get_construction(key).build(scenario) for key in keys}
    problems = []
    where = f"{spec.distribution} {spec.num_faults} faults seed {spec.seed}"
    if built["dmfp"].disabled_set() != built["mfp"].disabled_set():
        problems.append(f"paper-sweep: DMFP disabled set differs from MFP's ({where})")
    if len(keys) < 4:
        return problems
    rows = {"FB": "fb", "FP": "fp", "MFP": "mfp", "CMFP": "mfp", "DMFP": "dmfp"}
    for label, key in rows.items():
        expected = built[key].metrics(num_faults=spec.num_faults, label=label)
        if metrics.per_model.get(label) != expected:
            problems.append(f"paper-sweep: {label} metrics did not repeat ({where})")
    return problems


def paper_sweep(seed: int, seconds: float, tracer: Any, deadline: float) -> Phase:
    """Section 4's experiment: scenario plus FB/FP/MFP/CMFP/DMFP per trial."""
    warmup = api.TrialSpec(num_faults=PAPER_COUNTS[0], seed=WARMUP_SEED, distribution="clustered")

    def setup():
        plan = paper_plan(seed, seconds)
        api.run_trial(warmup)
        return plan

    plan, setup_s = repeat_setup(setup)

    def run_op(spec):
        return api.run_trial(spec), True

    phase, results = _serial(plan, run_op, tracer, deadline, setup_s)
    records = []
    for spec, metrics in zip(plan, results):
        if isinstance(metrics, Exception):
            records.append({"seed": spec.seed, "error": repr(metrics)})
            continue
        records.append(_trial_record(metrics))
        disabled = {label: row.disabled_nonfaulty for label, row in metrics.per_model.items()}
        if not disabled["MFP"] <= disabled["FP"] <= disabled["FB"]:
            phase.problems.append(
                f"paper-sweep: disabled MFP {disabled['MFP']} <= FP {disabled['FP']} "
                f"<= FB {disabled['FB']} fails (seed {spec.seed})"
            )
        if disabled["DMFP"] != disabled["MFP"]:
            phase.problems.append(f"paper-sweep: DMFP disables {disabled['DMFP']}, MFP {disabled['MFP']}")
    # Every trial's DMFP and MFP disabled sets are compared; the first
    # pass also re-checks every model's metrics.
    for index, (spec, metrics) in enumerate(zip(plan, results)):
        if not isinstance(metrics, Exception):
            keys = ("fb", "fp", "mfp", "dmfp") if index < PAPER_PASS else ("mfp", "dmfp")
            phase.deferred.append(
                lambda spec=spec, metrics=metrics, keys=keys: _check_paper_trial(spec, metrics, keys)
            )
    phase.digest = _digest(records)
    phase.notes["errors"] = [r["error"] for r in records if "error" in r][:5]
    return phase


# -- route-serve ----------------------------------------------------------------------

#: The serving scenario of the repository's serving benchmark (deltas config).
SERVE_WIDTH = 100
SERVE_FAULTS = 800
SERVE_SCENARIO_SEED = 7
SERVE_CLIENTS = 64
SERVE_PAIRS = 32
#: One mutation per this many completed route requests.
SERVE_READS_PER_WRITE = 64
#: Route requests per second of run length.
SERVE_REQUESTS_PER_S = 550
#: Completed requests per host probe (each blocks the loop ~2 ms; that
#: time is left out of every metric), and probes per rolling median of the
#: host speed.
SERVE_PROBE_EVERY = 32
SERVE_PROBE_SMOOTHING = 5
#: ``latency_p99_s`` is the median of the 99th percentiles of this many
#: consecutive windows of completed requests (about 1 100 each at
#: ``--seconds 20``): a short stall of the host inflates the tail of one
#: window, not the metric, while a tail the program makes shows in every
#: window.
SERVE_TAIL_WINDOWS = 10
#: Every this-many-th response is kept and re-routed by the output check.
SERVE_SAMPLE_EVERY = 128


def serve_scenario():
    return faults.generate_scenario(
        SERVE_FAULTS, SERVE_WIDTH, model="clustered", seed=SERVE_SCENARIO_SEED
    )


def _serve_setup() -> Tuple[RouteDaemon, Any]:
    scenario = serve_scenario()
    daemon = RouteDaemon(scenario=scenario)
    warm = [[0, 0, SERVE_WIDTH - 1, SERVE_WIDTH - 1]] * SERVE_PAIRS
    asyncio.run(InProcessClient(daemon).route(warm))
    return daemon, scenario


def serve_churn(seed: int, count: int) -> List[Tuple[str, List[Tuple[int, int]]]]:
    """*count* mutations in the serving benchmark's churn mix.

    The events of ``churn_events(SERVE_WIDTH, count, seed)`` in
    ``benchmarks/bench_serve.py``: every third mutation repairs the oldest
    injected node, the others add a two-node cluster at a random anchor
    (two adds per repair).
    """
    rng = np.random.default_rng(seed + 1)
    events: List[Tuple[str, List[Tuple[int, int]]]] = []
    injected: List[Tuple[int, int]] = []
    for index in range(count):
        if index % 3 == 2 and injected:
            events.append(("repair", [injected.pop(0)]))
        else:
            x, y = int(rng.integers(1, SERVE_WIDTH - 1)), int(rng.integers(1, SERVE_WIDTH - 1))
            cluster = [(x, y), (x + 1, y)]
            injected.extend(cluster)
            events.append(("add", cluster))
    return events


async def _closed_loop(
    daemon: RouteDaemon,
    requests: np.ndarray,
    churn: Sequence[Tuple[str, List[Tuple[int, int]]]],
    deadline: float,
) -> Dict[str, Any]:
    """64 clients each send their next request when the last one returns.

    One writer applies the next *churn* mutation per
    ``SERVE_READS_PER_WRITE`` completed requests.
    """
    client = InProcessClient(daemon)
    total = len(requests)
    latencies: List[float] = []
    ends: List[float] = []
    mutation_s: List[float] = []
    mutation_ends: List[float] = []
    #: ``(seconds since the start, probe time)`` every SERVE_PROBE_EVERY
    #: completed requests.  The probe blocks the loop, so the metrics
    #: leave its time out.
    probes: List[Tuple[float, float]] = []
    sampled: Dict[int, Tuple[List[List[int]], Dict[str, Any]]] = {}
    mutations: List[Tuple[str, List[Tuple[int, int]], Dict[str, Any]]] = []
    errors: List[str] = []
    state = {"next": 0, "completed": 0, "owed": 0, "done": False}
    wake = asyncio.Event()

    async def reader() -> None:
        while state["next"] < total and time.perf_counter() <= deadline:
            index = state["next"]
            state["next"] += 1
            pairs = requests[index].tolist()
            start = time.perf_counter()
            try:
                response = await client.route(pairs)
            except Exception as exc:  # noqa: BLE001 - error responses count as failures
                errors.append(f"request {index}: {exc}")
                response = None
            latencies.append(time.perf_counter() - start)
            ends.append(time.perf_counter() - started)
            if response is not None and index % SERVE_SAMPLE_EVERY == 0:
                sampled[index] = (pairs, response)
            state["completed"] += 1
            if state["completed"] % SERVE_PROBE_EVERY == 0:
                probes.append((time.perf_counter() - started, probe_s()))
            if state["completed"] % SERVE_READS_PER_WRITE == 0:
                state["owed"] += 1
                wake.set()

    async def writer() -> None:
        while True:
            await wake.wait()
            wake.clear()
            while state["owed"]:
                state["owed"] -= 1
                kind, nodes = churn[len(mutations)]
                verb = client.add_faults if kind == "add" else client.repair
                start = time.perf_counter()
                try:
                    payload = await verb(nodes)
                except Exception as exc:  # noqa: BLE001 - error responses count as failures
                    errors.append(f"{kind} {nodes}: {exc}")
                    payload = None
                mutation_s.append(time.perf_counter() - start)
                mutation_ends.append(time.perf_counter() - started)
                mutations.append((kind, nodes, payload))
            if state["done"]:
                return

    started = time.perf_counter()
    writer_task = asyncio.ensure_future(writer())
    await asyncio.gather(*(reader() for _ in range(SERVE_CLIENTS)))
    wall = time.perf_counter() - started
    state["done"] = True
    wake.set()
    await writer_task
    return {
        "wall": wall,
        "ends": ends,
        "latencies": latencies,
        "mutation_s": mutation_s,
        "mutation_ends": mutation_ends,
        "probes": probes,
        "sampled": sampled,
        "mutations": mutations,
        "errors": errors,
    }


def _check_serve(
    daemon: RouteDaemon, scenario, start_version: int, run: Dict[str, Any]
) -> List[str]:
    """Re-route sampled responses on fresh sessions at their versions."""
    problems: List[str] = []
    fault_list = list(scenario.faults)
    states = {start_version: list(fault_list)}
    for kind, nodes, payload in run["mutations"]:
        if payload is None:
            continue
        if kind == "add":
            fault_list.extend(tuple(node) for node in payload["added"])
        else:
            removed = {tuple(node) for node in payload["removed"]}
            fault_list = [node for node in fault_list if node not in removed]
        states[payload["version"]] = list(fault_list)
    for index, (pairs, response) in sorted(run["sampled"].items()):
        at = states.get(response["version"])
        if at is None:
            problems.append(f"route-serve: response {index} has unknown version {response['version']}")
            continue
        router = api.MeshSession(SERVE_WIDTH, faults=at).router("extended-ecube", "mfp")
        for pair, got in zip(pairs, response["routes"]):
            result = router.route((pair[0], pair[1]), (pair[2], pair[3]))
            expected = {
                "delivered": result.delivered,
                "hops": result.hops,
                "abnormal_hops": result.abnormal_hops,
                "minimal_hops": result.hops - result.detour,
            }
            if any(got[key] != value for key, value in expected.items()):
                problems.append(
                    f"route-serve: response {index} pair {pair} at version "
                    f"{response['version']} differs from a fresh session"
                )
                break
    final = daemon.session
    fresh = api.MeshSession.from_state(
        {
            "width": SERVE_WIDTH,
            "height": SERVE_WIDTH,
            "torus": False,
            "faults": [list(node) for node in fault_list],
            "version": final.version,
        }
    )
    if fresh.fingerprint() != final.fingerprint():
        problems.append("route-serve: final session fingerprint differs from a fresh session's")
    return problems


def route_serve(seed: int, seconds: float, tracer: Any, deadline: float) -> Phase:
    """A warm in-process daemon under a closed loop of route requests and churn."""
    (daemon, scenario), setup_s = repeat_setup(_serve_setup)
    start_version = daemon.session.version
    rng = np.random.default_rng(seed)
    count = max(SERVE_CLIENTS, round(seconds * SERVE_REQUESTS_PER_S))
    requests = rng.integers(0, SERVE_WIDTH, size=(count, SERVE_PAIRS, 4), dtype=np.int64)
    churn = serve_churn(seed, count // SERVE_READS_PER_WRITE)
    collections = gc_gen2()
    run = asyncio.run(_closed_loop(daemon, requests, churn, deadline))
    latencies, mutation_s = run["latencies"], run["mutation_s"]
    phase = Phase(
        setup_s=setup_s,
        wall_s=run["wall"],
        attempted=len(latencies) + len(mutation_s),
        failed=len(run["errors"]),
        gc_gen2=gc_gen2() - collections,
    )
    # The probes block the loop: every stretch of time below leaves out
    # the probe time inside it, so the benchmark's own work is in no metric.
    probe_at, probe = np.asarray(run["probes"], dtype=float).T
    knots = np.column_stack([probe_at, probe_at + probe]).ravel()
    probed = np.cumsum(probe)
    paused = np.column_stack([probed - probe, probed]).ravel()

    def net(ends, durations):
        return durations - (np.interp(ends, knots, paused) - np.interp(ends - durations, knots, paused))

    # Each probe is one ~2-ms sample: a rolling median over five of them
    # tracks the host's speed without their jitter.  An event is scaled by
    # the host speed at its midpoint, the phase by the speed over time.
    window = min(SERVE_PROBE_SMOOTHING, len(probe))
    padded = np.pad(probe, window // 2, mode="edge")
    smoothed = np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)
    scales = PROBE_REF_S / smoothed[: len(probe)]

    def calibrated(ends, durations):
        ends, durations = np.asarray(ends, dtype=float), np.asarray(durations, dtype=float)
        return net(ends, durations) * np.interp(ends - durations / 2, probe_at, scales)

    calibrated_latencies = calibrated(run["ends"], latencies)
    edges = np.concatenate([[0.0], probe_at, [run["wall"]]])
    speeds = np.interp(edges, probe_at, scales)
    calibrated_wall = float(np.sum(np.diff(edges) * (speeds[:-1] + speeds[1:]) / 2))
    calibrated_wall -= float(np.sum(probe * np.interp(probe_at + probe / 2, probe_at, scales)))
    phase.metrics["throughput_per_s"] = len(latencies) / calibrated_wall
    net_latencies = net(np.asarray(run["ends"]), np.asarray(latencies))

    def tail(values):
        windows = np.array_split(values, SERVE_TAIL_WINDOWS)
        return float(np.median([np.quantile(window, 0.99) for window in windows]))

    phase.metrics["latency_p50_s"] = _quantile(calibrated_latencies, 0.5)
    phase.metrics["latency_p99_s"] = tail(calibrated_latencies)
    phase.samples = {"latency_p50_s": len(latencies), "latency_p99_s": len(latencies)}
    phase.notes["raw"] = {
        "throughput_per_s": len(latencies) / (run["wall"] - float(np.sum(probe))),
        "latency_p50_s": _quantile(net_latencies, 0.5),
        "latency_p99_s": tail(net_latencies),
    }
    if mutation_s:
        # The mean, not a quantile: every mutation moves it, whether it is
        # an add or a repair and whether or not it first flushes the routes
        # the coalescer holds (a few ms against ~0.1 ms without).
        calibrated_mutations = calibrated(run["mutation_ends"], mutation_s)
        phase.metrics["mutation_mean_s"] = float(np.mean(calibrated_mutations))
        phase.samples["mutation_mean_s"] = len(mutation_s)
        phase.notes["raw"]["mutation_mean_s"] = float(np.mean(mutation_s))
    stats = daemon.coalescer.stats
    phase.counters = {
        "serve.coalesce_ratio": stats.coalesce_ratio,
        "serve.shed": daemon.shed_requests,
        "serve.degraded_flushes": daemon.degraded_flushes,
    }
    phase.deferred.append(lambda: _check_serve(daemon, scenario, start_version, run))
    phase.digest = _digest(
        [[kind, nodes, None if payload is None else payload["version"]] for kind, nodes, payload in run["mutations"]]
    )
    phase.notes["errors"] = run["errors"][:5]
    phase.notes["mutations"] = len(mutation_s)
    phase.series = {
        "ends_s": run["ends"],
        "raw_latency_s": latencies,
        "mutation_s": mutation_s,
        "mutation_ends_s": run["mutation_ends"],
        "probe_at_s": probe_at.tolist(),
        "probe_s": probe.tolist(),
    }
    return phase


# -- netsim-load ----------------------------------------------------------------------

NETSIM_WIDTH = 32
NETSIM_FAULTS = 12
NETSIM_LOAD = 0.02
NETSIM_CYCLES = 256
#: Trials per second of run length.
NETSIM_TRIALS_PER_S = 2.8
#: Every this-many-th trial is re-run by the output check.
NETSIM_RECHECK_EVERY = 10


def netsim_trial(seed: int):
    """One latency-sweep trial as ``run_netsim_trial`` runs it (MFP only)."""
    scenario = faults.generate_scenario(
        NETSIM_FAULTS, NETSIM_WIDTH, model="clustered", seed=seed
    )
    session = api.MeshSession.from_scenario(scenario)
    options = api.get_construction("mfp").make_options(None, {"compute_rounds": False})
    return session.simulate(
        "mfp",
        load=NETSIM_LOAD,
        cycles=NETSIM_CYCLES,
        seed=seed,
        construction_options=options,
    )


def netsim_load(seed: int, seconds: float, tracer: Any, deadline: float) -> Phase:
    """Open-loop contention trials at the saturation benchmark's pattern load."""
    trials = max(2, round(seconds * NETSIM_TRIALS_PER_S))
    seeds = [faults.derive_trial_seed(seed, 0, trials, trial) for trial in range(trials)]
    _, setup_s = repeat_setup(lambda: netsim_trial(WARMUP_SEED))

    def run_op(trial_seed):
        stats = netsim_trial(trial_seed)
        return stats, not stats.deadlocked and stats.in_flight == 0

    phase, results = _serial(seeds, run_op, tracer, deadline, setup_s)
    fingerprints = []
    for stats in results:
        if isinstance(stats, Exception):
            fingerprints.append(repr(stats))
        else:
            fingerprints.append(stats.delivery_fingerprint)

    def recheck() -> List[str]:
        problems = []
        for index in range(0, len(results), NETSIM_RECHECK_EVERY):
            if isinstance(results[index], Exception):
                continue
            if netsim_trial(seeds[index]).delivery_fingerprint != fingerprints[index]:
                problems.append(f"netsim-load: trial seed {seeds[index]} did not repeat")
        return problems

    phase.deferred.append(recheck)
    finished = [s for s in results if not isinstance(s, Exception)]
    phase.notes["deadlocked"] = sum(s.deadlocked for s in finished)
    phase.notes["undelivered"] = sum(s.in_flight for s in finished)
    phase.notes["messages"] = sum(s.attempted for s in finished)
    phase.digest = _digest(fingerprints)
    return phase


# -- campaign-sweep -------------------------------------------------------------------

#: The committed 100k campaign artifact's construction config.
CAMPAIGN_COUNTS = (4, 8, 12, 16)
CAMPAIGN_WIDTH = 16
CAMPAIGN_MODELS = ("fb", "fp", "mfp")
CAMPAIGN_CHUNK = 500
#: Trials per fault count in one benchmark campaign (two chunks in all).
CAMPAIGN_TRIALS = 250
#: Trials per fault count of the set-up's warm-up campaign (one chunk).
CAMPAIGN_WARMUP_TRIALS = 16
#: Campaigns per second of run length.
CAMPAIGN_PER_S = 0.7


def campaign_spec(base_seed: int, trials: int = CAMPAIGN_TRIALS) -> CampaignSpec:
    return CampaignSpec.construction(
        CAMPAIGN_COUNTS,
        trials,
        models=CAMPAIGN_MODELS,
        width=CAMPAIGN_WIDTH,
        include_rounds=False,
        base_seed=base_seed,
    )


def _campaign_op(spec: CampaignSpec, root: Path, tracer: Any) -> Dict[str, Any]:
    """One fresh campaign on a fresh store, then one resume of that store."""
    directory = Path(tempfile.mkdtemp(prefix="campaign-", dir=root))
    try:
        runner = CampaignRunner(spec, directory, workers=1, chunk_trials=CAMPAIGN_CHUNK)
        try:
            fresh = runner.run()
            points = [point.as_dict() for point in runner.reduce()]
        finally:
            runner.close()
        before = probe_s()
        start = time.perf_counter()
        again = CampaignRunner(spec, directory, workers=1, chunk_trials=CAMPAIGN_CHUNK)
        try:
            with tracer.span("campaign.resume_scan"):
                resumed = again.run()
            resumed_points = [point.as_dict() for point in again.reduce()]
        finally:
            again.close()
        resume_s = time.perf_counter() - start
        scale = _scale(before, probe_s())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    tracer.count("campaign.rescheduled", fresh["rescheduled"] + resumed["rescheduled"])
    return {
        "fresh": fresh,
        "resumed": resumed,
        "resume_s": resume_s * scale,
        "raw_resume_s": resume_s,
        "identical": resumed_points == points,
        "digest": _digest(points),
    }


def campaign_sweep(seed: int, seconds: float, tracer: Any, deadline: float, root: Path) -> Phase:
    """Fresh construction campaigns through the runner, each resumed once."""
    count = max(2, round(seconds * CAMPAIGN_PER_S))
    base_seeds = [seed * 1000 + index for index in range(count)]
    root.mkdir(parents=True, exist_ok=True)

    def setup():
        # The fabric's fixed cost: a one-chunk campaign (worker start, store
        # creation, fsynced append, resume) before the specs are planned.
        _campaign_op(campaign_spec(WARMUP_SEED, trials=CAMPAIGN_WARMUP_TRIALS), root, NullTracer())
        return [campaign_spec(base) for base in base_seeds]

    specs, setup_s = repeat_setup(setup)

    def run_op(spec):
        result = _campaign_op(spec, root, tracer)
        return result, bool(result["fresh"]["complete"])

    phase, results = _serial(specs, run_op, tracer, deadline, setup_s)
    finished = [r for r in results if isinstance(r, dict)]
    if finished:
        phase.metrics["resume_s"] = _quantile([r["resume_s"] for r in finished], 0.5)
        phase.samples["resume_s"] = len(finished)
        phase.notes["raw"]["resume_s"] = _quantile([r["raw_resume_s"] for r in finished], 0.5)
    for base, result in zip(base_seeds, results):
        if not isinstance(result, dict):
            continue
        if result["resumed"]["executed"] != 0:
            phase.problems.append(
                f"campaign-sweep: resume of base seed {base} executed "
                f"{result['resumed']['executed']} trials"
            )
        if not result["identical"]:
            phase.problems.append(f"campaign-sweep: resumed reduction of base seed {base} differs")
    phase.digest = _digest(
        [r["digest"] if isinstance(r, dict) else repr(r) for r in results]
    )
    phase.notes["errors"] = [repr(r) for r in results if not isinstance(r, dict)][:5]
    phase.notes["trials"] = sum(r["fresh"]["executed"] for r in finished)
    return phase


WORKLOADS: Dict[str, Callable[..., Phase]] = {
    "paper-sweep": paper_sweep,
    "route-serve": route_serve,
    "netsim-load": netsim_load,
    "campaign-sweep": campaign_sweep,
}
