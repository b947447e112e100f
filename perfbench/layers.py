"""Which library entry points the traced run wraps, and the metrics they give.

Every wrapped name is patched where its caller looks it up: the module
global a caller imported (``repro.api.executor.generate_scenario``,
``repro.netsim.session.build_plan``, ``repro.serve.daemon.route_batch``)
or the method on its class.  :func:`install` must run before a workload
sets up, because the daemon binds its flush method when it is built.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from time import perf_counter
from typing import Dict, Tuple

from perfbench.trace import LAYERS, Tracer

#: Every per-layer metric a traced run reports, with its unit.  Metrics of
#: a layer a workload does not load read 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("faults.generate_s", "s"),
    ("faults.generate_calls", "count"),
    ("core.build_s.fb", "s"),
    ("core.build_s.fp", "s"),
    ("core.build_s.mfp", "s"),
    ("core.cmfp_rounds", "count"),
    ("distributed.dmfp_s", "s"),
    ("distributed.rounds", "count"),
    ("sim.metrics_s", "s"),
    ("api.build_s", "s"),
    ("api.mutate_s", "s"),
    ("api.mutations", "count"),
    ("api.result_hits", "count"),
    ("api.result_misses", "count"),
    ("routing.router_builds", "count"),
    ("routing.router_build_s", "s"),
    ("routing.batch_s", "s"),
    ("routing.pairs", "count"),
    ("routing.scalar_fallbacks", "count"),
    ("routing.scalar_s", "s"),
    ("routing.routes", "count"),
    ("routing.route_s", "s"),
    ("netsim.plan_s", "s"),
    ("netsim.replay_s", "s"),
    ("netsim.path_cache_hits", "count"),
    ("netsim.path_cache_misses", "count"),
    ("netsim.cycles", "count"),
    ("netsim.deadlocked", "count"),
    ("netsim.undelivered", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.flush_s", "s"),
    ("serve.flushes", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.degraded_flushes", "count"),
    ("campaign.wait_s", "s"),
    ("campaign.store_append_s", "s"),
    ("campaign.chunks", "count"),
    ("campaign.bytes_written", "B"),
    ("campaign.rescheduled", "count"),
    ("campaign.resume_scan_s", "s"),
    ("campaign.reduce_s", "s"),
    ("py.gc_gen2", "count"),
    ("host.calib_ms", "ms"),
    *((f"self_s.{layer}", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)


def _construction_span(args, kwargs) -> str:
    key = args[0].key
    return "distributed.dmfp" if key == "dmfp" else f"core.build.{key}"


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the workloads load."""
    import repro.api.executor as executor
    import repro.faults as faults
    import repro.netsim.session as netsim_session
    import repro.serve.coalescer as coalescer
    import repro.serve.daemon as daemon
    from repro.api.registry import ConstructionSpec
    from repro.api.session import MeshSession
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import CampaignStore
    from repro.campaign.transport import LocalTransport
    from repro.netsim.session import NetSimSession
    from repro.routing.extended_ecube import ExtendedECubeRouter
    from repro.routing.registry import RouterSpec

    count = tracer.count

    # faults -- the benchmark itself and the trial runners draw scenarios.
    for module in (faults, executor):
        tracer.wrap(module, "generate_scenario", "faults.generate")

    # core / distributed -- one span per registry build, named by model.
    def construction_rounds(result, args, kwargs, state) -> None:
        if result.key == "dmfp":
            count("distributed.rounds", result.rounds)
        elif result.key in ("mfp", "cmfp"):
            count("core.cmfp_rounds", result.rounds)

    tracer.wrap(ConstructionSpec, "build", _construction_span, after=construction_rounds)

    # sim -- the per-trial metric collection around the builds.
    tracer.wrap(executor, "collect_scenario_metrics", "sim.metrics")

    # api -- session builds (result cache) and fault mutations.
    def result_cache(result, args, kwargs, state) -> None:
        info = args[0].cache_info
        tracer.gauges[("api.results", id(args[0]))] = (
            info["result_hits"],
            info["result_misses"],
        )

    tracer.wrap(MeshSession, "build", "api.build", after=result_cache)
    tracer.wrap(MeshSession, "add_faults", "api.mutate")
    tracer.wrap(MeshSession, "remove_faults", "api.mutate")

    # routing -- router builds, the batch engine, its scalar fallback.
    tracer.wrap(RouterSpec, "build", "routing.router_build")
    tracer.wrap(
        daemon,
        "route_batch",
        "routing.batch",
        after=lambda result, args, kwargs, state: count("routing.pairs", len(result)),
    )
    tracer.wrap(ExtendedECubeRouter, "route_counts", "routing.scalar", keep=False)
    tracer.wrap(ExtendedECubeRouter, "route", "routing.route", keep=False)

    # netsim -- plan building (with its pair memo) and the replay.
    tracer.wrap(NetSimSession, "simulate", "netsim.simulate")

    def plan_cache(result, args, kwargs, before) -> None:
        misses = len(kwargs.get("path_cache") or ()) - before
        count("netsim.path_cache_misses", misses)
        count("netsim.path_cache_hits", result.attempted - misses)

    tracer.wrap(
        netsim_session,
        "build_plan",
        "netsim.plan",
        before=lambda args, kwargs: len(kwargs.get("path_cache") or ()),
        after=plan_cache,
    )

    def replay_outcome(outcome, args, kwargs, state) -> None:
        count("netsim.cycles", outcome.cycles)
        count("netsim.deadlocked", int(outcome.deadlocked))
        count("netsim.undelivered", int((outcome.delivery < 0).sum()))

    resolve_simulator = netsim_session.resolve_simulator
    traced_runners: Dict[int, object] = {}

    def traced_resolve(sim=None):
        spec = resolve_simulator(sim)
        runner = traced_runners.get(id(spec.runner))
        if runner is None:
            runner = tracer.traced(spec.runner, "netsim.replay", after=replay_outcome)
            traced_runners[id(spec.runner)] = runner
        return dataclasses.replace(spec, runner=runner)

    tracer.patch(netsim_session, "resolve_simulator", traced_resolve)

    # serve -- request parsing, coalesced flushes, mutations.
    class StampedPendingRoute(coalescer.PendingRoute):
        """A buffered route request that remembers when it was submitted."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.submitted = perf_counter()

    tracer.patch(coalescer, "PendingRoute", StampedPendingRoute)

    def queue_wait(args, kwargs) -> None:
        now = perf_counter()
        tracer.samples["serve.queue_wait"].extend(
            now - entry.submitted for entry in args[1]
        )

    tracer.wrap(daemon.RouteDaemon, "_parse_pairs", "serve.parse")
    tracer.wrap(daemon.RouteDaemon, "_flush_routes", "serve.flush", before=queue_wait)
    tracer.wrap(daemon.RouteDaemon, "_apply_mutation", "serve.mutation")

    # campaign -- the run loop, blocking on the worker, durable appends.
    tracer.wrap(CampaignRunner, "run", "campaign.run")
    tracer.wrap(CampaignRunner, "reduce", "campaign.reduce")
    tracer.wrap(LocalTransport, "poll", "campaign.wait")

    def manifest_size(args, kwargs) -> int:
        return os.path.getsize(args[0].directory / "manifest.jsonl")

    def appended(record, args, kwargs, before) -> None:
        directory = args[0].directory
        count("campaign.chunks")
        count(
            "campaign.bytes_written",
            os.path.getsize(directory / record["file"])
            + os.path.getsize(directory / "manifest.jsonl")
            - before,
        )

    tracer.wrap(
        CampaignStore, "append_rows", "campaign.append", before=manifest_size, after=appended
    )


def metrics(tracer: Tracer, wall: float, kept: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced phase lasting *wall* seconds.

    *kept* holds the counters the program keeps itself (the daemon's
    coalesce ratio, sheds and degraded flushes), read by the workload.
    """
    total, calls, counters = tracer.total_time, tracer.calls, tracer.counters
    results = [value for key, value in tracer.gauges.items() if key[0] == "api.results"]
    waits = tracer.samples["serve.queue_wait"]
    values: Dict[str, float] = {
        "faults.generate_s": total["faults.generate"],
        "faults.generate_calls": calls["faults.generate"],
        "core.build_s.fb": total["core.build.fb"],
        "core.build_s.fp": total["core.build.fp"],
        "core.build_s.mfp": total["core.build.mfp"] + total["core.build.cmfp"],
        "core.cmfp_rounds": counters["core.cmfp_rounds"],
        "distributed.dmfp_s": total["distributed.dmfp"],
        "distributed.rounds": counters["distributed.rounds"],
        "sim.metrics_s": tracer.self_time["sim.metrics"],
        "api.build_s": total["api.build"],
        "api.mutate_s": total["api.mutate"],
        "api.mutations": calls["api.mutate"],
        "api.result_hits": sum(hits for hits, _ in results),
        "api.result_misses": sum(misses for _, misses in results),
        "routing.router_builds": calls["routing.router_build"],
        "routing.router_build_s": total["routing.router_build"],
        "routing.batch_s": total["routing.batch"],
        "routing.pairs": counters["routing.pairs"],
        "routing.scalar_fallbacks": calls["routing.scalar"],
        "routing.scalar_s": total["routing.scalar"],
        "routing.routes": calls["routing.route"],
        "routing.route_s": total["routing.route"],
        "netsim.plan_s": total["netsim.plan"],
        "netsim.replay_s": total["netsim.replay"],
        "netsim.path_cache_hits": counters["netsim.path_cache_hits"],
        "netsim.path_cache_misses": counters["netsim.path_cache_misses"],
        "netsim.cycles": counters["netsim.cycles"],
        "netsim.deadlocked": counters["netsim.deadlocked"],
        "netsim.undelivered": counters["netsim.undelivered"],
        "serve.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.flush_s": total["serve.flush"],
        "serve.flushes": calls["serve.flush"],
        "campaign.wait_s": total["campaign.wait"],
        "campaign.store_append_s": total["campaign.append"],
        "campaign.chunks": counters["campaign.chunks"],
        "campaign.bytes_written": counters["campaign.bytes_written"],
        "campaign.rescheduled": counters["campaign.rescheduled"],
        "campaign.resume_scan_s": total["campaign.resume_scan"],
        "campaign.reduce_s": total["campaign.reduce"],
        "trace.spans": len(tracer.spans),
    }
    for layer, seconds in tracer.layer_self_seconds(wall).items():
        values[f"self_s.{layer}"] = seconds
    for name in ("serve.coalesce_ratio", "serve.shed", "serve.degraded_flushes"):
        values[name] = kept.get(name, 0.0)
    return values
