"""Tests for the contention-aware lockstep network simulator (repro.netsim).

The load-bearing property is the differential one: the vectorised array
simulator and the scalar dict-based oracle must produce *bit-identical*
delivery times (witnessed by ``NetSimStats.delivery_fingerprint``) on the
same plan, across traffic patterns, seeds and fault scenarios.  On top of
that the tests pin the cycle-contract semantics (arbitration, queueing,
saturation, deadlock), the registry/env toggle and the session facade.
"""

import multiprocessing

import numpy as np
import pytest

from repro.api import MeshSession
from repro.mesh.topology import Mesh2D
from repro.netsim import (
    NUM_VCS,
    NetSimStats,
    SimulatorSpec,
    available_simulators,
    build_plan,
    default_simulator,
    get_simulator,
    register_simulator,
    resolve_simulator,
    simulate_array,
    simulate_scalar,
    simulator_keys,
    use_simulator,
)
from repro.netsim.plan import SimPlan
from repro.routing.channels import assign_channels
from repro.routing.extended_ecube import ExtendedECubeRouter
from repro.routing.traffic import BurstyArrivalOptions, get_traffic

from oracles.netsim_plan import channel_ids

ALL_SPATIAL = (
    "uniform", "transpose", "bit-reversal", "hotspot", "nearest-neighbour", "permutation"
)


def _plan(width=10, faults=(), traffic="uniform", count=60, seed=3, rate=2.0,
          arrival="poisson"):
    """Build a SimPlan directly from a router + timed batch (no facade)."""
    session = MeshSession(width=width)
    if faults:
        session.add_faults(list(faults))
    router = session.routing.router("extended-ecube", "mfp")
    context = session.routing.context("extended-ecube", "mfp")
    batch = get_traffic(arrival).generate(
        context, count, seed=seed, pattern=traffic, rate=rate
    )
    return build_plan(router, batch, path_cache={})


def _line_plan(inject, paths, width=6):
    """Hand-built plan: explicit per-message channel sequences on a row."""
    router = ExtendedECubeRouter(Mesh2D(width, width), [])
    hop_channel, offsets, lengths = [], [], []
    for source, destination in paths:
        result = router.route(source, destination)
        ids = channel_ids(assign_channels(result), width)
        offsets.append(len(hop_channel))
        lengths.append(len(ids))
        hop_channel.extend(ids.tolist())
    n = len(paths)
    return SimPlan(
        width=width,
        height=width,
        attempted=n,
        routed=np.ones(n, dtype=bool),
        offsets=np.asarray(offsets, dtype=np.int64),
        lengths=np.asarray(lengths, dtype=np.int64),
        hop_channel=np.asarray(hop_channel, dtype=np.int64),
        inject=np.asarray(inject, dtype=np.int64),
        abnormal=np.zeros(n, dtype=np.int64),
        minimal=np.asarray(lengths, dtype=np.int64),
    )


class TestRegistry:
    def test_builtin_simulators(self):
        assert set(simulator_keys()) >= {"array", "scalar"}
        assert get_simulator("vectorized") is get_simulator("array")
        assert get_simulator("reference") is get_simulator("scalar")
        labels = {spec.key: spec.label for spec in available_simulators()}
        assert labels["array"] == "AR" and labels["scalar"] == "SC"

    def test_unknown_key_lists_registered(self):
        with pytest.raises(KeyError, match="array"):
            get_simulator("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_simulator("array")
        with pytest.raises(ValueError, match="already registered"):
            register_simulator(
                SimulatorSpec(key="array", label="A2", description="clash",
                              runner=spec.runner)
            )

    def test_resolve_auto_picks_array(self):
        assert resolve_simulator("auto").key == "array"
        assert resolve_simulator("scalar").key == "scalar"
        with pytest.raises(KeyError):
            resolve_simulator("bogus")

    def test_use_simulator_scopes_default(self):
        before = default_simulator()
        with use_simulator("scalar"):
            assert default_simulator() == "scalar"
            assert resolve_simulator(None).key == "scalar"
        assert default_simulator() == before


class TestDifferentialOracle:
    """Array simulator == scalar oracle, bit for bit."""

    @pytest.mark.parametrize("traffic", ALL_SPATIAL)
    def test_all_patterns_fault_free(self, traffic):
        plan = _plan(width=8, traffic=traffic, count=80, seed=11, rate=4.0)
        a = simulate_array(plan, max_cycles=2000)
        s = simulate_scalar(plan, max_cycles=2000)
        assert np.array_equal(a.delivery, s.delivery)
        assert np.array_equal(a.busy, s.busy)
        assert (a.cycles, a.deadlocked) == (s.cycles, s.deadlocked)

    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_seeds_with_clustered_faults(self, seed):
        faults = [(3, 3), (3, 4), (4, 3), (4, 4), (7, 1)]
        plan = _plan(width=10, faults=faults, count=120, seed=seed, rate=6.0)
        a = simulate_array(plan, max_cycles=4000)
        s = simulate_scalar(plan, max_cycles=4000)
        assert np.array_equal(a.delivery, s.delivery)
        assert np.array_equal(a.busy, s.busy)
        assert (a.cycles, a.deadlocked) == (s.cycles, s.deadlocked)

    def test_bursty_arrivals_and_overload(self):
        # High rate + bursts maximises contention (and possibly deadlock);
        # whatever happens, both simulators must agree exactly.
        plan = _plan(width=8, faults=[(2, 2), (2, 3)], count=200, seed=5,
                     rate=20.0, arrival="bursty")
        a = simulate_array(plan, max_cycles=1500)
        s = simulate_scalar(plan, max_cycles=1500)
        assert np.array_equal(a.delivery, s.delivery)
        assert np.array_equal(a.busy, s.busy)
        assert (a.cycles, a.deadlocked) == (s.cycles, s.deadlocked)


class TestCycleContract:
    def test_uncontended_message_takes_hop_latency(self):
        # One message, injected at cycle 2, path length = Manhattan hops.
        plan = _line_plan([2], [((0, 0), (4, 0))])
        out = simulate_array(plan, max_cycles=100)
        assert out.delivery[0] == 2 + 4
        assert not out.deadlocked

    def test_contention_stalls_higher_index(self):
        # Two messages injected the same cycle on the same row: the later
        # batch index loses the arbitration round and trails two cycles
        # behind (a buffer occupied at cycle start is not grantable, even
        # if its holder moves on that same cycle).
        plan = _line_plan([0, 0], [((0, 0), (4, 0)), ((0, 0), (4, 0))])
        out = simulate_array(plan, max_cycles=100)
        assert out.delivery[0] == 4
        assert out.delivery[1] == 6
        oracle = simulate_scalar(plan, max_cycles=100)
        assert np.array_equal(out.delivery, oracle.delivery)

    def test_sufficiently_staggered_injection_never_stalls(self):
        # Injected two cycles apart, the follower finds every buffer free
        # at cycle start and takes the pure hop latency.
        plan = _line_plan([0, 2], [((0, 0), (4, 0)), ((0, 0), (4, 0))])
        out = simulate_array(plan, max_cycles=100)
        assert out.delivery[0] == 0 + 4
        assert out.delivery[1] == 2 + 4

    def test_busy_counts_buffer_holds(self):
        # Each message holds hops-1 intermediate buffers for one cycle
        # each (the final-hop grant delivers straight into the ejection
        # port), so two 4-hop messages account for 6 busy cycles.
        plan = _line_plan([0, 0], [((0, 0), (4, 0)), ((0, 0), (4, 0))])
        out = simulate_array(plan, max_cycles=100)
        assert int(out.busy.sum()) == 6
        oracle = simulate_scalar(plan, max_cycles=100)
        assert np.array_equal(out.busy, oracle.busy)

    def test_hard_cap_stops_simulation(self):
        plan = _line_plan([0, 0, 0], [((0, 0), (5, 0))] * 3)
        out = simulate_array(plan, max_cycles=4)
        assert out.cycles == 4
        assert np.count_nonzero(out.delivery >= 0) < 3
        oracle = simulate_scalar(plan, max_cycles=4)
        assert np.array_equal(out.delivery, oracle.delivery)
        assert np.array_equal(out.busy, oracle.busy)

    def test_late_injection_fast_forwards(self):
        # Nothing happens before cycle 500; the simulators skip the idle
        # stretch without burning 500 iterations (asserted indirectly: the
        # run completes and the delivery time is exact).
        plan = _line_plan([500], [((0, 0), (3, 0))])
        for run in (simulate_array, simulate_scalar):
            out = run(plan, max_cycles=1000)
            assert out.delivery[0] == 503


class TestSessionFacade:
    @pytest.fixture
    def session(self):
        session = MeshSession(width=10)
        session.add_faults([(4, 4), (4, 5), (5, 4)])
        return session

    def test_simulate_returns_stats(self, session):
        stats = session.simulate("mfp", load=0.02, cycles=120, seed=3)
        assert isinstance(stats, NetSimStats)
        assert stats.model == "MFP"
        assert stats.traffic == "uniform" and stats.arrival == "poisson"
        assert stats.sim in ("array", "scalar")
        assert stats.attempted > 0
        assert stats.delivered + stats.in_flight + stats.unroutable == stats.attempted
        assert stats.busy.shape == (10 * 10 * 4, NUM_VCS)
        assert len(stats.delivery_fingerprint) == 40

    def test_routing_stats_carry_sim_label(self, session):
        stats = session.simulate("mfp", load=0.02, cycles=100, seed=1)
        assert stats.routing is not None
        assert stats.routing.sim == stats.sim
        assert stats.routing.attempted == stats.attempted

    def test_sim_choice_is_bit_identical(self, session):
        array = session.simulate("mfp", load=0.05, cycles=100, seed=7, sim="array")
        scalar = session.simulate("mfp", load=0.05, cycles=100, seed=7, sim="scalar")
        assert array.delivery_fingerprint == scalar.delivery_fingerprint
        assert array.delivered == scalar.delivered
        assert array.total_latency == scalar.total_latency
        assert array.total_queueing == scalar.total_queueing
        assert np.array_equal(array.busy, scalar.busy)
        assert array.sim == "array" and scalar.sim == "scalar"

    def test_same_seed_is_deterministic(self, session):
        a = session.simulate("mfp", load=0.03, cycles=100, seed=9)
        b = session.simulate("mfp", load=0.03, cycles=100, seed=9)
        assert a.delivery_fingerprint == b.delivery_fingerprint
        c = session.simulate("mfp", load=0.03, cycles=100, seed=10)
        assert c.delivery_fingerprint != a.delivery_fingerprint

    def test_path_cache_hits_across_simulates(self, session):
        netsim = session.routing.netsim
        netsim.simulate("mfp", load=0.02, cycles=60, seed=1)
        misses = session.cache_info["path_misses"]
        netsim.simulate("mfp", load=0.02, cycles=60, seed=2)
        assert session.cache_info["path_misses"] == misses
        assert session.cache_info["path_hits"] >= 1

    def test_path_cache_invalidated_by_new_faults(self, session):
        session.simulate("mfp", load=0.02, cycles=60, seed=1)
        misses = session.cache_info["path_misses"]
        session.add_faults([(8, 8)])
        session.simulate("mfp", load=0.02, cycles=60, seed=1)
        assert session.cache_info["path_misses"] > misses

    def test_messages_override_and_latency_consistency(self, session):
        stats = session.simulate("mfp", load=0.01, cycles=200, seed=2, messages=40)
        assert stats.attempted == 40
        if stats.delivered:
            assert stats.total_latency == stats.total_queueing + stats.total_hops
            assert stats.mean_latency >= stats.mean_hops

    def test_validation_errors(self, session):
        with pytest.raises(ValueError, match="load"):
            session.simulate("mfp", load=0.0)
        with pytest.raises(ValueError, match="arrival"):
            session.simulate("mfp", arrival="uniform")
        with pytest.raises(ValueError, match="spatial"):
            session.simulate("mfp", traffic="poisson")

    def test_traffic_and_arrival_options_forwarded(self, session):
        stats = session.simulate(
            "mfp", traffic="hotspot", arrival="bursty", load=0.02, cycles=100,
            seed=4, fraction=0.5, arrival_options=BurstyArrivalOptions(burst=4),
        )
        assert stats.traffic == "hotspot" and stats.arrival == "bursty"

    def test_summary_and_histograms(self, session):
        stats = session.simulate("mfp", load=0.05, cycles=100, seed=5)
        text = stats.summary()
        assert "load" in text and "latency" in text
        utilisation = stats.utilisation()
        assert utilisation.shape == (10 * 10 * 4, NUM_VCS)
        assert float(utilisation.max()) <= 1.0
        counts, edges = stats.utilisation_histogram(bins=5)
        assert counts.sum() == utilisation.size
        assert len(edges) == 6
        vc = stats.vc_busy()
        assert set(vc) == {"vc0", "vc1", "vc2", "vc3", "base"}
        assert sum(vc.values()) == int(stats.busy.sum())


class TestVerdicts:
    def test_light_load_is_stable(self):
        session = MeshSession(width=10)
        stats = session.simulate("mfp", load=0.005, cycles=200, seed=1)
        assert stats.delivered == stats.attempted
        assert not stats.saturated and not stats.deadlocked
        assert stats.mean_queueing < 1.0

    def test_fault_free_overload_saturates_without_deadlock(self):
        # The fault-free mesh's static channel graph is acyclic, so the
        # network can only saturate (leftover in-flight traffic), never
        # deadlock.
        session = MeshSession(width=8)
        stats = session.simulate("mfp", load=2.0, cycles=60, seed=3, drain_factor=2)
        assert stats.saturated
        assert not stats.deadlocked
        assert stats.in_flight > 0

    def test_latency_grows_with_load(self):
        session = MeshSession(width=10)
        session.add_faults([(4, 4), (5, 4)])
        low = session.simulate("mfp", load=0.005, cycles=300, seed=2)
        high = session.simulate("mfp", load=0.08, cycles=300, seed=2)
        assert low.mean_latency < high.mean_latency
        assert low.mean_queueing <= high.mean_queueing

    def test_deadlock_reported_consistently(self):
        # Dense traffic over clustered faults can deadlock (the vc0-vc3
        # discipline's static graph is cyclic for dense populations around
        # regions); both simulators must agree on the verdict.
        session = MeshSession(width=12)
        session.add_faults([(5, 5), (5, 6), (6, 5), (6, 6)])
        a = session.simulate("mfp", load=0.5, cycles=100, seed=0, sim="array")
        s = session.simulate("mfp", load=0.5, cycles=100, seed=0, sim="scalar")
        assert a.deadlocked == s.deadlocked
        assert a.delivery_fingerprint == s.delivery_fingerprint
        if a.deadlocked:
            assert a.saturated


def _simulate_fingerprint(args):
    """Worker entry point of the cross-process determinism test."""
    width, faults, load, seed, sim = args
    session = MeshSession(width=width)
    session.add_faults(list(faults))
    stats = session.simulate("mfp", load=load, cycles=80, seed=seed, sim=sim)
    return stats.delivery_fingerprint


class TestCrossProcessDeterminism:
    def test_fork_workers_reproduce_parent(self):
        args = (10, ((3, 3), (3, 4)), 0.04, 13, "array")
        local = _simulate_fingerprint(args)
        scalar_local = _simulate_fingerprint((10, ((3, 3), (3, 4)), 0.04, 13, "scalar"))
        assert local == scalar_local
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        with context.Pool(processes=2) as pool:
            remote = pool.map(_simulate_fingerprint, [args, args])
        assert remote == [local, local]
