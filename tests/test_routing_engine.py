"""Differential and property tests of the batch routing engine.

The batch engine of :mod:`repro.routing.engine` must be *bit-identical*
to the scalar router: same per-message delivered flag, hop count,
abnormal-hop count and failure reason, and therefore identical
:class:`~repro.routing.stats.RoutingStats` aggregates, for every traffic
pattern, topology and fault scenario.  The Hypothesis suites here assert
exactly that, on both mask-kernel paths; deterministic regressions pin
the border-hugging / opposite-orientation-retry traversals and the
engine-selection rules.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import MeshSession, SweepExecutor
from repro.core.mfp import build_minimum_polygons
from repro.faults.scenario import generate_scenario
from repro.geometry import masks
from repro.mesh.topology import Mesh2D, Torus2D
from repro.routing.engine import (
    DELIVERED,
    REASONS,
    JumpTables,
    RegionRingCache,
    available_engines,
    default_engine,
    engine_keys,
    get_engine,
    route_batch,
    set_default_engine,
    supports_router,
    use_engine,
)
from repro.routing.extended_ecube import ExtendedECubeRouter
from repro.routing.registry import get_router
from repro.routing.traffic import TrafficBatch, TrafficContext, get_traffic, traffic_keys

coords12 = st.tuples(st.integers(0, 11), st.integers(0, 11))
fault_sets = st.sets(coords12, min_size=0, max_size=16)

STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


def stats_fingerprint(stats):
    return tuple(getattr(stats, field) for field in STATS_FIELDS)


def assert_batch_matches_scalar(router, batch, **route_batch_kwargs):
    """Per-message differential: kernel outcome == scalar route outcome."""
    outcome = route_batch(router, batch, **route_batch_kwargs)
    scalar_reasons = Counter()
    for index, (source, destination) in enumerate(batch.pairs()):
        result = router.route(source, destination)
        delivered = bool(outcome.status[index] == DELIVERED)
        assert result.delivered == delivered, (source, destination)
        if result.delivered:
            assert result.hops == outcome.hops[index], (source, destination)
            assert result.abnormal_hops == outcome.abnormal_hops[index], (
                source,
                destination,
            )
        else:
            scalar_reasons[result.reason] += 1
            assert result.reason == REASONS[int(outcome.status[index])], (
                source,
                destination,
            )
        counts = router.route_counts(source, destination)
        assert counts == (
            result.delivered,
            result.hops,
            result.abnormal_hops,
            result.reason,
        ), (source, destination)
    assert outcome.reason_counts() == dict(scalar_reasons)
    return outcome


class TestEngineRegistry:
    def test_builtin_keys_and_aliases(self):
        assert engine_keys() == ("scalar", "batch")
        assert get_engine("batch") is get_engine("vectorized")
        assert get_engine("SCALAR").key == "scalar"
        assert [spec.key for spec in available_engines()] == ["scalar", "batch"]

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_engine("quantum")

    def test_supports_router_is_exact_type(self):
        session = MeshSession(width=8, faults=[(3, 3)])
        assert supports_router(session.router())
        assert supports_router(session.router("ecube"))

        class Custom(ExtendedECubeRouter):
            def route(self, source, destination):  # pragma: no cover
                raise NotImplementedError

        assert not supports_router(Custom(Mesh2D(8, 8), []))


class TestEngineSwitch:
    def test_default_honours_environment(self):
        import os

        configured = os.environ.get("REPRO_ROUTE_ENGINE", "auto")
        assert default_engine() == configured.strip().lower().replace("_", "-")

    def test_use_engine_forces_scalar(self):
        session = MeshSession(width=10, faults=[(4, 4), (4, 5)])
        with use_engine("auto"):
            assert session.route("mfp", messages=20).engine == "batch"
            with use_engine("scalar"):
                assert session.route("mfp", messages=20, seed=1).engine == "scalar"
            assert session.route("mfp", messages=20, seed=2).engine == "batch"

    def test_ambient_batch_falls_back_for_deadlock_check(self):
        session = MeshSession(width=10, faults=[(4, 4)])
        with use_engine("batch"):
            stats = session.route("mfp", messages=15, check_deadlock=True)
        assert stats.engine == "scalar"
        assert stats.deadlock_free() in (True, False)

    def test_set_default_engine_validates(self):
        with pytest.raises(KeyError):
            set_default_engine("warp")
        previous = set_default_engine("lockstep")  # batch alias
        try:
            assert default_engine() == "batch"
        finally:
            set_default_engine(previous)

    def test_env_switch_mirrors_mask_kernel(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["REPRO_ROUTE_ENGINE"] = "scalar"
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.routing.engine import default_engine; "
            "print(default_engine())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.stdout.strip() == "scalar"


class TestEngineSelection:
    @pytest.fixture
    def session(self):
        scenario = generate_scenario(
            num_faults=30, width=14, model="clustered", seed=3
        )
        return MeshSession.from_scenario(scenario)

    def test_auto_picks_batch_without_results(self, session):
        with use_engine("auto"):
            assert session.route("mfp", messages=40).engine == "batch"

    def test_collect_results_forces_scalar(self, session):
        stats = session.route("mfp", messages=40, collect_results=True)
        assert stats.engine == "scalar"
        assert len(stats.results) == stats.attempted

    def test_explicit_batch_with_results_raises(self, session):
        with pytest.raises(ValueError, match="engine 'batch'"):
            session.route("mfp", messages=10, engine="batch", collect_results=True)

    def test_explicit_engines_are_bit_identical(self, session):
        scalar = session.route("mfp", messages=300, seed=9, engine="scalar")
        batch = session.route("mfp", messages=300, seed=9, engine="batch")
        assert scalar.engine == "scalar" and batch.engine == "batch"
        assert stats_fingerprint(scalar) == stats_fingerprint(batch)
        assert scalar.enabled == batch.enabled

    def test_custom_router_falls_back_to_scalar(self, session):
        from repro.routing.registry import RouterSpec, register_router

        class Custom(ExtendedECubeRouter):
            pass

        spec = RouterSpec(
            key="custom-engine-test",
            label="CT",
            description="subclassed router for engine fallback test",
            builder=lambda topology, regions, region_index, options: Custom(
                topology, regions, region_index=region_index
            ),
        )
        register_router(spec, replace=True)
        stats = session.route("mfp", messages=20, router="custom-engine-test")
        assert stats.engine == "scalar"
        with pytest.raises(ValueError, match="cannot serve"):
            session.route(
                "mfp", messages=20, router="custom-engine-test", engine="batch"
            )


class TestJumpTables:
    @settings(max_examples=25, deadline=None)
    @given(fault_sets)
    def test_tables_match_bruteforce(self, faults):
        disabled = np.zeros((12, 12), dtype=bool)
        for x, y in faults:
            disabled[x, y] = True
        tables = JumpTables.from_disabled(disabled)
        for x in range(12):
            for y in range(12):
                east = next((i for i in range(x + 1, 12) if disabled[i, y]), 12)
                west = next((i for i in range(x - 1, -1, -1) if disabled[i, y]), -1)
                north = next((j for j in range(y + 1, 12) if disabled[x, j]), 12)
                south = next((j for j in range(y - 1, -1, -1) if disabled[x, j]), -1)
                assert tables.east[x, y] == east
                assert tables.west[x, y] == west
                assert tables.north[x, y] == north
                assert tables.south[x, y] == south


class TestBatchDifferential:
    """The heart of the suite: batch == scalar on randomized scenarios."""

    @settings(max_examples=15, deadline=None)
    @given(fault_sets, st.integers(0, 2**31 - 1), st.booleans())
    @pytest.mark.parametrize("traffic", sorted(traffic_keys()))
    def test_patterns_mesh_and_torus(self, traffic, faults, seed, torus):
        topology = Torus2D(12, 12) if torus else Mesh2D(12, 12)
        construction = build_minimum_polygons(
            sorted(faults), topology=topology, compute_rounds=False
        )
        router = get_router("extended-ecube").build(construction)
        context = TrafficContext.from_router(router)
        batch = get_traffic(traffic).generate(context, 50, seed=seed)
        # scalar_finish=0 keeps the whole batch on the lockstep kernel, so
        # small Hypothesis batches exercise it rather than the scalar tail.
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    @settings(max_examples=20, deadline=None)
    @given(fault_sets, st.integers(0, 2**31 - 1))
    def test_default_hybrid_and_ecube(self, faults, seed):
        construction = build_minimum_polygons(
            sorted(faults), topology=Mesh2D(12, 12), compute_rounds=False
        )
        for key in ("extended-ecube", "ecube"):
            router = get_router(key).build(construction)
            context = TrafficContext.from_router(router)
            batch = get_traffic("uniform").generate(context, 40, seed=seed)
            assert_batch_matches_scalar(router, batch)

    @settings(max_examples=10, deadline=None)
    @given(fault_sets, st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_tight_hop_budgets(self, faults, max_hops, seed):
        construction = build_minimum_polygons(
            sorted(faults), topology=Mesh2D(12, 12), compute_rounds=False
        )
        router = get_router("extended-ecube").build(construction, max_hops=max_hops)
        context = TrafficContext.from_router(router)
        batch = get_traffic("uniform").generate(context, 40, seed=seed)
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    @settings(max_examples=10, deadline=None)
    @given(fault_sets, st.integers(0, 2**31 - 1))
    def test_mask_kernel_off_path(self, faults, seed):
        with masks.use_kernel(False):
            construction = build_minimum_polygons(
                sorted(faults), topology=Mesh2D(12, 12), compute_rounds=False
            )
            router = get_router("extended-ecube").build(construction)
            context = TrafficContext.from_router(router)
            batch = get_traffic("uniform").generate(context, 40, seed=seed)
            assert_batch_matches_scalar(router, batch, scalar_finish=0)

    def test_session_stats_identical_across_engines_all_patterns(self):
        scenario = generate_scenario(
            num_faults=45, width=16, model="clustered", seed=5
        )
        for torus in (False, True):
            scenario = generate_scenario(
                num_faults=45, width=16, model="clustered", seed=5, torus=torus
            )
            session = MeshSession.from_scenario(scenario)
            for traffic in traffic_keys():
                scalar = session.route(
                    "mfp", traffic=traffic, messages=200, seed=11, engine="scalar"
                )
                batch = session.route(
                    "mfp", traffic=traffic, messages=200, seed=11, engine="batch"
                )
                assert stats_fingerprint(scalar) == stats_fingerprint(batch), traffic


class TestTraversalRegressions:
    def test_border_hugging_region_retries_opposite_orientation(self):
        # A region glued to the west border: the clockwise walk of an
        # NS/SN-bound message steps off the mesh at x=-1, so the scalar
        # retries counter-clockwise -- the batch kernel must do the same.
        region = [(0, 4), (0, 5), (1, 4), (1, 5)]
        router = ExtendedECubeRouter(Mesh2D(10, 10), [region])
        batch = TrafficBatch(
            np.array([0, 0]), np.array([1, 8]), np.array([0, 0]), np.array([8, 1])
        )
        outcome = assert_batch_matches_scalar(router, batch, scalar_finish=0)
        assert outcome.delivered.all()
        assert (outcome.abnormal_hops > 0).any()

    def test_all_four_borders(self):
        topology = Mesh2D(9, 9)
        for region in (
            [(0, 4)],  # west border
            [(8, 4)],  # east border
            [(4, 0)],  # south border
            [(4, 8)],  # north border
        ):
            router = ExtendedECubeRouter(topology, [region])
            context = TrafficContext.from_router(router)
            batch = get_traffic("uniform").generate(context, 120, seed=0)
            assert_batch_matches_scalar(router, batch, scalar_finish=0)

    def test_obstructed_traversal_reason_matches(self):
        # Two regions one lane apart: circling the first runs into the
        # second, so both orientations fail and the scalar reports the
        # second traversal's reason.
        regions = [[(4, 3), (4, 4), (4, 5)], [(6, 3), (6, 4), (6, 5)]]
        router = ExtendedECubeRouter(Mesh2D(11, 11), regions)
        batch = TrafficBatch(
            np.array([3, 0]), np.array([4, 4]), np.array([5, 10]), np.array([4, 4])
        )
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    def test_empty_batch_and_self_messages(self):
        router = ExtendedECubeRouter(Mesh2D(8, 8), [[(3, 3)]])
        empty = TrafficBatch.empty()
        assert len(route_batch(router, empty)) == 0
        loops = TrafficBatch(
            np.array([1, 5]), np.array([1, 5]), np.array([1, 5]), np.array([1, 5])
        )
        outcome = assert_batch_matches_scalar(router, loops, scalar_finish=0)
        assert outcome.delivered.all()
        assert (outcome.hops == 0).all()

    def test_disabled_endpoints(self):
        router = ExtendedECubeRouter(Mesh2D(8, 8), [[(3, 3), (5, 5)]])
        batch = TrafficBatch(
            np.array([3, 0, 3]),
            np.array([3, 0, 3]),
            np.array([0, 5, 5]),
            np.array([0, 5, 5]),
        )
        outcome = assert_batch_matches_scalar(router, batch, scalar_finish=0)
        assert outcome.reason_counts() == {
            "source disabled": 2,
            "destination disabled": 1,
        }


class TestRegionRingCache:
    def test_rings_reused_across_rebuilds(self):
        session = MeshSession(width=24, faults=[(3, 3), (3, 4), (18, 18)])
        session.route("mfp", messages=150, seed=0)
        misses = session.cache_info["ring_misses"]
        assert misses > 0
        # A far-away fault leaves the existing regions' node sets intact:
        # the rebuilt router must reuse their ring geometry.
        session.add_faults([(10, 20)])
        session.route("mfp", messages=150, seed=0)
        assert session.cache_info["ring_hits"] > 0
        cache = session.routing.ring_cache
        assert len(cache) >= misses

    def test_geometry_identity_shared(self):
        session = MeshSession(width=16, faults=[(5, 5), (5, 6)])
        router_a = session.router()
        router_a.route((4, 2), (4, 9))  # resolve the ring lazily
        before = router_a.region_geometry(0)
        session.add_faults([(12, 12)])
        router_b = session.router()
        router_b.route((4, 2), (4, 9))
        index = router_b.region_of((5, 5))
        assert router_b.region_geometry(index) is before

    def test_lru_eviction_bounds_entries(self):
        cache = RegionRingCache(max_entries=2)
        for nodes in ([(0, 0)], [(1, 1)], [(2, 2)]):
            cache.geometry(frozenset(nodes))
        assert len(cache) == 2
        assert cache.misses == 3


class TestSweepAndCLI:
    def test_routing_sweep_engine_choice_is_bit_identical(self):
        kwargs = dict(
            fault_counts=[12, 25],
            trials=2,
            width=14,
            distribution="clustered",
            traffic="transpose",
            messages=60,
        )
        executor = SweepExecutor(models=("fb", "mfp"))
        scalar_points = executor.run_routing(engine="scalar", **kwargs)
        batch_points = executor.run_routing(engine="batch", **kwargs)
        for scalar_point, batch_point in zip(scalar_points, batch_points):
            assert scalar_point.models() == batch_point.models()
            for model in scalar_point.models():
                for metric in ("delivery_rate", "mean_hops", "mean_detour"):
                    assert scalar_point.mean(model, metric) == batch_point.mean(
                        model, metric
                    )

    def test_plan_routing_validates_and_carries_engine(self):
        import pickle

        executor = SweepExecutor(models=("mfp",))
        with pytest.raises(KeyError):
            executor.plan_routing([10], 1, engine="warpdrive")
        specs = executor.plan_routing([10], 1, engine="lockstep")
        assert specs[0].engine == "batch"
        # The resolved spec rides along (like router/traffic specs) so
        # spawn-started workers can re-register custom engines -- which
        # requires the trial spec to survive pickling.
        assert specs[0].engine_spec is get_engine("batch")
        assert pickle.loads(pickle.dumps(specs[0])).engine == "batch"
        default = executor.plan_routing([10], 1)[0]
        assert default.engine is None and default.engine_spec is None

    def test_cli_route_engine_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "route",
                    "--faults", "15", "--width", "12", "--messages", "40",
                    "--engine", "batch",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine: batch" in out

    def test_cli_sweep_routing_engine_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--width", "12", "--fault-counts", "6", "--trials", "1",
                    "--routing", "--messages", "30", "--engine", "scalar",
                ]
            )
            == 0
        )
        assert "delivery_rate" in capsys.readouterr().out


@st.composite
def path_scenarios(draw):
    """A mesh (6..20 wide) with clustered or random faults, optionally
    plus a fault run along a border so regions hug the mesh edge."""
    width = draw(st.integers(6, 20))
    height = draw(st.integers(6, 20))
    model = draw(st.sampled_from(["random", "clustered"]))
    seed = draw(st.integers(0, 2**31 - 1))
    count = draw(st.integers(0, width * height // 8))
    faults = set(
        generate_scenario(count, width, height, model=model, seed=seed).faults
    )
    if draw(st.booleans()):
        side = draw(st.sampled_from(["south", "north", "west", "east"]))
        start = draw(st.integers(0, max(0, min(width, height) - 3)))
        run = range(start, start + draw(st.integers(1, 3)))
        faults |= {
            "south": {(x, 0) for x in run},
            "north": {(x, height - 1) for x in run},
            "west": {(0, y) for y in run},
            "east": {(width - 1, y) for y in run},
        }[side]
    return Mesh2D(width, height), sorted(faults), seed


def csr_path(outcome, message):
    """One message's path from the outcome's CSR path arrays."""
    nodes = slice(outcome.path_offsets[message], outcome.path_offsets[message + 1])
    return tuple(zip(outcome.path_x[nodes].tolist(), outcome.path_y[nodes].tolist()))


class TestBatchPaths:
    """``route_batch(..., paths=True)`` emits ``router.route``'s paths."""

    @staticmethod
    def assert_paths_match(router, batch, **route_batch_kwargs):
        counts = route_batch(router, batch, **route_batch_kwargs)
        outcome = route_batch(router, batch, paths=True, **route_batch_kwargs)
        assert counts.path_offsets is None
        for field in ("status", "hops", "abnormal_hops", "minimal_hops"):
            assert np.array_equal(getattr(outcome, field), getattr(counts, field))
        assert np.array_equal(np.diff(outcome.path_offsets), outcome.hops + 1)
        for index, (source, destination) in enumerate(batch.pairs()):
            assert csr_path(outcome, index) == router.route(source, destination).path, (
                source,
                destination,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        path_scenarios(),
        st.sampled_from(["extended-ecube", "ecube"]),
        st.sampled_from([0, None]),
        st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_paths_equal_scalar_route(self, scenario, key, finish, max_hops):
        topology, faults, seed = scenario
        construction = build_minimum_polygons(
            faults, topology=topology, compute_rounds=False
        )
        overrides = {"max_hops": max_hops} if key == "extended-ecube" else {}
        router = get_router(key).build(construction, **overrides)
        context = TrafficContext.from_router(router)
        batch = get_traffic("uniform").generate(context, 60, seed=seed)
        self.assert_paths_match(router, batch, scalar_finish=finish)

    def test_stragglers_keep_their_whole_scalar_path(self):
        scenario = generate_scenario(300, 40, model="clustered", seed=4)
        session = MeshSession.from_scenario(scenario)
        router = session.routing.router("extended-ecube", "mfp")
        batch = get_traffic("uniform").generate(
            session.routing.context("extended-ecube", "mfp"), 400, seed=2
        )
        # A threshold above the batch size finishes every message scalar.
        self.assert_paths_match(router, batch, scalar_finish=1000)
        self.assert_paths_match(router, batch)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_expansion(self, monkeypatch, chunk):
        from repro.routing import engine

        monkeypatch.setattr(engine, "PATH_CHUNK_NODES", chunk)
        scenario = generate_scenario(60, 20, model="clustered", seed=8)
        session = MeshSession.from_scenario(scenario)
        router = session.routing.router("extended-ecube", "mfp")
        batch = get_traffic("uniform").generate(
            session.routing.context("extended-ecube", "mfp"), 120, seed=5
        )
        self.assert_paths_match(router, batch, scalar_finish=0)
        self.assert_paths_match(router, batch)

    def test_empty_batch_and_self_pairs(self):
        router = get_router("extended-ecube").build(
            regions=[{(3, 3), (3, 4)}], topology=Mesh2D(8, 8)
        )
        empty = route_batch(router, TrafficBatch.empty(), paths=True)
        assert empty.path_offsets.tolist() == [0]
        same = np.array([1, 5, 3])
        batch = TrafficBatch(same, same, same, same)
        outcome = route_batch(router, batch, paths=True, scalar_finish=0)
        assert [csr_path(outcome, i) for i in range(3)] == [((1, 1),), ((5, 5),), ((3, 3),)]
