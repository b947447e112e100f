"""Differential tests of the netsim plan builder.

:func:`repro.netsim.plan.build_plan` routes the missing endpoint pairs in
one batch route and classifies every hop with a whole-array channel pass;
the per-pair, per-hop builder in :mod:`oracles.netsim_plan` is the
reference it must match field for field -- on cold and warm path caches,
for self-pairs, for both built-in routers and for a custom registered
router whose paths take torus wrap links.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import MeshSession
from repro.core.mfp import build_minimum_polygons
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D, Torus2D
from repro.netsim.plan import build_plan, hop_channels
from repro.routing.extended_ecube import ExtendedECubeRouter, RouteResult
from repro.routing.registry import RouterSpec, get_router, register_router
from repro.routing.traffic import TrafficBatch, TrafficContext, get_traffic

from oracles.netsim_plan import build_plan_oracle

PLAN_FIELDS = ("routed", "offsets", "lengths", "hop_channel", "inject", "abnormal", "minimal")


def assert_same_plan(plan, expected):
    assert (plan.width, plan.height, plan.attempted) == (
        expected.width,
        expected.height,
        expected.attempted,
    )
    for field in PLAN_FIELDS:
        ours, theirs = getattr(plan, field), getattr(expected, field)
        assert ours.dtype == theirs.dtype, field
        assert np.array_equal(ours, theirs), field


def with_self_pairs(batch, every):
    """*batch* with every *every*-th message sent to its own source."""
    dst_x, dst_y = batch.dst_x.copy(), batch.dst_y.copy()
    dst_x[::every], dst_y[::every] = batch.src_x[::every], batch.src_y[::every]
    return TrafficBatch(batch.src_x, batch.src_y, dst_x, dst_y, batch.inject_time)


class TorusShortcutRouter(ExtendedECubeRouter):
    """Dimension-ordered routing the short way round a torus.

    A custom router the batch engine does not understand: its paths take
    wrap links whenever they are shorter, and it fails on the first hop
    into a fault region.  Abnormal hops count the wrap hops taken.
    """

    def route(self, source, destination):
        width, height = self.topology.width, self.topology.height
        if self.is_disabled(source) or self.is_disabled(destination):
            return RouteResult(source, destination, False, (source,), 0, "disabled")
        path, (x, y), wraps = [source], source, 0
        for axis, size in ((0, width), (1, height)):
            while (x, y)[axis] != destination[axis]:
                ahead = (destination[axis] - (x, y)[axis]) % size
                step = 1 if ahead <= size // 2 else -1
                moved = ((x, y)[axis] + step) % size
                wraps += moved != (x, y)[axis] + step
                x, y = (moved, y) if axis == 0 else (x, moved)
                if self.is_disabled((x, y)):
                    return RouteResult(
                        source, destination, False, tuple(path), wraps, "blocked"
                    )
                path.append((x, y))
        return RouteResult(source, destination, True, tuple(path), wraps)


register_router(
    RouterSpec(
        key="torus-shortcut-test",
        label="TS",
        description="torus shortest-way x-y routing (wrap hops), test only",
        builder=lambda topology, regions, region_index, options: TorusShortcutRouter(
            topology, regions, region_index=region_index
        ),
    ),
    replace=True,
)


class TestPlanDifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(6, 24),
        st.sampled_from(["random", "clustered"]),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["extended-ecube", "ecube"]),
        st.sampled_from(["uniform", "transpose", "hotspot", "nearest-neighbour"]),
        st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_plan_equals_oracle(self, width, model, seed, key, traffic, max_hops):
        scenario = generate_scenario(width * width // 10, width, model=model, seed=seed)
        construction = build_minimum_polygons(
            scenario.faults, topology=Mesh2D(width, width), compute_rounds=False
        )
        overrides = {"max_hops": max_hops} if key == "extended-ecube" else {}
        router = get_router(key).build(construction, **overrides)
        batch = get_traffic("poisson").generate(
            TrafficContext.from_router(router), 80, seed=seed, pattern=traffic, rate=4.0
        )
        batch = with_self_pairs(batch, 7)
        cache, oracle_cache = {}, {}
        plan = build_plan(router, batch, path_cache=cache)
        assert_same_plan(plan, build_plan_oracle(router, batch, path_cache=oracle_cache))
        assert cache.keys() == oracle_cache.keys()
        # Warm and partly warm caches give the same plan again.
        assert_same_plan(build_plan(router, batch, path_cache=cache), plan)
        half = dict(list(cache.items())[::2])
        assert_same_plan(build_plan(router, batch, path_cache=half), plan)
        assert half.keys() == cache.keys()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2**31 - 1), st.booleans())
    def test_custom_router_with_torus_wrap_hops(self, width, seed, faulty):
        faults = [(width // 2, width // 2)] if faulty else []
        session = MeshSession(width=width, faults=faults, torus=True)
        router = session.routing.router("torus-shortcut-test", "mfp")
        assert isinstance(router.topology, Torus2D)
        batch = get_traffic("poisson").generate(
            session.routing.context("torus-shortcut-test", "mfp"),
            60, seed=seed, pattern="uniform", rate=3.0,
        )
        batch = with_self_pairs(batch, 5)
        plan = build_plan(router, batch, path_cache={})
        assert_same_plan(plan, build_plan_oracle(router, batch, path_cache={}))

    @pytest.mark.parametrize("chunk", [1, 5, 300])
    def test_chunked_channel_pass(self, monkeypatch, chunk):
        from repro.routing import engine

        monkeypatch.setattr(engine, "PATH_CHUNK_NODES", chunk)
        session = MeshSession.from_scenario(
            generate_scenario(40, 16, model="clustered", seed=2)
        )
        router = session.routing.router("extended-ecube", "mfp")
        batch = with_self_pairs(
            get_traffic("poisson").generate(
                session.routing.context("extended-ecube", "mfp"),
                150, seed=4, pattern="uniform", rate=5.0,
            ),
            6,
        )
        plan = build_plan(router, batch, path_cache={})
        assert_same_plan(plan, build_plan_oracle(router, batch, path_cache={}))

    def test_simulate_with_custom_router_matches_oracle_plan(self):
        session = MeshSession(width=8, faults=[(3, 3)], torus=True)
        stats = session.simulate(
            "mfp", router="torus-shortcut-test", load=0.05, cycles=64, seed=3
        )
        assert stats.delivered == stats.attempted - stats.unroutable
        assert stats.routing.abnormal_routes > 0


class TestHopChannels:
    def test_rejects_non_unit_hops(self):
        offsets = np.array([0, 2])
        with pytest.raises(ValueError, match="non-unit hop"):
            hop_channels(offsets, np.array([0, 2]), np.array([0, 0]),
                         np.array([2]), np.array([0]), 4)

    def test_empty(self):
        channels = hop_channels(np.zeros(1, dtype=np.int64), np.empty(0, np.int64),
                                np.empty(0, np.int64), np.empty(0, np.int64),
                                np.empty(0, np.int64), 4)
        assert channels.size == 0

    def test_empty_batch_plan(self):
        router = get_router("extended-ecube").build(regions=[], topology=Mesh2D(4, 4))
        plan = build_plan(router, TrafficBatch.empty(), path_cache={})
        assert_same_plan(plan, build_plan_oracle(router, TrafficBatch.empty()))
