"""Routed-path plans: the input the contention simulators replay.

The network simulator separates *routing* from *contention*: every message's
path is computed up front and turned into a flat sequence of
virtual-channel identifiers; the simulators then replay those sequences
cycle by cycle against per-channel occupancy.  This mirrors how the routing
algorithm itself works -- the extended e-cube route of a message depends
only on the fault regions, never on other traffic -- so precomputing paths
loses nothing.

Plans are built with whole-array passes: the lockstep batch engine
(:func:`repro.routing.engine.route_batch` with ``paths=True``) routes every
new endpoint pair at once into CSR node paths, :func:`hop_channels` turns
all of their hops into channel identifiers in one vectorised pass, and the
plan is assembled from CSR gathers.  Routers the engine does not understand
(custom registry routers) supply their paths through ``router.route`` and
share the same channel pass.

Channel numbering (shared by both simulators and the utilisation reports):

* the physical directed link leaving node ``(x, y)`` in direction ``d``
  (0 east, 1 west, 2 north, 3 south) has ``link = (x * height + y) * 4 + d``;
* each link carries :data:`NUM_VCS` ( = 5) virtual channels: ``vc0 .. vc3``
  are the four abnormal classes of :mod:`repro.routing.channels` and ``vc4``
  is the base dimension-ordered channel (reusing ``BASE_CHANNEL == 4``);
* the flat channel identifier is ``link * NUM_VCS + vc``.

Unroutable messages (source or destination inside a fault region, or the
router gives up) are excluded from the replay and reported separately: the
simulator measures contention among deliverable messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.routing.channels import ABNORMAL_CHANNEL, BASE_CHANNEL
from repro.routing.engine import chunk_spans, route_batch, supports_router
from repro.routing.traffic import TrafficBatch
from repro.types import MessageType

#: Virtual channels per directed physical link (vc0..vc3 abnormal + base).
NUM_VCS = BASE_CHANNEL + 1


@dataclass(eq=False)
class SimPlan:
    """The routed paths of one batch, flattened for lockstep replay.

    ``routed`` flags the messages the router delivered (aligned with the
    original batch); the remaining arrays are indexed by *routed message*
    (compacted).  Message ``m``'s hop channels are
    ``hop_channel[offsets[m] : offsets[m] + lengths[m]]``.
    """

    width: int
    height: int
    #: Messages in the original batch (routed + unroutable).
    attempted: int
    #: Boolean mask over the original batch: True = router delivered.
    routed: np.ndarray
    #: Per routed message: start of its hop-channel run.
    offsets: np.ndarray
    #: Per routed message: number of hops (path length - 1; 0 for a self-pair).
    lengths: np.ndarray
    #: Flat channel identifiers of every hop, concatenated per message.
    hop_channel: np.ndarray
    #: Per routed message: injection cycle (>= 0).
    inject: np.ndarray
    #: Per routed message: number of abnormal (around-a-region) hops.
    abnormal: np.ndarray
    #: Per routed message: the fault-free minimal hop count (Manhattan).
    minimal: np.ndarray

    @property
    def num_routed(self) -> int:
        """Number of messages that take part in the replay."""
        return int(self.lengths.size)

    @property
    def num_links(self) -> int:
        """Directed physical links of the grid (4 per node)."""
        return self.width * self.height * 4

    @property
    def num_channels(self) -> int:
        """Flat channel count (links times virtual channels)."""
        return self.num_links * NUM_VCS


def _delta_code(dx, dy):
    """Code ``(dx + 1) * 3 + (dy + 1)`` of a delta with entries in -1..1."""
    return (dx + 1) * 3 + (dy + 1)


#: Delta code -> link direction (0 east, 1 west, 2 north, 3 south; -1 no hop).
_LINK_DIRECTION = np.full(9, -1, dtype=np.int64)
for _direction, (_dx, _dy) in enumerate(((1, 0), (-1, 0), (0, 1), (0, -1))):
    _LINK_DIRECTION[_delta_code(_dx, _dy)] = _direction

#: Code of ``sign(destination - current)`` -> delta code of the base e-cube
#: hop (row first, then column; the code of ``(0, 0)`` at the destination).
_ECUBE_HOP = np.array(
    [_delta_code(sx, 0) if sx else _delta_code(0, sy) for sx in (-1, 0, 1) for sy in (-1, 0, 1)]
)

#: Code of ``sign(destination - current)`` -> abnormal channel of the message
#: class ``initial_message_type(current, destination)``.
_ABNORMAL_VC = np.array(
    [
        ABNORMAL_CHANNEL[
            MessageType.WE if sx > 0 else MessageType.EW if sx < 0
            else MessageType.SN if sy > 0 else MessageType.NS
        ]
        for sx in (-1, 0, 1)
        for sy in (-1, 0, 1)
    ]
)


def hop_channels(
    path_offsets: np.ndarray,
    path_x: np.ndarray,
    path_y: np.ndarray,
    dest_x: np.ndarray,
    dest_y: np.ndarray,
    height: int,
    topology=None,
) -> np.ndarray:
    """Flat channel identifiers of every hop of a set of CSR node paths.

    Path ``p`` visits nodes ``path_offsets[p] : path_offsets[p + 1]`` (at
    least one) and ends at ``(dest_x[p], dest_y[p])``; its hops come out at
    ``path_offsets[p] - p : path_offsets[p + 1] - p - 1``.  One pass over
    the hops (chunked, see :func:`repro.routing.engine.chunk_spans`)
    reproduces :func:`repro.routing.channels.assign_channels` exactly: a
    hop along the base e-cube direction towards the destination uses the
    base channel, any other hop the abnormal channel of the message class
    ``initial_message_type(current, destination)``.  With a *topology*,
    torus wrap jumps fold onto the physical link crossed, as in
    :func:`repro.routing.channels.hop_direction`, and classify abnormal.
    """
    hop_offsets = path_offsets - np.arange(path_offsets.size)
    channels = np.empty(int(hop_offsets[-1]), dtype=np.int64)
    for lo, hi in chunk_spans(path_offsets[1:]):
        nodes = slice(path_offsets[lo], path_offsets[hi])
        channels[hop_offsets[lo] : hop_offsets[hi]] = _chunk_channels(
            path_offsets[lo : hi + 1] - path_offsets[lo], path_x[nodes], path_y[nodes],
            dest_x[lo:hi], dest_y[lo:hi], height, topology,
        )
    return channels


def _chunk_channels(path_offsets, path_x, path_y, dest_x, dest_y, height, topology):
    """:func:`hop_channels` of one chunk of paths (offsets start at 0)."""
    last = np.zeros(path_x.size, dtype=bool)
    last[path_offsets[1:] - 1] = True
    # A zero-hop path's only node is its last one, so it adds no hop.
    current = np.nonzero(~last)[0]
    cur_x = path_x[current].astype(np.int64)
    cur_y = path_y[current].astype(np.int64)
    raw_dx = path_x[current + 1] - cur_x
    raw_dy = path_y[current + 1] - cur_y
    dx, dy = raw_dx, raw_dy
    if topology is not None:
        jump = (np.abs(dx) > 1) | (np.abs(dy) > 1)
        if jump.any():
            width = topology.width
            dx = np.where(jump & (dx == width - 1), -1, np.where(jump & (dx == 1 - width), 1, dx))
            dy = np.where(jump & (dy == height - 1), -1, np.where(jump & (dy == 1 - height), 1, dy))
    unit = (np.abs(dx) + np.abs(dy)) == 1
    if not unit.all():
        bad = int(np.argmin(unit))
        raise ValueError(
            f"non-unit hop ({cur_x[bad]}, {cur_y[bad]}) -> "
            f"({cur_x[bad] + raw_dx[bad]}, {cur_y[bad] + raw_dy[bad]}) in routed path"
        )
    hop = _delta_code(dx, dy)
    owner = np.repeat(np.arange(path_offsets.size - 1), np.diff(path_offsets) - 1)
    towards = _delta_code(np.sign(dest_x[owner] - cur_x), np.sign(dest_y[owner] - cur_y))
    # A folded wrap hop leaves the grid edge away from every destination
    # (east out of the last column, and so on), so it never matches the
    # base e-cube hop and classifies abnormal without a separate check.
    base = hop == _ECUBE_HOP[towards]
    vc = np.where(base, BASE_CHANNEL, _ABNORMAL_VC[towards])
    link = (cur_x * height + cur_y) * 4 + _LINK_DIRECTION[hop]
    return link * NUM_VCS + vc


def _route_pairs(router, src_x, src_y, dst_x, dst_y):
    """Route the pairs; ``(delivered, abnormal, path_offsets, path_x, path_y)``.

    Built-in routers go through one lockstep batch route; any other
    router supplies its paths through ``router.route``, pair by pair.
    """
    if supports_router(router):
        outcome = route_batch(router, TrafficBatch(src_x, src_y, dst_x, dst_y), paths=True)
        return (
            outcome.delivered, outcome.abnormal_hops,
            outcome.path_offsets, outcome.path_x, outcome.path_y,
        )
    results = [
        router.route(source, destination)
        for source, destination in zip(
            zip(src_x.tolist(), src_y.tolist()), zip(dst_x.tolist(), dst_y.tolist())
        )
    ]
    # An undelivered path is never replayed: keep only its source, so
    # the channel pass sees no hop of it.
    paths = [result.path if result.delivered else result.path[:1] for result in results]
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(path) for path in paths], out=offsets[1:])
    nodes = np.array([node for path in paths for node in path], dtype=np.int64).reshape(-1, 2)
    return (
        np.fromiter((r.delivered for r in results), bool, len(results)),
        np.fromiter((r.abnormal_hops for r in results), np.int64, len(results)),
        offsets, nodes[:, 0], nodes[:, 1],
    )


def _route_fresh(router, pairs, src_x, src_y, dst_x, dst_y, height, cache):
    """Route the *pairs* missing from *cache* and add their entries.

    Returns ``(delivered, abnormal, starts, lengths, channels)``: per pair
    its outcome and the slice of *channels* holding its hop channels.  The
    cache entry of a delivered pair is ``(hop channels, abnormal hops)``,
    of an unroutable one ``None``.
    """
    delivered, abnormal, offsets, path_x, path_y = _route_pairs(
        router, src_x, src_y, dst_x, dst_y
    )
    channels = hop_channels(
        offsets, path_x, path_y, dst_x, dst_y, height, getattr(router, "topology", None)
    )
    del path_x, path_y
    starts = offsets[:-1] - np.arange(offsets.size - 1)
    lengths = np.diff(offsets) - 1
    for pair, ok, start, stop, count in zip(
        pairs, delivered.tolist(), starts.tolist(), (starts + lengths).tolist(),
        abnormal.tolist(),
    ):
        cache[pair] = (channels[start:stop], count) if ok else None
    return delivered, abnormal, starts, lengths, channels


def build_plan(
    router,
    batch,
    *,
    path_cache: Optional[Dict] = None,
) -> SimPlan:
    """Route *batch* through *router* and flatten the paths into a plan.

    Paths are computed once per unique ``(source, destination)`` pair and
    memoised in *path_cache* (one entry per pair: its hop channels and
    abnormal-hop count, or ``None`` when unroutable) -- pass the same
    dictionary across calls (e.g. per session version) to amortise
    routing over a latency-vs-load sweep, where every load point replays
    largely the same pair population.  The pairs missing from the cache
    are routed together in one batch route; the plan is then gathered
    from the per-pair channel runs without a loop over messages.
    """
    width, height = router.enabled_mask.shape
    cache: Dict = path_cache if path_cache is not None else {}
    src_x, src_y, dst_x, dst_y = (
        np.asarray(axis, dtype=np.int64) for axis in batch.as_arrays()
    )
    attempted = int(src_x.size)
    if batch.inject_time is not None:
        inject_all = np.asarray(batch.inject_time, dtype=np.int64)
    else:
        inject_all = np.zeros(attempted, dtype=np.int64)
    keys = ((src_x * height + src_y) * width + dst_x) * height + dst_y
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    endpoints = [axis[first] for axis in (src_x, src_y, dst_x, dst_y)]
    pairs = list(zip(*(axis.tolist() for axis in endpoints)))
    known = np.fromiter((pair in cache for pair in pairs), bool, len(pairs))

    # Per unique pair: routed?, abnormal hops, and its run of a channel pool.
    pair_routed = np.zeros(len(pairs), dtype=bool)
    pair_abnormal = np.zeros(len(pairs), dtype=np.int64)
    pair_start = np.zeros(len(pairs), dtype=np.int64)
    pair_length = np.zeros(len(pairs), dtype=np.int64)
    pool = []
    fresh = np.nonzero(~known)[0]
    if fresh.size:
        (
            pair_routed[fresh], pair_abnormal[fresh], pair_start[fresh],
            pair_length[fresh], channels,
        ) = _route_fresh(
            router, [pairs[index] for index in fresh.tolist()],
            *(axis[fresh] for axis in endpoints), height, cache,
        )
        pool.append(channels)
    hits = np.nonzero(known)[0]
    if hits.size:
        entries = [cache[pairs[index]] for index in hits.tolist()]
        routed_hits = [entry for entry in entries if entry is not None]
        hit_routed = np.fromiter((e is not None for e in entries), bool, len(entries))
        runs = hits[hit_routed]
        pair_routed[runs] = True
        pair_abnormal[runs] = [entry[1] for entry in routed_hits]
        pair_length[runs] = [entry[0].size for entry in routed_hits]
        pair_start[runs] = (
            sum(part.size for part in pool) + np.cumsum(pair_length[runs]) - pair_length[runs]
        )
        pool.extend(entry[0] for entry in routed_hits)

    routed = pair_routed[inverse]
    pair = inverse[routed]
    lengths = pair_length[pair]
    ends = np.cumsum(lengths)
    offsets = ends - lengths
    pool = pool[0] if len(pool) == 1 else np.concatenate(pool or [np.empty(0, np.int64)])
    hop_channel = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    for lo, hi in chunk_spans(ends):
        gather = np.repeat(pair_start[pair[lo:hi]] - offsets[lo:hi], lengths[lo:hi])
        gather += np.arange(offsets[lo], ends[hi - 1])
        hop_channel[offsets[lo] : ends[hi - 1]] = pool[gather]
    return SimPlan(
        width=width,
        height=height,
        attempted=attempted,
        routed=routed,
        offsets=offsets,
        lengths=lengths,
        hop_channel=hop_channel,
        inject=inject_all[routed],
        abnormal=pair_abnormal[pair],
        minimal=(np.abs(dst_x - src_x) + np.abs(dst_y - src_y))[routed],
    )
