"""The per-pair, per-hop netsim plan builder (differential oracle).

Routes every new ``(source, destination)`` pair through the scalar
``router.route``, classifies each hop with
:func:`repro.routing.channels.assign_channels` and flattens it with
:func:`channel_ids` -- one Python iteration per message and per hop.
:func:`repro.netsim.plan.build_plan` must produce the same
:class:`~repro.netsim.plan.SimPlan`, field for field.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.netsim.plan import NUM_VCS, SimPlan
from repro.routing.channels import assign_channels, hop_direction

#: Unit hop delta -> direction code (east, west, north, south).
_DIRECTION: Dict[Tuple[int, int], int] = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}


def channel_ids(assignment, height: int, topology=None) -> np.ndarray:
    """Flatten one :class:`VirtualChannelAssignment` into channel identifiers."""
    ids = np.empty(len(assignment.channels), dtype=np.int64)
    for index, (current, nxt, vc) in enumerate(assignment.channels):
        dx, dy = hop_direction(current, nxt, topology)
        direction = _DIRECTION.get((dx, dy))
        if direction is None:
            raise ValueError(f"non-unit hop {current} -> {nxt} in routed path")
        link = (current[0] * height + current[1]) * 4 + direction
        ids[index] = link * NUM_VCS + vc
    return ids


def build_plan_oracle(
    router,
    batch,
    *,
    path_cache: Optional[Dict] = None,
) -> SimPlan:
    """Route *batch* pair by pair through ``router.route`` into a plan."""
    width, height = router.enabled_mask.shape
    topology = getattr(router, "topology", None)
    cache: Dict = path_cache if path_cache is not None else {}
    src_x, src_y, dst_x, dst_y = (np.asarray(a) for a in batch.as_arrays())
    attempted = int(src_x.size)
    if batch.inject_time is not None:
        inject_all = np.asarray(batch.inject_time, dtype=np.int64)
    else:
        inject_all = np.zeros(attempted, dtype=np.int64)
    routed = np.zeros(attempted, dtype=bool)
    channel_runs = []
    lengths = []
    inject = []
    abnormal = []
    minimal = []
    for index in range(attempted):
        pair = (
            int(src_x[index]),
            int(src_y[index]),
            int(dst_x[index]),
            int(dst_y[index]),
        )
        if pair not in cache:
            result = router.route((pair[0], pair[1]), (pair[2], pair[3]))
            if result.delivered:
                assignment = assign_channels(result, topology=topology)
                cache[pair] = (
                    channel_ids(assignment, height, topology),
                    int(result.abnormal_hops),
                )
            else:
                cache[pair] = None
        entry = cache[pair]
        if entry is None:
            continue
        routed[index] = True
        channel_runs.append(entry[0])
        lengths.append(entry[0].size)
        inject.append(int(inject_all[index]))
        abnormal.append(entry[1])
        minimal.append(abs(pair[2] - pair[0]) + abs(pair[3] - pair[1]))
    lengths_arr = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(lengths_arr.size, dtype=np.int64)
    if lengths_arr.size:
        np.cumsum(lengths_arr[:-1], out=offsets[1:])
    hop_channel = (
        np.concatenate(channel_runs) if channel_runs else np.empty(0, dtype=np.int64)
    )
    return SimPlan(
        width=width,
        height=height,
        attempted=attempted,
        routed=routed,
        offsets=offsets,
        lengths=lengths_arr,
        hop_channel=hop_channel.astype(np.int64, copy=False),
        inject=np.asarray(inject, dtype=np.int64),
        abnormal=np.asarray(abnormal, dtype=np.int64),
        minimal=np.asarray(minimal, dtype=np.int64),
    )
