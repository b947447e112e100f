"""Labelling schemes 1 and 2 as synchronous fixed-point iterations.

The two labelling schemes of the paper (Section 2.3, originally from Wu's
IPDPS 2001 sub-minimum faulty polygon construction) drive both baseline
fault models and the centralized minimum-faulty-polygon emulation:

* **Labelling scheme 1** (growing phase): all faulty nodes are *unsafe* and
  all non-faulty nodes are *safe* initially.  A non-faulty node changes to
  unsafe if it has a faulty or unsafe neighbour in **both** dimensions;
  otherwise it remains safe.  At the fixed point the connected unsafe
  regions are rectangular faulty blocks.
* **Labelling scheme 2** (shrinking phase): faulty nodes are *disabled*,
  safe nodes are *enabled*; an unsafe non-faulty node starts disabled and
  becomes enabled once it has two or more enabled neighbours.  At the fixed
  point the disabled regions are orthogonal convex polygons.

Each node only ever inspects its neighbours, so a synchronous sweep of the
whole grid corresponds to one *round* of neighbour information exchange in
the distributed system -- this is exactly the quantity reported in the
paper's Figure 11.  The implementation below performs the sweeps as whole-
array numpy operations (one shift per direction), which makes the 100x100
evaluation sweeps fast while producing the same label trajectory as the
per-node message-passing protocol in :mod:`repro.distributed.labelling_protocol`
(the equivalence is asserted by the integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mesh.topology import Topology, Torus2D


@dataclass(frozen=True)
class LabellingResult:
    """Outcome of running one labelling scheme to its fixed point.

    ``labels`` is a boolean array indexed ``[x, y]``; its meaning depends on
    the scheme (``True`` = unsafe for scheme 1, ``True`` = disabled for
    scheme 2).  ``rounds`` is the number of synchronous update rounds in
    which at least one node changed its label; the fixed point is reached
    after exactly this many rounds of neighbour information exchange.
    """

    labels: np.ndarray
    rounds: int


def _shift(mask: np.ndarray, dx: int, dy: int, wrap: bool, fill=None) -> np.ndarray:
    """Return *mask* shifted by ``(dx, dy)`` with zero/*fill* (or wrap) fill.

    ``shifted[x, y] == mask[x - dx, y - dy]``: the value each node sees from
    its neighbour at offset ``(-dx, -dy)``.  On a mesh, positions outside the
    grid contribute ``False`` (a missing neighbour is never unsafe/enabled),
    or *fill* when given -- integer label arrays shifted by the mask kernel
    in :mod:`repro.geometry.masks` use a sentinel fill; on a torus the array
    wraps around.
    """
    if wrap:
        return np.roll(mask, shift=(dx, dy), axis=(0, 1))
    if fill is None:
        result = np.zeros_like(mask)
    else:
        result = np.full_like(mask, fill)
    width, height = mask.shape
    src_x = slice(max(0, -dx), width - max(0, dx))
    dst_x = slice(max(0, dx), width - max(0, -dx))
    src_y = slice(max(0, -dy), height - max(0, dy))
    dst_y = slice(max(0, dy), height - max(0, -dy))
    result[dst_x, dst_y] = mask[src_x, src_y]
    return result


def _neighbour_views(
    mask: np.ndarray, wrap: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return what every node sees of *mask* at its W, E, S, N neighbours."""
    west = _shift(mask, +1, 0, wrap)   # value of the neighbour at x-1
    east = _shift(mask, -1, 0, wrap)   # value of the neighbour at x+1
    south = _shift(mask, 0, +1, wrap)  # value of the neighbour at y-1
    north = _shift(mask, 0, -1, wrap)  # value of the neighbour at y+1
    return west, east, south, north


def apply_labelling_scheme_1(
    faulty: np.ndarray,
    topology: Optional[Topology] = None,
    max_rounds: Optional[int] = None,
) -> LabellingResult:
    """Run labelling scheme 1 (growing) to its fixed point.

    Parameters
    ----------
    faulty:
        Boolean array ``[x, y]`` of injected faults.
    topology:
        Optional topology; only used to decide whether neighbourhoods wrap
        (torus) or not (mesh, the default).
    max_rounds:
        Optional safety cap on the number of rounds.  The scheme is
        monotone -- every round before the fixed point turns at least one
        node unsafe and no node ever turns back -- so it converges within
        ``width * height`` changing rounds; the default cap
        ``width * height + 1`` (those rounds plus the final check) is
        never hit.  The round count can far exceed ``width + height``:
        fault staircases make the unsafe region grow a few nodes per
        round, and a clustered 100x100 mesh can need hundreds of rounds.

    Returns
    -------
    LabellingResult
        ``labels`` is the unsafe mask (faulty nodes included); ``rounds`` is
        the number of rounds in which some node newly became unsafe.
    """
    wrap = isinstance(topology, Torus2D)
    unsafe = faulty.copy()
    width, height = unsafe.shape
    cap = max_rounds if max_rounds is not None else width * height + 1
    rounds = 0
    for _ in range(cap):
        west, east, south, north = _neighbour_views(unsafe, wrap)
        x_threat = west | east
        y_threat = south | north
        new_unsafe = unsafe | (x_threat & y_threat)
        if np.array_equal(new_unsafe, unsafe):
            break
        unsafe = new_unsafe
        rounds += 1
    else:  # only an explicit max_rounds below the default can be hit
        raise RuntimeError("labelling scheme 1 did not converge")
    return LabellingResult(labels=unsafe, rounds=rounds)


def apply_labelling_scheme_2(
    faulty: np.ndarray,
    unsafe: np.ndarray,
    topology: Optional[Topology] = None,
    max_rounds: Optional[int] = None,
    missing_neighbours_enabled: bool = False,
) -> LabellingResult:
    """Run labelling scheme 2 (shrinking) to its fixed point.

    Parameters
    ----------
    faulty:
        Boolean fault mask; these nodes stay disabled forever.
    unsafe:
        Output of labelling scheme 1; non-faulty unsafe nodes start disabled
        and may be re-enabled.
    topology:
        Optional topology (wrap behaviour on a torus).
    max_rounds:
        Optional safety cap on the number of rounds.  Like scheme 1 the
        scheme is monotone (every round before the fixed point enables at
        least one node, and enabled nodes stay enabled), so the default
        cap ``width * height + 1`` is never hit.
    missing_neighbours_enabled:
        On a mesh, whether a neighbour position that falls outside the grid
        counts as an *enabled* neighbour.  The physical network has no such
        node, so the faithful baseline behaviour (used for the FB/FP models)
        is ``False``.  The per-component emulation of the centralized
        minimum-faulty-polygon solution sets it to ``True`` so that mesh
        borders do not artificially pin non-faulty nodes inside a polygon;
        see ``repro.core.mfp`` for the discussion.

    Returns
    -------
    LabellingResult
        ``labels`` is the disabled mask; ``rounds`` counts the rounds in
        which some node became enabled.
    """
    if faulty.shape != unsafe.shape:
        raise ValueError("faulty and unsafe masks must have the same shape")
    wrap = isinstance(topology, Torus2D)
    disabled = unsafe.copy()
    disabled |= faulty  # faulty nodes are disabled by definition
    width, height = disabled.shape
    cap = max_rounds if max_rounds is not None else width * height + 1
    rounds = 0
    if wrap and missing_neighbours_enabled:
        # A torus has no missing neighbours; the flag is meaningless there.
        missing_neighbours_enabled = False
    for _ in range(cap):
        enabled = ~disabled
        west, east, south, north = _neighbour_views(enabled, wrap)
        if missing_neighbours_enabled and not wrap:
            # Positions beyond the mesh border behave as permanently enabled
            # virtual nodes: patch the shifted views on the border slices.
            west[0, :] = True
            east[-1, :] = True
            south[:, 0] = True
            north[:, -1] = True
        enabled_neighbours = (
            west.astype(np.int8)
            + east.astype(np.int8)
            + south.astype(np.int8)
            + north.astype(np.int8)
        )
        newly_enabled = disabled & ~faulty & (enabled_neighbours >= 2)
        if not newly_enabled.any():
            break
        disabled = disabled & ~newly_enabled
        rounds += 1
    else:  # only an explicit max_rounds below the default can be hit
        raise RuntimeError("labelling scheme 2 did not converge")
    return LabellingResult(labels=disabled, rounds=rounds)


def faults_to_mask(faults, width: int, height: int) -> np.ndarray:
    """Build a boolean ``[x, y]`` fault mask from a coordinate collection.

    The whole collection is validated and written with one fancy-index
    assignment; an out-of-grid fault raises ``ValueError`` naming the first
    offending coordinate (in iteration order).
    """
    from repro.geometry.masks import validated_coords

    mask = np.zeros((width, height), dtype=bool)
    coords = validated_coords(faults, width, height, kind="fault", where="grid")
    if coords.size:
        mask[coords[:, 0], coords[:, 1]] = True
    return mask
