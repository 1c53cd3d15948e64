"""The LocusRoute two-bend route evaluator.

LocusRoute (Rose, DAC '88) routes each two-pin connection along one of its
*two-bend* routes: travel horizontally in the source pin's channel to some
column ``xv``, vertically across the intervening cell rows at ``xv``, then
horizontally in the destination pin's channel.  "Each wire is routed along
the path with the minimal sum of the cost array entries" (paper §3) —
LocusRoute evaluates every candidate ``xv`` between the pins and picks the
cheapest.

Multi-pin wires are chained: pins are sorted by ``x`` and consecutive pairs
are routed as independent segments (the classic LocusRoute decomposition);
the wire's footprint is the set union of its segments' cells.

Vectorisation
-------------
Evaluating all ``span + 1`` candidates naively costs O(span²) cell reads.
With pins pre-sorted so ``x1 <= x2``:

- ``H1(xv)`` (cost of the run in channel ``c1`` from ``x1`` to ``xv``) is a
  prefix-sum difference, computed for every ``xv`` at once;
- ``H2(xv)`` likewise in channel ``c2``;
- ``V(xv)`` (cost of the vertical run across the *strictly interior*
  channels) is one ``sum(axis=0)`` over the interior block.

Corner cells belong to the horizontal runs, so ``H1 + V + H2`` prices each
candidate path with no double counting, in O(span + interior area) total.

Work accounting
---------------
The original program evaluated candidates cell by cell; the *simulated*
compute cost of a segment evaluation is therefore the naive count,
``(span+1) * (span+2+interior)`` candidate-cell inspections (see
:mod:`repro.route.workmodel`), even though this implementation computes the
same result faster.  The shared-memory reference *trace* similarly records
the naive footprint: every cell of the segment's bounding rectangle is read.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..circuits.model import Pin, Wire
from ..errors import RoutingError
from ..grid.cost_array import CostArray
from ..kernels import active_kernels
from .path import RoutePath
from .segments import MAX_CANDIDATES, SegmentRoute, WireRoute, candidate_columns
from .wavefront import route_wire_fused

__all__ = [
    "SegmentRoute",
    "WireRoute",
    "route_segment",
    "segment_cells",
    "route_wire",
    "route_wire_reference",
    "MAX_CANDIDATES",
]


def route_segment(
    cost: CostArray, a: Pin, b: Pin, tie_break: int = 0
) -> SegmentRoute:
    """Choose the cheapest two-bend route between pins *a* and *b*.

    Requires ``a.x <= b.x`` (wires store pins sorted).

    ``tie_break`` selects which of several equal-cost candidate columns
    wins: 0 takes the smallest ``xv``, 1 the largest.  The rip-up/reroute
    engines alternate this per iteration, modelling the route churn of the
    original program (whose candidate scan order made equal-cost choices
    unstable between iterations); a fixed deterministic winner would let
    consecutive iterations re-pick identical paths, and the delta-array
    cancellation (§5.2) would then erase nearly all update traffic.
    """
    if a.x > b.x:
        raise RoutingError(f"segment pins out of order: {a} after {b}")
    if tie_break not in (0, 1):
        raise RoutingError(f"tie_break must be 0 or 1, got {tie_break}")
    x1, c1 = a.x, a.channel
    x2, c2 = b.x, b.channel
    c_lo, c_hi = (c1, c2) if c1 <= c2 else (c2, c1)
    span = x2 - x1

    if c1 == c2:
        # Straight run inside one channel: no bend choice to make.
        p = cost.row_prefix(c1)
        run_cost = int(p[x2 + 1] - p[x1])
        return SegmentRoute(
            xv=x1,
            cost=run_cost,
            work_cells=span + 1,
            c1=c1,
            x1=x1,
            c2=c2,
            x2=x2,
            candidates=np.empty(0, dtype=np.int64),
        )

    p1 = cost.row_prefix(c1)
    p2 = cost.row_prefix(c2)
    xv_all = candidate_columns(x1, x2)
    h1 = p1[xv_all + 1] - p1[x1]  # channel c1: x1 .. xv inclusive
    h2 = p2[x2 + 1] - p2[xv_all]  # channel c2: xv .. x2 inclusive
    interior = cost.column_range_sums(c_lo + 1, c_hi - 1, x1, x2)[xv_all - x1]
    totals = h1 + h2 + interior
    if tie_break == 0:
        best = int(np.argmin(totals))  # first minimum: smallest xv
    else:
        best = int(totals.size - 1 - np.argmin(totals[::-1]))  # last minimum
    n_interior = max(0, c_hi - c_lo - 1)
    # Every candidate's path has span + 2 + n_interior cells, so evaluation
    # inspects exactly candidates x that many cells.
    return SegmentRoute(
        xv=int(xv_all[best]),
        cost=int(totals[best]),
        work_cells=int(xv_all.size) * (span + 2 + n_interior),
        c1=c1,
        x1=x1,
        c2=c2,
        x2=x2,
        candidates=xv_all,
    )


def segment_cells(a: Pin, b: Pin, xv: int, n_grids: int) -> np.ndarray:
    """Flat cell indices of the two-bend path through column *xv*.

    The path is: channel ``a.channel`` from ``a.x`` to ``xv``, the interior
    channels at ``xv``, channel ``b.channel`` from ``xv`` to ``b.x``.
    Duplicates cannot occur within one segment by construction.
    """
    if not (min(a.x, b.x) <= xv <= max(a.x, b.x)):
        raise RoutingError(f"xv={xv} outside segment columns [{a.x}, {b.x}]")
    x1, c1 = a.x, a.channel
    x2, c2 = b.x, b.channel
    if c1 == c2:
        # Straight run: the whole column range in the shared channel.
        run = np.arange(min(x1, x2), max(x1, x2) + 1, dtype=np.int64)
        return c1 * n_grids + run
    c_lo, c_hi = (c1, c2) if c1 <= c2 else (c2, c1)
    parts: List[np.ndarray] = [
        c1 * n_grids + np.arange(min(x1, xv), max(x1, xv) + 1, dtype=np.int64)
    ]
    if c_hi - c_lo > 1:
        interior = np.arange(c_lo + 1, c_hi, dtype=np.int64)
        parts.append(interior * n_grids + xv)
    parts.append(
        c2 * n_grids + np.arange(min(xv, x2), max(xv, x2) + 1, dtype=np.int64)
    )
    return np.concatenate(parts)


def route_wire_reference(
    cost: CostArray, wire: Wire, tie_break: int = 0
) -> WireRoute:
    """Per-segment reference evaluation (the differential oracle)."""
    seg_routes: List[SegmentRoute] = []
    cell_parts: List[np.ndarray] = []
    work = 0
    for a, b in wire.segments():
        seg = route_segment(cost, a, b, tie_break=tie_break)
        seg_routes.append(seg)
        cell_parts.append(segment_cells(a, b, seg.xv, cost.n_grids))
        work += seg.work_cells
    path = RoutePath.from_cells(np.concatenate(cell_parts), cost.n_grids)
    return WireRoute(
        path=path,
        cost=cost.path_cost(path.flat_cells),
        work_cells=work,
        segments=tuple(seg_routes),
    )


def route_wire(cost: CostArray, wire: Wire, tie_break: int = 0) -> WireRoute:
    """Route every segment of *wire* against *cost* and union the cells.

    The cost array is *not* modified; callers decide when to commit the
    path (sequential router: immediately; parallel simulators: at the
    wire's commit event).  The reported wire cost prices the *deduplicated*
    footprint, so a cell crossed by two segments of the same wire counts
    once — consistent with the one-increment-per-cell occupancy rule.
    ``tie_break`` is forwarded to the segment evaluator.

    Dispatches on :func:`repro.kernels.active_kernels`: the fused
    lone-wire evaluator :func:`repro.route.wavefront.route_wire_fused` by
    default (one prefix-table buffer over the wire's bounding box, one
    gather, one arg-min), the per-segment :func:`route_wire_reference`
    under ``reference`` mode.  Both produce bit-identical routes.
    """
    if active_kernels() == "vectorized":
        return route_wire_fused(cost, wire, tie_break=tie_break)
    return route_wire_reference(cost, wire, tie_break=tie_break)
