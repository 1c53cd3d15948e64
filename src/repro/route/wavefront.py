"""Wave-front batched routing: one fused NumPy step per independence wave.

The sequential rip-up-and-reroute loop routes one wire at a time: rip up,
price every candidate two-bend route, commit, move on.  Each step is a
handful of small NumPy calls, so the Python dispatch overhead around the
arithmetic dominates on real circuits.

This module batches that loop without changing a single routed cell.  The
observation: a wire's evaluation reads only its segments' bounding boxes,
and both its old and its new path lie inside those same boxes (paths are
built from the same pins, so every path cell is inside some segment box).
Two wires whose box unions are disjoint therefore *commute* — routing one
first cannot change what the other reads, rips up, or prices.  Each
iteration greedily partitions the pending wires, in visit order, into
**waves** of pairwise-disjoint footprints, and the wave, not the wire, is
the unit of work (:func:`route_iteration_wavefront`):

1. rip up every wave member's old path in one grouped ``remove_path`` —
   a slice of the previous iteration's :class:`~repro.route.path.PathTable`,
   whose rows are in the same wave order;
2. gather the cells the wave's evaluation reads into one vector, take
   one running sum over it, and fetch every prefix term of *every
   candidate of every bend segment of every wire* with one gather per
   table (the per-order plan stores each wave's indices as a contiguous
   slice); pick each segment's bend column with one ragged
   ``minimum.reduceat``;
3. expand the chosen routes into the wave's path cells, de-duplicate
   them per wire with one sort, price them with one ``path_cost`` and
   commit them with one grouped ``apply_path``.  The wave's cell column
   and row bounds are kept as they are; the iteration's paths are their
   concatenation, and no per-wire object is built.

All geometry that does not depend on the cost array — segment endpoints,
candidate columns, work accounting, footprints — is built once per
circuit as columns (:class:`CircuitGeometry`), in array arithmetic.

Order preservation: the greedy partition defers a wire whose footprint
overlaps *any* earlier pending wire (whether that wire joined the wave or
was itself deferred), so no wire is ever routed before an earlier wire it
could interact with.  Within a wave, disjointness makes the batched
rip-up / evaluate / price / commit schedule produce exactly the
sequential result — :func:`repro.route.twobend.route_wire_reference`
stays the differential oracle and ``locusroute verify`` replays both.

The simulators route one wire at a time against a private view, so they
use the *lone-wire* evaluator :func:`route_wire_fused`: one prefix buffer
over the wire's own box, priced through the wire's rows of per-circuit
tables (:class:`WireTables`) that the circuit's first lone wire builds.

Everything is integer arithmetic over the same ``int64`` sums in the same
per-element association order as the reference evaluator, so the chosen
columns, path cells, costs, and work accounting are bit-identical, not
merely equivalent.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.model import Circuit, Wire
from ..errors import RoutingError
from ..grid.cost_array import CostArray
from ..obs import telemetry as obs
from .path import PathTable, RoutePath
from .segments import MAX_CANDIDATES, SegmentRoute, WireRoute

__all__ = [
    "WireTables",
    "wire_geometry",
    "route_wire_fused",
    "CircuitGeometry",
    "circuit_geometry",
    "plan_waves",
    "plan_waves_reference",
    "route_iteration_wavefront",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _ordered_boxes(order: Sequence[int], boxes: np.ndarray) -> np.ndarray:
    """The columns ``c_lo, x_lo, c_hi, x_hi`` of *order*'s rows of *boxes*, each contiguous."""
    rows = np.asarray(boxes, dtype=np.int64)[np.asarray(order, dtype=np.int64)]
    return np.ascontiguousarray(rows.T)


def plan_waves_reference(order: Sequence[int], boxes: np.ndarray) -> np.ndarray:
    """The wave of every position of *order*, by the O(n^2) recurrence.

    Row ``i`` of *boxes* is wire ``i``'s footprint ``(c_lo, x_lo, c_hi,
    x_hi)`` (the geometry's ``bbox``); entry ``k`` of the result is the
    wave of wire ``order[k]``.  Wave ``w`` is what the ``w``-th round of
    the greedy in-order split yields — a pending wire joins the round's
    wave only if its footprint is disjoint from *every* earlier pending
    wire's, wave members and deferred ones alike — with members in visit
    order.  Computed by the layering recurrence: a wire with no earlier
    overlapping wire joins wave 0, otherwise wave ``1 + max(wave of
    earlier overlapping wires)`` — an earlier overlapping wire in wave
    ``w`` is still pending in every round ``<= w``, blocking this wire
    exactly until round ``w + 1``.  One vectorised overlap test per wire
    replaces the per-round rescan of every deferred wire, and the result
    depends only on (*order*, *boxes*), so callers can cache it across
    iterations.

    This is the differential oracle for :func:`plan_waves` — it tests
    every wire against *all* earlier wires, so it stays trivially
    correct but quadratic.  The spatial-index planner must match it
    bit-for-bit on any input.
    """
    n = len(order)
    wave_no = np.zeros(n, dtype=np.int64)
    if not n:
        return wave_no
    clo, xlo, chi, xhi = _ordered_boxes(order, boxes)
    for k in range(1, n):
        overlap = (
            (clo[:k] <= chi[k])
            & (chi[:k] >= clo[k])
            & (xlo[:k] <= xhi[k])
            & (xhi[:k] >= xlo[k])
        )
        if overlap.any():
            wave_no[k] = wave_no[:k][overlap].max() + 1
    return wave_no


#: Coarse-layer bucket width (power of two for shift indexing): each
#: coarse slot holds the max over 64 fine cells, so wide footprints
#: query/update O(span/64) coarse slots plus two boundary fine slices.
#: Measured and kept: a single-layer planner (fine rows only) yields the
#: same waves but is 2.6x slower at 10k wires, 2.8x at the 15k wires of
#: the ``route_scaled`` benchmark slot and 4.6x (+1.1 s) on the 100k-wire
#: cold route, which is what the coarse/lazy layers and the unit-span
#: cases below are for (docs/PERFORMANCE.md, "Measured and kept").
_COARSE_SHIFT = 6
_COARSE = 1 << _COARSE_SHIFT

#: Footprints narrower than this skip the coarse-layer query; a single
#: C-level slice max over the fine row is cheaper than bucket splits.
_NARROW = 3 * _COARSE

#: Memory guard: most fine-grid cells the index may allocate
#: (n_rows * span).  sqrt-scaled circuit dimensions keep multi-million
#: wire circuits far below this; adversarial coordinates (huge sparse
#: spans) fall back to the exact quadratic oracle instead.
_MAX_GRID_CELLS = 1 << 25


def plan_waves(order: Sequence[int], boxes: np.ndarray) -> np.ndarray:
    """The wave of every position of *order*, via a grid-paint index.

    Same contract and bit-identical output as
    :func:`plan_waves_reference`, but sub-quadratic in practice: one
    skyline row per channel holds, for every grid cell, the maximum
    wave among processed wires covering that cell.  Footprints are
    axis-aligned rectangles on the grid, so two wires overlap iff
    their rectangles share a cell — the recurrence maximum for wire
    ``k`` is exactly the maximum of the skyline over ``k``'s own
    rectangle, read with C-level ``max()`` over list slices.

    The update exploits the recurrence itself: ``w = best + 1``
    strictly exceeds every skyline value under the new rectangle
    (``best`` is their maximum), so committing the wire is a C-level
    slice *overwrite* — no elementwise maximum anywhere.  A coarse
    64:1 max layer serves wide footprints (interior read from the
    coarse row, only the two boundary fragments from the fine row),
    and two exact prunes cut reads further: a per-row running maximum
    skips rows that cannot improve ``best``, and the query stops once
    ``best`` reaches the global maximum wave.  Both leave ``best`` >=
    every cell under the rectangle, which is all overwrite needs.
    """
    if len(order) == 0:
        return np.zeros(0, dtype=np.int64)
    clo, xlo, chi, xhi = _ordered_boxes(order, boxes)
    cmin, xmin = int(clo.min()), int(xlo.min())
    n_rows = int(chi.max()) - cmin + 1
    span = int(xhi.max()) - xmin + 1
    if (
        n_rows * span > _MAX_GRID_CELLS
        # Inverted boxes have no grid-cell representation but still
        # overlap things under the recurrence's interval tests; keep
        # bit-identity by handing them to the oracle.  Likewise
        # pathological coordinates (memory guard above).
        or (clo > chi).any()
        or (xlo > xhi).any()
    ):
        return plan_waves_reference(order, boxes)

    # Three layers per channel row, all plain lists so slice reads and
    # writes run at C speed:
    #   fine[c][x]   cell skyline, possibly stale under a lazy slot
    #   lazy[c][B]   pending full-slot overwrite (cell truth is
    #                max(fine[c][x], lazy[c][x >> 6]))
    #   coarse[c][B] true per-slot maximum (always >= fine and lazy)
    n_coarse = ((span - 1) >> _COARSE_SHIFT) + 1
    fine = [[-1] * span for _ in range(n_rows)]
    lazy = [[-1] * n_coarse for _ in range(n_rows)]
    coarse = [[-1] * n_coarse for _ in range(n_rows)]
    shift = _COARSE_SHIFT
    # Each footprint relative to the index, one column per coordinate:
    # rows cl..ch0, cells xl..xh2 - 1 (xh2 exclusive), coarse slots b0..b1.
    x_start = xlo - xmin
    x_stop = xhi - (xmin - 1)
    columns = zip(
        (clo - cmin).tolist(), x_start.tolist(), (chi - cmin).tolist(), x_stop.tolist(),
        (x_start >> shift).tolist(), ((x_stop - 1) >> shift).tolist(),
    )
    wave: List[int] = []  # entry k: the wave of order[k]
    max_wave = -1

    for cl, xl, ch0, xh2, b0, b1 in columns:
        if b1 == b0:
            # Fast path: the whole footprint lies in one coarse slot
            # (the overwhelmingly common case for local wires).
            if ch0 == cl:
                # ... and in one channel row: no loops at all.
                crow = coarse[cl]
                row = fine[cl]
                cb = crow[b0]
                if xl + 2 == xh2:
                    # Unit-span wires (two cells) are the single most
                    # common footprint; direct indexing skips the slice
                    # allocations of both the query and the commit.
                    xr = xl + 1
                    if cb == -1:
                        w = 0
                    else:
                        m = row[xl]
                        m2 = row[xr]
                        if m2 > m:
                            m = m2
                        m2 = lazy[cl][b0]
                        if m2 > m:
                            m = m2
                        w = m + 1
                    if w > max_wave:
                        max_wave = w
                    wave.append(w)
                    row[xl] = w
                    row[xr] = w
                    if w > cb:
                        crow[b0] = w
                    continue
                if cb == -1:
                    w = 0  # empty slot: nothing can overlap
                else:
                    m = max(row[xl:xh2])
                    m2 = lazy[cl][b0]
                    w = (m2 if m2 > m else m) + 1
                if w > max_wave:
                    max_wave = w
                wave.append(w)
                row[xl:xh2] = [w] * (xh2 - xl)
                if w > cb:
                    crow[b0] = w
                continue
            if ch0 == cl + 1:
                # Two channel rows (extent-1 wires are the next most
                # common): inline both, still loop-free.
                ch2 = cl + 1
                crow = coarse[cl]
                crow2 = coarse[ch2]
                if xl + 2 == xh2:
                    # Unit-span again: direct indexing, no slices.
                    xr = xl + 1
                    row = fine[cl]
                    best = -1
                    if crow[b0] > -1:
                        best = row[xl]
                        m2 = row[xr]
                        if m2 > best:
                            best = m2
                        m2 = lazy[cl][b0]
                        if m2 > best:
                            best = m2
                    if crow2[b0] > best:
                        row2 = fine[ch2]
                        m = row2[xl]
                        if m > best:
                            best = m
                        m = row2[xr]
                        if m > best:
                            best = m
                        m2 = lazy[ch2][b0]
                        if m2 > best:
                            best = m2
                    w = best + 1
                    if w > max_wave:
                        max_wave = w
                    wave.append(w)
                    row[xl] = w
                    row[xr] = w
                    row2 = fine[ch2]
                    row2[xl] = w
                    row2[xr] = w
                    if w > crow[b0]:
                        crow[b0] = w
                    if w > crow2[b0]:
                        crow2[b0] = w
                    continue
                best = -1
                if crow[b0] > -1:
                    best = max(fine[cl][xl:xh2])
                    m2 = lazy[cl][b0]
                    if m2 > best:
                        best = m2
                if crow2[b0] > best:
                    m = max(fine[ch2][xl:xh2])
                    if m > best:
                        best = m
                    m2 = lazy[ch2][b0]
                    if m2 > best:
                        best = m2
                w = best + 1
                if w > max_wave:
                    max_wave = w
                wave.append(w)
                seg = [w] * (xh2 - xl)
                fine[cl][xl:xh2] = seg
                fine[ch2][xl:xh2] = seg
                if w > crow[b0]:
                    crow[b0] = w
                if w > crow2[b0]:
                    crow2[b0] = w
                continue
            ch = ch0 + 1
            best = -1
            if xl + 2 == xh2:
                # Unit-span, many rows: direct indexing per row.
                xr = xl + 1
                for c in range(cl, ch):
                    if coarse[c][b0] <= best:
                        continue
                    row = fine[c]
                    m = row[xl]
                    m2 = row[xr]
                    if m2 > m:
                        m = m2
                    m2 = lazy[c][b0]
                    if m2 > m:
                        m = m2
                    if m > best:
                        best = m
                        if best >= max_wave:
                            break
                w = best + 1
                if w > max_wave:
                    max_wave = w
                wave.append(w)
                for c in range(cl, ch):
                    row = fine[c]
                    row[xl] = w
                    row[xr] = w
                    crow = coarse[c]
                    if w > crow[b0]:
                        crow[b0] = w
                continue
            for c in range(cl, ch):
                # The slot maximum bounds everything under the
                # rectangle: a row that cannot beat the current best
                # is skipped unread.
                if coarse[c][b0] <= best:
                    continue
                m = max(fine[c][xl:xh2])
                m2 = lazy[c][b0]
                if m2 > m:
                    m = m2
                if m > best:
                    best = m
                    if best >= max_wave:
                        break
            w = best + 1
            if w > max_wave:
                max_wave = w
            wave.append(w)
            seg = [w] * (xh2 - xl)
            for c in range(cl, ch):
                fine[c][xl:xh2] = seg
                crow = coarse[c]
                if w > crow[b0]:
                    crow[b0] = w
            continue
        ch = ch0 + 1
        best = -1
        b1p = b1 + 1
        wide = xh2 - xl >= _NARROW
        for c in range(cl, ch):
            crow = coarse[c]
            # Slot maxima bound everything under the rectangle: a row
            # that cannot beat the current best is skipped unread.
            ub = max(crow[b0:b1p])
            if ub <= best:
                continue
            row = fine[c]
            lrow = lazy[c]
            if wide:
                # Interior slots lie fully under the rectangle, so
                # their coarse maxima are exact; only the two boundary
                # fragments read fine cells (plus their lazy slots).
                m = max(crow[b0 + 1 : b1])
                m2 = max(row[xl : (b0 + 1) << shift])
                if m2 > m:
                    m = m2
                m2 = max(row[b1 << shift : xh2])
                if m2 > m:
                    m = m2
                m2 = lrow[b0]
                if m2 > m:
                    m = m2
                m2 = lrow[b1]
                if m2 > m:
                    m = m2
            else:
                m = max(row[xl:xh2])
                m2 = max(lrow[b0:b1p])
                if m2 > m:
                    m = m2
            if m > best:
                best = m
                if best >= max_wave:
                    break
        w = best + 1
        if w > max_wave:
            max_wave = w
        wave.append(w)
        # Commit: w exceeds every cell under the rectangle, so all
        # writes are plain overwrites (see docstring).
        if wide:
            mid0 = (b0 + 1) << shift
            mid1 = b1 << shift
            seg0 = [w] * (mid0 - xl)
            seg1 = [w] * (xh2 - mid1)
            nseg = [w] * (b1 - b0 - 1)
            for c in range(cl, ch):
                row = fine[c]
                row[xl:mid0] = seg0
                row[mid1:xh2] = seg1
                lazy[c][b0 + 1 : b1] = nseg
                crow = coarse[c]
                crow[b0 + 1 : b1] = nseg
                if w > crow[b0]:
                    crow[b0] = w
                if w > crow[b1]:
                    crow[b1] = w
        else:
            seg = [w] * (xh2 - xl)
            for c in range(cl, ch):
                fine[c][xl:xh2] = seg
                crow = coarse[c]
                for b in range(b0, b1p):
                    if w > crow[b]:
                        crow[b] = w

    return np.array(wave, dtype=np.int64)


def _ranges(starts: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """``s, s + step, ...`` (``n`` terms) for every ``(s, n)`` pair, concatenated."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - (ends - counts) * step, counts)
    out += np.arange(0, out.size * step, step)
    return out


def _pointers(counts: np.ndarray) -> np.ndarray:
    """CSR offsets ``[0, c0, c0 + c1, ...]`` of consecutive groups."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _narrowest(bound: int) -> np.dtype:
    """The narrowest integer dtype that holds ``0..bound``.

    The per-order tables dominate what the circuit's cached plan retains.
    """
    dtype = np.min_scalar_type(bound)
    return dtype if dtype.itemsize < 8 else np.dtype(np.int64)


def _narrow(values: np.ndarray, bound: int) -> np.ndarray:
    """*values* (all in ``0..bound``) in the narrowest integer dtype."""
    return values.astype(_narrowest(bound))


def _chunked(
    first: np.ndarray,
    first_ptr: np.ndarray,
    second: np.ndarray,
    second_ptr: np.ndarray,
    bound: int,
) -> np.ndarray:
    """Group by group, the group's *first* entries then its *second*."""
    out = np.empty(first.size + second.size, dtype=_narrowest(bound))
    at = 0
    for f0, f1, s0, s1 in zip(
        first_ptr[:-1].tolist(), first_ptr[1:].tolist(),
        second_ptr[:-1].tolist(), second_ptr[1:].tolist(),
    ):
        mid = at + f1 - f0
        out[at:mid] = first[f0:f1]
        at = mid + s1 - s0
        out[mid:at] = second[s0:s1]
    return out


class CircuitGeometry:
    """Routing-invariant geometry of every wire of a circuit, as columns.

    Segments are numbered wire by wire, each wire's pin chain left to
    right: wire ``w`` owns segments ``seg_ptr[w]:seg_ptr[w + 1]``, and
    segment ``s`` runs from pin ``(x1[s], c1[s])`` to ``(x2[s], c2[s])``.
    A bend segment (``c1 != c2``) prices the candidate columns
    ``cand[cand_ptr[s]:cand_ptr[s + 1]]``; a straight run has none.
    ``seg_work[s]`` is the segment's simulated work, ``work_cells[w]`` the
    wire's, and row ``w`` of ``bbox`` its box ``(c_lo, x_lo, c_hi, x_hi)``.
    Everything is array arithmetic over the circuit's pin table; what the
    lone-wire evaluator reads beside it hangs off ``tables``.
    """

    __slots__ = (
        "seg_ptr", "x1", "c1", "x2", "c2", "cand_ptr", "cand", "seg_work", "work_cells", "bbox",
        "tables",
    )

    def __init__(self, circuit: Circuit) -> None:
        px, pc, pin_ptr = circuit.pin_x, circuit.pin_channel, circuit.pin_ptr
        self.tables: Optional[WireTables] = None  # built when a lone wire first asks

        # A k-pin wire chains k - 1 segments: every pin but the wire's
        # last one starts a segment that ends at the next pin.
        starts_seg = np.ones(px.size, dtype=bool)
        starts_seg[pin_ptr[1:] - 1] = False
        a = np.flatnonzero(starts_seg)
        self.seg_ptr = seg_ptr = pin_ptr - np.arange(pin_ptr.size)
        self.x1, self.c1 = x1, c1 = px[a], pc[a]
        self.x2, self.c2 = x2, c2 = px[a + 1], pc[a + 1]

        span = x2 - x1
        bend = c1 != c2
        n_cand = np.where(bend, np.minimum(span + 1, MAX_CANDIDATES), 0)
        self.cand_ptr = _pointers(n_cand)
        cand = _ranges(x1, n_cand)
        sampled = bend & (span >= MAX_CANDIDATES)
        if sampled.any():
            # Array-valued linspace evaluates ``arange(num) * step + start``
            # per element exactly like the scalar call in
            # ``candidate_columns``.  Its neighbour de-duplication is a
            # no-op here: the step exceeds one, so rounded samples are
            # strictly increasing and every sampled segment keeps all
            # MAX_CANDIDATES columns.
            cand[np.repeat(sampled, n_cand)] = (
                np.linspace(x1[sampled], x2[sampled], MAX_CANDIDATES, axis=-1)
                .round()
                .astype(np.int64)
                .ravel()
            )
        self.cand = cand

        c_lo = np.minimum(c1, c2)
        c_hi = np.maximum(c1, c2)
        # Every candidate's path has span + 2 + interior cells (the naive
        # evaluation inspects them all); a straight run has span + 1.
        self.seg_work = seg_work = np.where(bend, n_cand * (span + 1 + c_hi - c_lo), span + 1)
        first = seg_ptr[:-1]  # every wire has >= 2 pins, so no empty group
        self.work_cells = np.add.reduceat(seg_work, first)
        self.bbox = np.stack(
            (
                np.minimum.reduceat(c_lo, first),
                px[pin_ptr[:-1]],
                np.maximum.reduceat(c_hi, first),
                px[pin_ptr[1:] - 1],
            ),
            axis=1,
        )


def circuit_geometry(circuit: Circuit) -> CircuitGeometry:
    """The circuit's :class:`CircuitGeometry`, cached on the circuit."""
    geom = getattr(circuit, "_wf_geom", None)
    if geom is None:
        geom = CircuitGeometry(circuit)
        object.__setattr__(circuit, "_wf_geom", geom)
    return geom


#: What a padded candidate slot gathers in place of a prefix sum: above
#: every real total, and far enough below the ``int64`` ceiling that the
#: terms added to it cannot wrap.
_PAD = 1 << 62


class WireTables:
    """What the lone-wire evaluator reads, for every wire of a circuit.

    A wire is priced from one flat buffer over its own bounding box: the
    box's row prefix sums (each row led by a zero), then — only for a
    wire with a bend across interior channels — its column prefix sums
    (led by a zero row), then one slot holding ``_PAD``.  Everything else
    is a row of these tables, built for all wires at once by array
    arithmetic over the circuit's :class:`CircuitGeometry`:

    - ``layout[w]``: ``(c_lo, c_hi + 1, x_lo, x_hi + 1)`` of the box, the
      sizes of the row prefix block and of the whole buffer, whether it
      has column sums, the wire's bend count ``nb`` and widest candidate
      row ``W``, where its rows of ``gather`` (``g0``, ``K``),
      ``cand_at`` and ``segs`` start, its segment count and work cells;
    - ``gather[g0 : g0 + 2 * K]``: ``K`` buffer offsets of "+" prefix
      terms, then of the ``K`` matching "-" terms.  Their difference is,
      back to back: the ``nb x W`` matrix of ``H1(xv) + H2(xv)`` less a
      per-bend constant; for a buffer with column sums the ``nb x W``
      matrix ``V(xv)``; the ``nb`` constants (channel ``c2`` up to ``x2``
      less ``c1`` before ``x1``); and the straight runs' costs.  A bend
      with fewer than ``W`` candidates pads its row with ``_PAD - 0``,
      which no arg-min selects;
    - ``cand_at[b0 : b0 + nb]``: where each bend's candidate columns
      start in ``cand`` (the geometry's column);
    - ``segs[s]``: ``(c1, x1, c2, x2)`` of segment ``s`` and its slice of
      ``cand``, numbered like the geometry's segments;
    - ``cells``: the identity vector over the grid — a path's runs are
      slices of it;
    - ``seg_ptr``: wire ``w`` owns segments ``seg_ptr[w]:seg_ptr[w + 1]``
      (the geometry's column);
    - the cells each segment's evaluation reads (what the Tango collector
      records), built for the whole circuit when first asked for
      (:meth:`read_column`).
    """

    __slots__ = (
        "n_grids", "layout", "gather", "cand", "cand_at", "segs", "cells", "seg_ptr", "_read",
    )

    def __init__(self, geom: CircuitGeometry, n_channels: int, n_grids: int) -> None:
        self.n_grids, self._read = n_grids, None
        self.cand, self.seg_ptr = geom.cand, geom.seg_ptr
        self.cells = np.arange(n_channels * n_grids, dtype=np.int64)
        self.cells.setflags(write=False)
        c1, x1, c2, x2, cand_ptr = geom.c1, geom.x1, geom.c2, geom.x2, geom.cand_ptr
        segs = np.stack((c1, x1, c2, x2, cand_ptr[:-1], cand_ptr[1:], geom.seg_work), axis=1)
        self.segs = _narrow(segs, int(segs.max()))  # read a wire at a time, as lists

        # Per wire.
        first = geom.seg_ptr[:-1]
        n_seg = np.diff(geom.seg_ptr)
        c_lo, x_lo, c_hi, x_hi = geom.bbox.T
        n_rows, width = c_hi - c_lo + 1, x_hi - x_lo + 1
        stride = width + 1
        rowp_size = n_rows * stride
        bend = c1 != c2
        n_cand = np.diff(cand_ptr)
        nb = np.add.reduceat(bend.astype(np.int64), first)
        W = np.maximum.reduceat(n_cand, first)
        needs_col = np.maximum.reduceat(np.abs(c2 - c1), first) > 1
        pad_at = rowp_size + needs_col * (n_rows + 1) * width  # the buffer's last slot
        tail_at = nb * W * (1 + needs_col)  # the constants and straight runs, in K
        K = tail_at + n_seg
        g_ptr = _pointers(2 * K)
        b_ptr = _pointers(nb)
        layout = np.stack(
            (c_lo, c_hi + 1, x_lo, x_hi + 1, rowp_size, pad_at + 1, needs_col, nb, W,
             g_ptr[:-1], K, b_ptr[:-1], first, n_seg, geom.work_cells),
            axis=1,
        )
        self.layout = _narrow(layout, int(layout.max()))
        self.gather = gather = np.empty(int(g_ptr[-1]), dtype=np.int64)

        def put(at: np.ndarray, wire: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> None:
            gather[at] = plus
            gather[at + K[wire]] = minus

        # Per segment, a wire's bends before its straight runs: through
        # (c2, x2) less before (c1, x1), as offsets into the row prefix block.
        wire = np.repeat(np.arange(n_seg.size), n_seg)
        row1 = (c1 - c_lo[wire]) * stride[wire] - x_lo[wire]
        row2 = (c2 - c_lo[wire]) * stride[wire] - x_lo[wire]
        bends_before = np.cumsum(bend) - bend - b_ptr[wire]
        straight_before = np.arange(bend.size) - first[wire] - bends_before
        rank = np.where(bend, bends_before, nb[wire] + straight_before)
        put(g_ptr[wire] + tail_at[wire] + rank, wire, row2 + x2 + 1, row1 + x1)

        # Per slot of every bend's W-wide candidate row.
        b = np.flatnonzero(bend)
        self.cand_at = cand_ptr[b]
        wire = wire[b]
        at = _ranges(g_ptr[wire] + bends_before[b] * W[wire], W[wire])
        slot = _ranges(np.zeros(b.size, dtype=np.int64), W[wire])
        b = np.repeat(b, W[wire])
        wire = np.repeat(wire, W[wire])
        real = slot < n_cand[b]
        xv = self.cand[np.where(real, cand_ptr[b] + slot, 0)]
        put(
            at, wire,
            np.where(real, row1[b] + xv + 1, pad_at[wire]),
            np.where(real, row2[b] + xv, 0),
        )
        # V, where the buffer has column sums: through the last interior
        # channel less through the lower pin's channel (equal, so zero, for
        # a bend between adjacent channels).
        v = np.flatnonzero(needs_col[wire])
        b, wire, real = b[v], wire[v], real[v]
        col = (rowp_size - x_lo)[wire] + xv[v]
        below = (np.minimum(c1, c2)[b] - c_lo[wire] + 1) * width[wire]
        above = (np.maximum(c1, c2)[b] - c_lo[wire]) * width[wire]
        put(
            at[v] + (nb * W)[wire], wire,
            np.where(real, col + above, 0), np.where(real, col + below, 0),
        )
        obs.incr("route.geometry_builds")
        obs.incr("route.geometry_wires", n_seg.size)

    def read_column(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cells, ptr)``: pricing segment ``s`` reads ``cells[ptr[s]:ptr[s + 1]]``,
        its ``SegmentRoute.read_cells``.  Both read-only."""
        if self._read is None:
            c1, x1, c2, x2, k0, k1, _ = self.segs.T.astype(np.int64)
            n, n_cand = self.n_grids, k1 - k0
            # Channel c1 then (for a bend) channel c2 over x1..x2 ...
            n_run = np.stack((x2 - x1 + 1, (x2 - x1 + 1) * (c1 != c2)), axis=1)
            runs = _ranges((np.stack((c1, c2), axis=1) * n + x1[:, None]).ravel(), n_run.ravel())
            # ... then every interior channel at the candidate columns.
            n_int = np.maximum(np.abs(c2 - c1) - 1, 0)
            seg = np.repeat(np.arange(n_int.size), n_int)
            channel = _ranges(np.minimum(c1, c2) + 1, n_int)
            inner = self.cand[_ranges(k0[seg], n_cand[seg])] + np.repeat(channel * n, n_cand[seg])
            n_run, n_inner = n_run.sum(axis=1), n_int * n_cand
            ptr = _pointers(n_run + n_inner)
            cells = np.empty(int(ptr[-1]), dtype=np.int64)
            cells[_ranges(ptr[:-1], n_run)] = runs
            cells[_ranges(ptr[:-1] + n_run, n_inner)] = inner
            cells.setflags(write=False)
            ptr.setflags(write=False)
            self._read = cells, ptr
        return self._read

    def read_cells(self, s: int) -> np.ndarray:
        """What pricing segment *s* reads: a slice of :meth:`read_column`."""
        cells, ptr = self.read_column()
        return cells[ptr[s] : ptr[s + 1]]


def wire_geometry(wire: Wire, n_grids: int) -> Tuple[WireTables, int]:
    """The tables that hold *wire*'s geometry, and its row in them.

    A wire handed out by a circuit (``Wire._home``, ``_index``) reads that circuit's
    tables, which the first of its wires to ask builds for all of them; a
    wire that belongs to none — or whose circuit is gone, or has another
    grid width — is a one-wire circuit through the same builder.  The
    answer is stamped on the wire: a row depends on the pins and the grid
    width only, so it stays right whichever circuit adopts the wire next.
    """
    rows = wire._rows
    if rows is None or rows[0].n_grids != n_grids:
        circuit = wire._home and wire._home()
        if circuit is not None and circuit.n_grids == n_grids:
            index = wire._index
        else:
            pins, index = wire.pins, 0
            circuit = Circuit.from_columns(
                wire.name, max(p.channel for p in pins) + 1, n_grids,
                [p.x for p in pins], [p.channel for p in pins], (0, len(pins)),
            )
        geom = circuit_geometry(circuit)
        if geom.tables is None:
            geom.tables = WireTables(geom, *circuit.shape)
        rows = geom.tables, index
        object.__setattr__(wire, "_rows", rows)
    return rows


def _evaluate_single(
    cost: CostArray, tables: WireTables, row: Sequence[int], tie_break: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Price one wire's segments against *cost* with a single fused step.

    *row* is the wire's ``layout`` row.  Returns the chosen column and
    the cost of every bend segment, then the cost of every straight run,
    each in segment order and none a view of the cost array.

    Both prefix tables are built in one flat buffer over exactly the
    wire's bounding box and every prefix-sum term of every segment is
    fetched by the wire's one precomputed gather (see
    :class:`WireTables`).  Bit-identical to per-segment
    :func:`repro.route.twobend.route_segment` — exact integer sums are
    association-free, so regrouping the reference's ``H1 + H2 + V`` into
    matrix plus constant changes nothing, and ties are broken on
    identical totals.
    """
    c_lo, c_hi, x_lo, x_hi, rowp_size, buf_size, needs_col, nb, W, g0, K, b0 = row[:12]
    block = cost.data[c_lo:c_hi, x_lo:x_hi]
    buf = np.zeros(buf_size, dtype=np.int64)
    buf[-1] = _PAD
    # (ufunc.accumulate is ndarray.cumsum without a microsecond of wrapper.)
    np.add.accumulate(block, 1, np.int64, buf[:rowp_size].reshape(c_hi - c_lo, -1)[:, 1:])
    if needs_col:
        np.add.accumulate(block, 0, np.int64, buf[rowp_size:-1].reshape(c_hi - c_lo + 1, -1)[1:])

    gathered = buf[tables.gather[g0 : g0 + 2 * K]]
    diff = gathered[:K] - gathered[K:]
    if not nb:
        return _EMPTY, _EMPTY, diff
    nbW = nb * W
    totals = diff[:nbW].reshape(nb, W)
    tail = nbW
    if needs_col:
        # V: strictly interior channels c_lo+1..c_hi-1 at column xv
        # (zero for adjacent-channel bends, same as the reference).
        tail += nbW
        totals += diff[nbW:tail].reshape(nb, W)
    totals += diff[tail : tail + nb, None]
    if tie_break == 0:
        best = totals.argmin(axis=1)  # first minimum: smallest xv
    else:
        # Last minimum: padded slots sit near _PAD, so the reversed
        # arg-min lands on the last *real* minimum, exactly the
        # reference's totals[::-1] scan.
        best = W - 1 - totals[:, ::-1].argmin(axis=1)
    return tables.cand[tables.cand_at[b0 : b0 + nb] + best], totals.min(axis=1), diff[tail + nb :]


def _segment_routes(
    tables: WireTables, first: int, segs: List[List[int]],
    b_xv: np.ndarray, b_cost: np.ndarray, s_cost: np.ndarray,
) -> Tuple[SegmentRoute, ...]:
    """The :class:`SegmentRoute` records of one :func:`_evaluate_single`."""
    bends = zip(b_xv.tolist(), b_cost.tolist())
    straight = iter(s_cost.tolist())
    cand = tables.cand
    routes: List[SegmentRoute] = []
    for s, (c1, x1, c2, x2, k0, k1, work) in enumerate(segs, first):
        xv, cost = (x1, next(straight)) if c1 == c2 else next(bends)
        # Everything but xv and cost is static: filling the instance dict
        # skips the frozen dataclass's per-field constructor.
        route = object.__new__(SegmentRoute)
        route.__dict__.update(
            xv=xv, cost=cost, work_cells=work, c1=c1, x1=x1, c2=c2, x2=x2,
            candidates=cand[k0:k1], table_segment=(tables, s),
        )
        routes.append(route)
    return tuple(routes)


def _build_path(tables: WireTables, segs: List[List[int]], xvs: List[int]) -> RoutePath:
    """Assemble the wire's :class:`RoutePath` from its bends' chosen columns.

    Every run of a two-bend path is a slice of the identity vector, and a
    segment's runs are emitted in ascending flat order (low channel run,
    interior column, high channel run), so the one-segment common case
    skips the sort and constructs the path without re-validation;
    multi-segment wires union through a sort and a duplicate mask exactly
    like the reference's ``np.unique``.
    """
    cells, n = tables.cells, tables.n_grids
    parts: List[np.ndarray] = []
    bend_xvs = iter(xvs)
    for c1, x1, c2, x2, _, _, _ in segs:
        a, b = c1 * n, c2 * n
        if a == b:  # a straight run's cells never depend on the cost array
            parts.append(cells[a + x1 : a + x2 + 1])
            continue
        xv = next(bend_xvs)
        run1, run2 = cells[a + x1 : a + xv + 1], cells[b + xv : b + x2 + 1]
        if a < b:
            parts += (run1, cells[a + n + xv : b + xv : n], run2)
        else:
            parts += (run2, cells[b + n + xv : a + xv : n], run1)
    if len(parts) == 1:  # single straight run: the slice is the path
        return RoutePath._trusted(parts[0], n)
    path = np.concatenate(parts)
    if len(segs) > 1:
        path.sort()
        # Sort + consecutive-duplicate mask == np.unique, minus its overhead.
        keep = np.empty(path.size, dtype=bool)
        keep[0] = True
        np.not_equal(path[1:], path[:-1], out=keep[1:])
        path = path[keep]
    return RoutePath._trusted(path, n)


def route_wire_fused(cost: CostArray, wire: Wire, tie_break: int = 0) -> WireRoute:
    """Fused single-wire evaluation — a one-wire wave.

    Bit-identical to :func:`repro.route.twobend.route_wire_reference`,
    including the per-segment :class:`SegmentRoute` detail records, which
    are built when first read (neither simulator reads them:
    ``route.segments_materialised`` counts the builds).
    """
    if tie_break not in (0, 1):
        raise RoutingError(f"tie_break must be 0 or 1, got {tie_break}")
    tables, w = wire_geometry(wire, cost.n_grids)
    row = tables.layout[w].tolist()
    first, n_seg, work_cells = row[12:]
    segs = tables.segs[first : first + n_seg].tolist()
    b_xv, b_cost, s_cost = _evaluate_single(cost, tables, row, tie_break)
    path = _build_path(tables, segs, b_xv.tolist())
    return WireRoute(
        path,
        cost.path_cost(path.flat_cells),
        work_cells,
        partial(_segment_routes, tables, first, segs, b_xv, b_cost, s_cost),
    )


class _WavePlan:
    """One visit order's waves, laid out so that each wave is a slice.

    The plan permutes the order's segments into wave order and stores,
    per wave, contiguous slices of

    - ``read_cells``: the flat cost-array cells the wave's evaluation
      reads — for every bend segment the columns ``x1..x2`` of channel
      ``c1`` then of channel ``c2``, then for every candidate column of
      every segment that crosses interior channels the cells
      ``(c_lo + 1..c_hi - 1, xv)``.  One gather and one running ``int64``
      sum over that vector replace per-wire prefix tables, so a wave's
      table work is bounded by what the wave reads, not by the grid;
    - the gather tables ``plus`` / ``minus`` into that running sum, whose
      difference is, per candidate column ``xv`` of every bend segment,
      ``H1(xv) + H2(xv)`` less a per-segment constant (the sum over
      ``c1`` up to ``xv`` minus the sum over ``c2`` before ``xv``),
      followed for waves with an interior channel by ``V(xv)``.  The
      constant (``c1`` before ``x1``, ``c2`` up to ``x2``) that completes
      the reference's ``H1 + H2 + V`` cannot move an arg-min and the wave
      step never reports per-segment costs, so it is not fetched;
    - everything static about the wave's path cells as *sort keys*
      ``rank * n_cells + cell`` (``rank`` = the wire's position in its
      wave): straight runs whole, interior column cells up to the chosen
      column, and the base keys of the two row runs of every bend.

    The rows of the :class:`PathTable` it routes are its wires in wave
    order (``wire_seq``); wave ``w`` owns rows ``wave_rows[w]:wave_rows[w + 1]``.
    """

    __slots__ = (
        "wire_seq", "wave_rows", "work_cells", "n_cells", "n_grids", "steps",
        "read_cells", "plus", "minus", "cand", "cand_j", "cand_start",
        "x1m1", "x2p1", "a_base", "c_base",
        "s_keys", "v_keys", "v_seg", "rank_base",
    )

    def __init__(
        self, geom: CircuitGeometry, order: np.ndarray, waves: np.ndarray,
        n_channels: int, n_grids: int,
    ) -> None:
        self.n_grids = n_grids
        self.n_cells = n_cells = n_channels * n_grids

        # *waves* is :func:`plan_waves`' column: a stable sort by wave keeps
        # each wave's members in visit order.
        self.wire_seq = wire_seq = order[np.argsort(waves, kind="stable")]
        sizes = np.bincount(waves)
        n_waves = sizes.size
        self.wave_rows = _pointers(sizes)
        self.work_cells = int(geom.work_cells[wire_seq].sum())
        max_size = int(sizes.max()) if n_waves else 0
        self.rank_base = np.arange(max_size + 1, dtype=np.int64) * n_cells
        key_bound = max_size * n_cells
        wave_edges = np.arange(n_waves + 1)

        # Segments in wave order, each tagged with its wave and with its
        # wire's sort-key base.
        n_seg = geom.seg_ptr[wire_seq + 1] - geom.seg_ptr[wire_seq]
        seg = _ranges(geom.seg_ptr[wire_seq], n_seg)
        seg_wave = np.repeat(np.repeat(wave_edges[:-1], sizes), n_seg)
        key0 = np.repeat(_ranges(np.zeros(n_waves, dtype=np.int64), sizes), n_seg) * n_cells
        x1, c1, x2, c2 = geom.x1[seg], geom.c1[seg], geom.x2[seg], geom.c2[seg]
        is_bend = c1 != c2

        # Straight runs never depend on the cost array: whole keys.
        s = np.flatnonzero(~is_bend)
        s_len = x2[s] - x1[s] + 1
        self.s_keys = _narrow(_ranges(key0[s] + c1[s] * n_grids + x1[s], s_len), key_bound)
        s_ptr = _pointers(s_len)[np.searchsorted(seg_wave[s], wave_edges)]

        # Bend segments: run bases, candidates, what they read.
        b = np.flatnonzero(is_bend)
        b_wave = seg_wave[b]
        b_ptr = np.searchsorted(b_wave, wave_edges)
        n_bend = np.diff(b_ptr)
        bx1, bc1, bx2, bc2, bkey0 = x1[b], c1[b], x2[b], c2[b], key0[b]
        c_lo = np.minimum(bc1, bc2)
        interior = np.maximum(bc1, bc2) - c_lo - 1
        self.x1m1 = bx1 - 1
        self.x2p1 = bx2 + 1
        self.a_base = bkey0 + bc1 * n_grids + bx1
        self.c_base = bkey0 + bc2 * n_grids

        n_cand = geom.cand_ptr[seg[b] + 1] - geom.cand_ptr[seg[b]]
        cand = geom.cand[_ranges(geom.cand_ptr[seg[b]], n_cand)]
        cand_ptr = _pointers(n_cand)
        k_ptr = cand_ptr[b_ptr]
        cand_wave = np.repeat(b_wave, n_cand)
        self.cand = _narrow(cand, n_grids)
        self.cand_j = _ranges(np.zeros(b.size, dtype=np.int64), n_cand).astype(np.uint8)
        self.cand_start = _narrow(
            cand_ptr[:-1] - np.repeat(k_ptr[:-1], n_bend), max(int(cand_ptr[-1]), 1)
        )

        def per_cand(column: np.ndarray) -> np.ndarray:
            return np.repeat(column, n_cand)

        # What each wave reads: per segment, channel c1 then channel c2
        # over x1..x2; then per candidate of a channel-crossing segment,
        # channels c_lo+1..c_hi-1 at xv.  The two cell vectors are the
        # largest intermediates of the build, so they come first and as
        # argument expressions: each is freed once copied.
        width = bx2 - bx1 + 1
        row_ptr = _pointers(2 * width)
        cand_int = per_cand(interior)
        int_ptr = _pointers(cand_int)
        self.read_cells = _chunked(
            _ranges(
                np.stack((bc1 * n_grids + bx1, bc2 * n_grids + bx1), axis=1).ravel(),
                np.repeat(width, 2),
            ),
            row_ptr[b_ptr],
            _ranges(per_cand((c_lo + 1) * n_grids) + cand, cand_int, n_grids),
            int_ptr[k_ptr],
            n_cells,
        )
        row_total = np.diff(row_ptr[b_ptr])  # per wave
        int_total = np.diff(int_ptr[k_ptr])
        r_ptr = _pointers(row_total + int_total)
        read_bound = max(int(np.diff(r_ptr).max()), 1) if n_waves else 1

        # Positions in the wave's running sum.  Rows: through (c1, xv),
        # less through (c2, xv - 1) one row run further on.
        row_at = row_ptr[:-1] - np.repeat(row_ptr[b_ptr[:-1]], n_bend)
        h_plus = per_cand(row_at - bx1) + cand
        h_minus = h_plus + per_cand(width - 1)
        # Interior, only for waves that have any: through the candidate's
        # last interior cell, less through the cell before its first.
        has_interior = int_total > 0
        with_v = has_interior[cand_wave]
        int_at = (row_total[cand_wave] + int_ptr[:-1] - int_ptr[k_ptr[:-1]][cand_wave])[with_v]
        crosses = cand_int[with_v] > 0
        v_minus = np.where(crosses, int_at - 1, 0)
        v_plus = np.where(crosses, int_at + cand_int[with_v] - 1, 0)
        # Wave w's slice of each table: its row entries, then its interior ones.
        v_ptr_k = _pointers(np.diff(k_ptr) * has_interior)
        self.plus = _chunked(h_plus, k_ptr, v_plus, v_ptr_k, read_bound)
        self.minus = _chunked(h_minus, k_ptr, v_minus, v_ptr_k, read_bound)
        t_ptr = k_ptr + v_ptr_k

        # Interior path cells: static up to the chosen column xv.
        v_ptr = _pointers(interior)[b_ptr]
        self.v_keys = _narrow(
            _ranges(bkey0 + (c_lo + 1) * n_grids, interior, n_grids), key_bound
        )
        self.v_seg = _narrow(
            np.repeat(np.arange(b.size) - np.repeat(b_ptr[:-1], n_bend), interior),
            max(b.size, 1),
        )

        def slices(ptr: np.ndarray):
            return zip(ptr[:-1].tolist(), ptr[1:].tolist())

        self.steps = list(
            zip(slices(self.wave_rows), slices(r_ptr), slices(t_ptr), slices(k_ptr),
                slices(b_ptr), slices(s_ptr), slices(v_ptr))
        )

    def _previous(self, prev: Optional[PathTable]) -> Tuple[np.ndarray, List[int]]:
        """*prev*'s cells in this plan's row order, and each wave's bounds in them.

        A table this plan routed is already in that order, so each wave's
        old cells are a slice of it; any other table is gathered once.
        """
        if prev is None or not len(prev):
            return _EMPTY, [0] * (len(self.steps) + 1)
        if np.array_equal(prev.wires, self.wire_seq):
            cells, ptr = prev.cells, prev.ptr
        else:
            wires = self.wire_seq
            rows = np.full(wires.size, -1, dtype=np.int64)
            held = wires < prev.rows.size
            rows[held] = prev.rows[wires[held]]
            lens = np.where(rows >= 0, prev.ptr[rows + 1] - prev.ptr[rows], 0)
            cells, ptr = prev.cells[_ranges(prev.ptr[rows], lens)], _pointers(lens)
        return cells, ptr[self.wave_rows].tolist()

    def route(
        self, cost: CostArray, prev: Optional[PathTable], tie_break: int
    ) -> Tuple[int, PathTable]:
        """Route every wave against *cost*, ripping up *prev*'s paths first.

        Returns the occupancy sum and the new paths, rows in wave order.
        """
        n_cells = self.n_cells
        flat = cost.data.reshape(-1)
        old, old_at = self._previous(prev)
        occupancy = 0
        cell_parts: List[np.ndarray] = []
        row_parts: List[np.ndarray] = []

        for step, o0, o1 in zip(self.steps, old_at, old_at[1:]):
            (w0, w1), (r0, r1), (t0, t1), (k0, k1), (b0, b1), (s0, s1), (v0, v1) = step
            if o1 > o0:
                # Disjoint footprints: one grouped rip-up == per-wire rip-ups.
                cost.remove_path(old[o0:o1])

            key_parts = [self.s_keys[s0:s1]]
            if b1 > b0:
                prefix = np.cumsum(flat[self.read_cells[r0:r1]], dtype=np.int64)
                totals = prefix[self.plus[t0:t1]]
                totals -= prefix[self.minus[t0:t1]]
                n_cand = k1 - k0
                if t1 - t0 > n_cand:
                    totals[:n_cand] += totals[n_cand:]
                    totals = totals[:n_cand]

                # Ragged arg-min: fold the candidate's position into the
                # low bits so one minimum.reduceat yields both the minimum
                # and its first (tie_break 0) or last (1) position.
                totals *= MAX_CANDIDATES
                starts = self.cand_start[b0:b1]
                if tie_break == 0:
                    totals += self.cand_j[k0:k1]
                    j = np.minimum.reduceat(totals, starts) % MAX_CANDIDATES
                else:
                    totals -= self.cand_j[k0:k1]
                    j = -np.minimum.reduceat(totals, starts) % MAX_CANDIDATES
                xv = self.cand[k0:k1][starts + j].astype(np.int64)

                # Row runs as (base key, length): channel c1 from x1 to
                # xv, channel c2 from xv to x2.
                lens = np.concatenate((xv - self.x1m1[b0:b1], self.x2p1[b0:b1] - xv))
                bases = np.concatenate((self.a_base[b0:b1], self.c_base[b0:b1] + xv))
                key_parts.append(_ranges(bases, lens))
                if v1 > v0:
                    key_parts.append(self.v_keys[v0:v1] + xv[self.v_seg[v0:v1]])

            # One sort orders every wire's cells (keys are rank-major) and
            # brings the duplicates of multi-segment wires together.
            keys = np.concatenate(key_parts, dtype=np.int64)
            keys.sort()
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
            cells = keys % n_cells

            # Price before the grouped commit: no other wave member's
            # cells intersect a wire's path, so the sum equals the
            # sequential prices taken right after each wire's own rip-up.
            occupancy += cost.path_cost(cells)
            cost.apply_path(cells)
            cell_parts.append(cells)
            row_parts.append(np.searchsorted(keys, self.rank_base[: w1 - w0]))

        # Wave-local row starts, shifted by where each wave's cells begin.
        wave_cells = _pointers(np.fromiter(map(len, cell_parts), np.int64, len(cell_parts)))
        row_at = np.concatenate([_EMPTY, *row_parts])
        row_at += np.repeat(wave_cells[:-1], np.diff(self.wave_rows))
        cells = np.concatenate([_EMPTY, *cell_parts])
        table = PathTable(cells, np.append(row_at, cells.size), self.wire_seq, self.n_grids)
        return occupancy, table


def _wave_plan(circuit: Circuit, order: Sequence[int]) -> _WavePlan:
    """The :class:`_WavePlan` of *order*, cached on the circuit.

    The decomposition depends only on the visit order and the static
    geometry boxes, so it is identical in every iteration.  One slot: a
    run reuses one order across its iterations, and a run that changes
    the order replaces the plan rather than retaining an O(n) plan per
    order for the circuit's lifetime.
    """
    key = tuple(order)
    cached = getattr(circuit, "_wf_waves", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    geom = circuit_geometry(circuit)
    wires = np.array(key, dtype=np.int64)
    waves = plan_waves(wires, geom.bbox)
    plan = _WavePlan(geom, wires, waves, circuit.n_channels, circuit.n_grids)
    object.__setattr__(circuit, "_wf_waves", (key, plan))
    return plan


def route_iteration_wavefront(
    cost: CostArray,
    circuit: Circuit,
    order: Sequence[int],
    prev: Optional[PathTable],
    tie_break: int,
) -> Tuple[int, int, PathTable]:
    """One full rip-up-and-reroute iteration, routed in waves.

    Rips up *prev*'s path of every wire of *order* (``None`` before the
    first iteration) and routes the wires, mutating *cost* exactly as the
    sequential per-wire loop would.  Returns ``(occupancy, work_cells,
    table)``: the iteration's occupancy sum and work, and the
    :class:`PathTable` of *order*'s wires, rows in wave order.
    Footprints are the wires' static geometry boxes — both the old and
    the new path of a wire always lie inside its own geometry box, so
    the partition never needs to look at current paths.
    """
    if tie_break not in (0, 1):
        raise RoutingError(f"tie_break must be 0 or 1, got {tie_break}")
    if cost.shape != circuit.shape:
        raise RoutingError(
            f"cost array {cost.shape} does not match circuit grid {circuit.shape}"
        )
    plan = _wave_plan(circuit, order)
    occupancy, table = plan.route(cost, prev, tie_break)
    return occupancy, plan.work_cells, table
