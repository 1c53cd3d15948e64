"""Records and candidate sampling shared by every two-bend evaluator.

The per-segment reference (:mod:`repro.route.twobend`) and the fused and
columnar evaluators (:mod:`repro.route.wavefront`) price the same
candidate columns and report through the same result records.  They live
here, below both modules, so ``twobend`` can import the fused evaluator
and ``wavefront`` the records without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..grid.bbox import BBox
from ..obs import telemetry as obs
from .path import RoutePath

__all__ = ["MAX_CANDIDATES", "candidate_columns", "SegmentRoute", "WireRoute"]

#: Candidate-column cap per segment.  LocusRoute does not evaluate every
#: two-bend route of a chip-crossing wire: long segments sample their
#: candidate columns (Rose, DAC '88) so evaluation cost stays roughly
#: linear in span.  Segments with more than this many columns evaluate a
#: strided sample (endpoints always included), which also keeps the
#: work distribution's tail short enough to load-balance — with full
#: enumeration a single chip-crossing wire costs O(span^2) and no static
#: assignment can balance it.
MAX_CANDIDATES = 64


def candidate_columns(x1: int, x2: int) -> np.ndarray:
    """Candidate vertical columns for a segment spanning ``[x1, x2]``."""
    if x2 - x1 + 1 <= MAX_CANDIDATES:
        return np.arange(x1, x2 + 1, dtype=np.int64)
    # Strided candidate sampling for long segments; both endpoints are
    # always candidates so degenerate detours are never forced.  The
    # rounded linspace is already non-decreasing, so deduplication is a
    # neighbour comparison rather than a full np.unique sort.
    cols = np.linspace(x1, x2, MAX_CANDIDATES).round().astype(np.int64)
    keep = np.empty(cols.size, dtype=bool)
    keep[0] = True
    np.not_equal(cols[1:], cols[:-1], out=keep[1:])
    return cols[keep]


@dataclass(frozen=True, eq=False)
class SegmentRoute:
    """Outcome of routing one two-pin segment.

    Attributes
    ----------
    xv:
        The chosen vertical column.
    cost:
        Sum of cost-array entries along the chosen path (pre-increment).
    work_cells:
        Simulated candidate-cell inspections performed by the evaluation.
    c1, x1, c2, x2:
        The segment's pin coordinates (``x1 <= x2``).
    candidates:
        The candidate columns evaluated (empty for same-channel segments).
    table_segment:
        ``(tables, s)`` when the route was priced from segment ``s`` of a
        circuit's :class:`~repro.route.wavefront.WireTables`: what the
        evaluation read depends on the pins and candidate columns only,
        never on ``xv`` or ``cost``, so :meth:`footprint` takes it from
        the tables; ``None`` (the per-segment reference evaluator)
        computes it on every call.
    """

    xv: int
    cost: int
    work_cells: int
    c1: int
    x1: int
    c2: int
    x2: int
    candidates: np.ndarray
    table_segment: Optional[Tuple[object, int]] = field(
        default=None, compare=False, repr=False
    )

    def __eq__(self, other: object) -> bool:
        # Field by field (the generated one cannot compare the array).
        if not isinstance(other, SegmentRoute):
            return NotImplemented
        return (
            (self.xv, self.cost, self.work_cells)
            == (other.xv, other.cost, other.work_cells)
            and (self.c1, self.x1, self.c2, self.x2)
            == (other.c1, other.x1, other.c2, other.x2)
            and np.array_equal(self.candidates, other.candidates)
        )

    @property
    def read_box(self) -> BBox:
        """The bounding rectangle of everything the evaluation inspected."""
        return BBox(min(self.c1, self.c2), self.x1, max(self.c1, self.c2), self.x2)

    def footprint(self, n_grids: int) -> np.ndarray:
        """:meth:`read_cells`, shared and read-only when a table holds it."""
        held = self.table_segment
        if held is None or held[0].n_grids != n_grids:
            return self.read_cells(n_grids)
        return held[0].read_cells(held[1])

    def read_cells(self, n_grids: int) -> np.ndarray:
        """Flat indices of every cell the evaluation inspected.

        The candidate loop reads the two pin-channel rows *contiguously*
        over the segment's column range, but the interior channels only at
        the sampled candidate columns — a *strided* access pattern.  The
        distinction matters for the shared memory traffic study (Table 3):
        strided references use one word per fetched cache line, so their
        bus cost grows with the line size, while the contiguous row runs
        coalesce.
        """
        parts = [
            self.c1 * n_grids + np.arange(self.x1, self.x2 + 1, dtype=np.int64)
        ]
        if self.c2 != self.c1:
            parts.append(
                self.c2 * n_grids + np.arange(self.x1, self.x2 + 1, dtype=np.int64)
            )
            c_lo, c_hi = sorted((self.c1, self.c2))
            if c_hi - c_lo > 1 and self.candidates.size:
                interior = np.arange(c_lo + 1, c_hi, dtype=np.int64)
                parts.append(
                    (interior[:, None] * n_grids + self.candidates[None, :]).reshape(-1)
                )
        return np.concatenate(parts)


class WireRoute:
    """Outcome of routing a whole wire.

    ``cost`` is the sum of the wire's cells' occupancies at evaluation time
    (the wire's contribution to the occupancy factor when measured on the
    routing view); ``segments`` keeps per-segment detail for tracing and
    the locality measure.

    *segments* is the tuple of :class:`SegmentRoute` records, or a
    zero-argument callable that builds it on first read, counting the
    records in ``route.segments_materialised``: neither simulator reads
    them, so the fused evaluator defers their construction.  A deferred
    builder must not look at the cost array (it has moved on by the time
    anyone asks); ``cost`` is priced by the evaluator for the same reason.
    """

    __slots__ = ("path", "cost", "work_cells", "_segments")

    def __init__(
        self,
        path: RoutePath,
        cost: int,
        work_cells: int,
        segments: Union[Tuple[SegmentRoute, ...], Callable[[], Tuple[SegmentRoute, ...]]],
    ) -> None:
        self.path = path
        self.cost = cost
        self.work_cells = work_cells
        self._segments = segments

    @property
    def segments(self) -> Tuple[SegmentRoute, ...]:
        """Per-segment records, left to right."""
        segments = self._segments
        if not isinstance(segments, tuple):
            segments = self._segments = segments()
            obs.incr("route.segments_materialised", len(segments))
        return segments

    @property
    def read_boxes(self) -> List[BBox]:
        """Rectangles read during evaluation, one per segment."""
        return [s.read_box for s in self.segments]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WireRoute):
            return NotImplemented
        return (
            self.cost == other.cost
            and self.work_cells == other.work_cells
            and self.path == other.path
            and self.segments == other.segments
        )

    def __repr__(self) -> str:
        return (
            f"WireRoute(path={self.path!r}, cost={self.cost}, "
            f"work_cells={self.work_cells}, segments={self.segments!r})"
        )
