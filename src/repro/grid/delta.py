"""The delta array: change tracking between explicit updates.

Paper §4.1: "we add a new data structure, known as the delta array.  The
delta array has the same dimensions as the cost array, and keeps track of
changes made to the cost array between updates.  This delta array is used
to notify other processors of changes that have been made."

The delta array is what makes the paper's headline traffic reduction
possible: when a wire is ripped up (−1 on its old cells) and rerouted over
a mostly identical path (+1 on the new cells), the overlapping cells cancel
to zero in the delta array and are *never transmitted* — whereas the shared
memory version pays coherence traffic for every individual write (§5.2).

:class:`DeltaArray` records signed changes and supports the per-region
"scan for nonzero, take the bounding box" packet construction of §4.3.1.
Which regions a write can reach is fixed by the written wire and the
processor mesh, so every writer names them: the array keeps one candidate
box per region, and a scan reads only those boxes.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import GridError
from .bbox import BBox

__all__ = ["DeltaArray"]


class DeltaArray:
    """Signed change counts with the same shape as the cost array."""

    __slots__ = ("n_channels", "n_grids", "_data", "_flat", "_boxes")

    def __init__(self, n_channels: int, n_grids: int) -> None:
        if n_channels < 1 or n_grids < 1:
            raise GridError(f"bad delta array shape ({n_channels}, {n_grids})")
        self.n_channels = n_channels
        self.n_grids = n_grids
        self._data = np.zeros((n_channels, n_grids), dtype=np.int32)
        self._flat = self._data.reshape(-1)
        # Region index -> candidate box ``[c_lo, x_lo, c_hi, x_hi]``: a box
        # inside that region bounding every nonzero cell of the region.  A
        # region with no entry is clean.  One box per region, so the map is
        # bounded whether or not anything ever scans it.
        self._boxes: Dict[int, List[int]] = {}

    def __getstate__(self) -> Tuple[np.ndarray, Dict[int, List[int]]]:
        return (self._data, self._boxes)

    def __setstate__(self, state: Tuple[np.ndarray, Dict[int, List[int]]]) -> None:
        # ``_flat`` must stay a view of ``_data`` (see CostArray).
        self._data, self._boxes = state
        self.n_channels, self.n_grids = self._data.shape
        self._flat = self._data.reshape(-1)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_channels, n_grids)``."""
        return (self.n_channels, self.n_grids)

    @property
    def data(self) -> np.ndarray:
        """The live backing array."""
        return self._data

    def record_path(
        self, flat_cells: np.ndarray, delta: int, clips: Iterable[Tuple[int, BBox]]
    ) -> None:
        """Record a path application (+1) or rip-up (−1) on *flat_cells*.

        *clips* are ``(region, box)`` pairs whose boxes, each inside its
        region, cover every written cell: a wire's
        :attr:`~repro.parallel.wire_regions.WireRegionTable.clips`.

        Cancellation happens automatically: a rip-up followed by a re-route
        over the same cell sums to zero and the cell drops out of future
        update packets.
        """
        self._flat[flat_cells] += delta
        self._mark(clips)

    def _mark(self, clips: Iterable[Tuple[int, BBox]]) -> None:
        """Grow each clip's region's candidate box to cover the clip's box."""
        boxes = self._boxes
        for region, box in clips:
            cand = boxes.get(region)
            if cand is None:
                boxes[region] = [box.c_lo, box.x_lo, box.c_hi, box.x_hi]
                continue
            if box.c_lo < cand[0]:
                cand[0] = box.c_lo
            if box.x_lo < cand[1]:
                cand[1] = box.x_lo
            if box.c_hi > cand[2]:
                cand[2] = box.c_hi
            if box.x_hi > cand[3]:
                cand[3] = box.x_hi

    def may_be_dirty(self, region: int) -> bool:
        """False when region index *region* certainly holds no deltas."""
        return region in self._boxes

    def region_dirty_bbox(self, region: BBox) -> Optional[BBox]:
        """Bounding box of nonzero deltas *inside* ``region``.

        Returns ``None`` when the region is clean — the paper's protocols
        suppress updates for clean regions ("if no changes have been made
        in the region to be updated, the update will not be sent out",
        §4.3.2).  Coordinates of the returned box are absolute (grid
        frame), not region-relative.
        """
        rows, cols = region.slices()
        sub = self._data[rows, cols]
        local = BBox.of_nonzero(sub)
        if local is None:
            return None
        return BBox(
            local.c_lo + region.c_lo,
            local.x_lo + region.x_lo,
            local.c_hi + region.c_lo,
            local.x_hi + region.x_lo,
        )

    def dirty_bboxes_by_owner(self, skip: Collection[int] = ()) -> Dict[int, BBox]:
        """Dirty bounding box of every dirty region, ascending by region.

        Equal to :meth:`region_dirty_bbox` of each region not in *skip*
        (clean regions are absent), but only the candidate boxes are read:
        one ``nonzero`` each, after which the box shrinks to the exact
        dirty box or, for a clean region, is dropped.  A node passes the
        regions it owns as *skip*; their SendLocData push scans them.
        """
        boxes = self._boxes
        data = self._data
        dirty: Dict[int, BBox] = {}
        for region in sorted(boxes):
            if region in skip:
                continue
            c_lo, x_lo, c_hi, x_hi = boxes[region]
            rows, cols = data[c_lo : c_hi + 1, x_lo : x_hi + 1].nonzero()
            if not rows.size:
                del boxes[region]
                continue
            # Row-major order: the channels come out sorted.
            xs = cols.tolist()
            cand = [c_lo + int(rows[0]), x_lo + min(xs), c_lo + int(rows[-1]), x_lo + max(xs)]
            boxes[region] = cand
            dirty[region] = BBox(*cand)
        return dirty

    def accumulate(self, box: BBox, deltas: np.ndarray, region: int) -> None:
        """Fold received relative *deltas* into *box*, which lies in *region*.

        Used by owners when they incorporate a remote's SendRmtData /
        RspLocData: the incorporated changes become part of the owner's
        own pending changes, so the next SendLocData push covers them —
        without this, contributions learned from remote processors would
        never reach the owner's neighbours.
        """
        if box.c_hi >= self.n_channels or box.x_hi >= self.n_grids:
            raise GridError(f"bbox {box} exceeds delta array shape {self.shape}")
        if deltas.shape != (box.height, box.width):
            raise GridError(
                f"delta shape {deltas.shape} != bbox {box.height}x{box.width}"
            )
        rows, cols = box.slices()
        self._data[rows, cols] += deltas
        self._mark(((region, box),))

    def extract(self, box: BBox) -> np.ndarray:
        """Copy the delta values of a bbox (payload of SendRmtData)."""
        if box.c_hi >= self.n_channels or box.x_hi >= self.n_grids:
            raise GridError(f"bbox {box} exceeds delta array shape {self.shape}")
        return box.extract(self._data)

    def clear_region(self, region: BBox) -> None:
        """Zero all deltas in ``region`` (after they have been sent).

        Candidate boxes inside ``region`` go with them; one that reaches
        past it still bounds what is left of its region.
        """
        rows, cols = region.slices()
        self._data[rows, cols] = 0
        covered = [
            r
            for r, (c_lo, x_lo, c_hi, x_hi) in self._boxes.items()
            if region.c_lo <= c_lo and c_hi <= region.c_hi
            and region.x_lo <= x_lo and x_hi <= region.x_hi
        ]
        for r in covered:
            del self._boxes[r]

    def clear_all(self) -> None:
        """Zero the whole delta array."""
        self._data[:] = 0
        self._boxes.clear()

    def is_clean(self) -> bool:
        """True if no unsent changes remain anywhere."""
        return not self._data.any()

    def nonzero_count(self) -> int:
        """Number of cells with pending changes."""
        return int(np.count_nonzero(self._data))

    def __repr__(self) -> str:
        return (
            f"DeltaArray({self.n_channels}x{self.n_grids}, "
            f"dirty_cells={self.nonzero_count()})"
        )
