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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..errors import GridError
from .bbox import BBox

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .regions import RegionMap

__all__ = ["DeltaArray"]

_NO_CELLS = np.empty(0, dtype=np.int64)


class DeltaArray:
    """Signed change counts with the same shape as the cost array."""

    __slots__ = ("n_channels", "n_grids", "_data", "_flat", "_touched", "_n_touched")

    def __init__(self, n_channels: int, n_grids: int) -> None:
        if n_channels < 1 or n_grids < 1:
            raise GridError(f"bad delta array shape ({n_channels}, {n_grids})")
        self.n_channels = n_channels
        self.n_grids = n_grids
        self._data = np.zeros((n_channels, n_grids), dtype=np.int32)
        self._flat = self._data.reshape(-1)
        # Flat indices of cells written since the last owner scan.  Every
        # nonzero cell is in here (writes append; clears only zero cells,
        # and zeroed entries are filtered out at scan time), which lets
        # :meth:`dirty_bboxes_by_owner` avoid a full-grid nonzero sweep.
        # Schedules that never push never scan, so a log that outgrows
        # the grid compacts itself (:meth:`_log`).  Measured and kept: one
        # ``flatnonzero`` over the array is as fast on the 3-5k-cell grids
        # of the paper's circuits but 4x slower per push on the
        # 121 980-cell grid of a 15k-wire scaled circuit, which
        # ``locusroute mp --name scaled`` reaches (docs/PERFORMANCE.md,
        # "Measured and kept").
        self._touched: List[np.ndarray] = []
        self._n_touched = 0

    def __getstate__(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        return (self._data, self._touched)

    def __setstate__(self, state: Tuple[np.ndarray, List[np.ndarray]]) -> None:
        # ``_flat`` must stay a view of ``_data`` (see CostArray).
        self._data, self._touched = state
        self.n_channels, self.n_grids = self._data.shape
        self._flat = self._data.reshape(-1)
        self._n_touched = sum(cells.size for cells in self._touched)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_channels, n_grids)``."""
        return (self.n_channels, self.n_grids)

    @property
    def data(self) -> np.ndarray:
        """The live backing array."""
        return self._data

    def record_path(self, flat_cells: np.ndarray, delta: int) -> None:
        """Record a path application (+1) or rip-up (−1) on *flat_cells*.

        Cancellation happens automatically: a rip-up followed by a re-route
        over the same cell sums to zero and the cell drops out of future
        update packets.
        """
        self._flat[flat_cells] += delta
        self._log(flat_cells)

    def _log(self, flat_cells: np.ndarray) -> None:
        """Append written cells to the log; compact it past twice the grid."""
        self._touched.append(flat_cells)
        self._n_touched += flat_cells.size
        if self._n_touched > 2 * self._flat.size:
            self._live_cells()

    def _live_cells(self) -> np.ndarray:
        """The nonzero cells, ascending; they replace the write log."""
        touched = self._touched
        if not touched:
            return _NO_CELLS
        cand = touched[0] if len(touched) == 1 else np.concatenate(touched)
        cand = np.sort(cand)
        if cand.size > 1:
            # Consecutive-duplicate mask: cheaper than np.unique and the
            # input is a concatenation of already-sorted runs.
            keep = np.empty(cand.size, dtype=bool)
            keep[0] = True
            np.not_equal(cand[1:], cand[:-1], out=keep[1:])
            cand = cand[keep]
        live = cand[self._flat[cand] != 0]
        # The live set is exactly the nonzero cells, so the tracking
        # invariant holds for the next scan.
        self._touched = [live] if live.size else []
        self._n_touched = live.size
        return live

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

    def dirty_bboxes_by_owner(self, regions: "RegionMap") -> Dict[int, BBox]:
        """Dirty bounding box of every processor's region, in one scan.

        Equivalent to calling :meth:`region_dirty_bbox` for each region of
        *regions* (owned regions partition the grid, so grouping dirty
        cells by owner yields exactly the per-region dirty boxes), but the
        incremental write log replaces ``n_procs`` region slices — the
        dominant cost of the sender-initiated update push when most
        regions are clean.  Clean regions are simply absent from the
        returned dict.
        """
        live = self._live_cells()
        if live.size == 0:
            return {}
        # Ascending flat indices == row-major scan order, matching what
        # np.nonzero over the full grid would yield.
        n_grids = self.n_grids
        owners = regions.cell_owner[live]
        xx = live % n_grids
        first = int(owners[0])
        if owners[-1] == first and (owners == first).all():
            # Single dirty region — the common case for a locally routed
            # wire; row-major order, so the channels are sorted.
            return {
                first: BBox(
                    int(live[0]) // n_grids, int(xx.min()),
                    int(live[-1]) // n_grids, int(xx.max()),
                )
            }
        order = np.argsort(owners, kind="stable")
        owners_s = owners[order]
        starts = np.flatnonzero(owners_s[1:] != owners_s[:-1]) + 1
        starts = np.concatenate(([0], starts))
        # Row-major order survives the stable sort, so within each owner
        # group the channels stay sorted; only x needs a group min/max.
        live_s = live[order]
        xx_s = xx[order]
        c_lo = (live_s[starts] // n_grids).tolist()
        c_hi = (live_s[np.append(starts[1:], live_s.size) - 1] // n_grids).tolist()
        x_lo = np.minimum.reduceat(xx_s, starts).tolist()
        x_hi = np.maximum.reduceat(xx_s, starts).tolist()
        return {
            owner: BBox(a, b, c, d)
            for owner, a, b, c, d in zip(
                owners_s[starts].tolist(), c_lo, x_lo, c_hi, x_hi
            )
        }

    def accumulate(self, box: BBox, deltas: np.ndarray) -> None:
        """Fold received relative *deltas* into a bbox of this array.

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
        dc, dx = np.nonzero(deltas)
        if dc.size:
            self._log((dc + box.c_lo) * self.n_grids + (dx + box.x_lo))

    def extract(self, box: BBox) -> np.ndarray:
        """Copy the delta values of a bbox (payload of SendRmtData)."""
        if box.c_hi >= self.n_channels or box.x_hi >= self.n_grids:
            raise GridError(f"bbox {box} exceeds delta array shape {self.shape}")
        return box.extract(self._data)

    def clear_region(self, region: BBox) -> None:
        """Zero all deltas in ``region`` (after they have been sent)."""
        rows, cols = region.slices()
        self._data[rows, cols] = 0

    def clear_all(self) -> None:
        """Zero the whole delta array."""
        self._data[:] = 0

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
