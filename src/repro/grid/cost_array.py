"""The LocusRoute cost array.

"LocusRoute's central data structure is a cost array that keeps a record of
the number of wires running through each routing grid of the circuit"
(paper §3).  The array has shape ``(n_channels, n_grids)``; entry ``(c, x)``
counts the wires currently occupying channel ``c`` at grid column ``x``.

:class:`CostArray` wraps a NumPy ``int32`` array with the operations the
router and the update protocols need:

- apply / remove a routed path (vectorised scatter-add on flat indices);
- candidate evaluation helpers (row prefix sums, column range sums) used by
  the two-bend router;
- region extraction / replacement for update packets;
- quality metrics hooks (per-channel maxima for circuit height).

The array deliberately allows *negative transients only as an error*: since
every decrement must correspond to an earlier increment of the same path,
a well-behaved client can never drive an entry below zero.  ``remove_path``
checks this in debug mode (`strict=True`, the default) because it is the
single most effective canary for rip-up bookkeeping bugs.  Rip-up must
mirror application exactly: a path applied with ``apply_path(cells, delta)``
is ripped up with ``remove_path(cells, delta)`` using the *same* delta, and
the strict canary checks each entry against that delta (an entry below the
delta being removed proves the path was never applied at that weight).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import GridError
from .bbox import BBox

__all__ = ["CostArray"]


class CostArray:
    """Wire-occupancy counts over the routing grid.

    Parameters
    ----------
    n_channels, n_grids:
        Grid dimensions.
    data:
        Optional initial contents (copied); must match the dimensions.
    """

    __slots__ = ("n_channels", "n_grids", "_data", "_flat")

    def __init__(
        self,
        n_channels: int,
        n_grids: int,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if n_channels < 1 or n_grids < 1:
            raise GridError(f"bad cost array shape ({n_channels}, {n_grids})")
        self.n_channels = n_channels
        self.n_grids = n_grids
        if data is None:
            self._data = np.zeros((n_channels, n_grids), dtype=np.int32)
        else:
            if data.shape != (n_channels, n_grids):
                raise GridError(
                    f"data shape {data.shape} != ({n_channels}, {n_grids})"
                )
            self._data = np.array(data, dtype=np.int32, copy=True, order="C")
        # The path operations index flat cells; the 1-D view of the
        # (C-contiguous) backing array is taken once, not per call.
        self._flat = self._data.reshape(-1)

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_channels, n_grids)``."""
        return (self.n_channels, self.n_grids)

    @property
    def data(self) -> np.ndarray:
        """The live backing array (mutations are visible to this object)."""
        return self._data

    def copy(self) -> "CostArray":
        """Deep copy."""
        return CostArray(self.n_channels, self.n_grids, self._data)

    @classmethod
    def wrap(cls, data: np.ndarray) -> "CostArray":
        """Adopt *data* as the live backing array **without copying**.

        This is how the live shared-memory router views the grid that
        lives in a ``multiprocessing.shared_memory`` segment: every
        process wraps the same buffer, so writes by one worker are
        immediately visible (and deliberately unsynchronised — stale —
        for readers, paper §3).

        The buffer must be a C-contiguous ``int32`` array of shape
        ``(n_channels, n_grids)``.
        """
        if not isinstance(data, np.ndarray) or data.ndim != 2:
            raise GridError("wrap needs a 2-D numpy array")
        if data.dtype != np.int32:
            raise GridError(f"wrap needs int32 data, got {data.dtype}")
        if not data.flags["C_CONTIGUOUS"]:
            raise GridError("wrap needs a C-contiguous buffer")
        n_channels, n_grids = (int(s) for s in data.shape)
        if n_channels < 1 or n_grids < 1:
            raise GridError(f"bad cost array shape ({n_channels}, {n_grids})")
        self = object.__new__(cls)
        self.n_channels = n_channels
        self.n_grids = n_grids
        self._data = data
        self._flat = data.reshape(-1)
        return self

    def __getstate__(self) -> Tuple[np.ndarray]:
        return (self._data,)

    def __setstate__(self, state: Tuple[np.ndarray]) -> None:
        # ``_flat`` must stay a view of ``_data``: pickling both slots
        # would bring back two unrelated arrays.
        (data,) = state
        self.n_channels, self.n_grids = data.shape
        self._data = data
        self._flat = data.reshape(-1)

    def __getitem__(self, key):  # noqa: ANN001 - numpy fancy indexing passthrough
        return self._data[key]

    def total_occupancy(self) -> int:
        """Sum of all entries (total wire-cells routed)."""
        return int(self._data.sum())

    # ------------------------------------------------------------------
    # path application
    # ------------------------------------------------------------------
    def apply_path(self, flat_cells: np.ndarray, delta: int = 1) -> None:
        """Add *delta* to every cell in *flat_cells* (flat indices).

        ``flat_cells`` must contain each cell at most once — paths are cell
        *sets* (see :mod:`repro.route.path`), so a wire contributes one
        wire-count per cell it occupies regardless of how many of its
        segments cross that cell.
        """
        if flat_cells.size == 0:
            return
        self._flat[flat_cells] += delta

    def remove_path(
        self, flat_cells: np.ndarray, delta: int = 1, strict: bool = True
    ) -> None:
        """Rip up a previously applied path (subtract *delta* from its cells).

        *delta* must match the delta the path was applied with, so a
        multi-delta :meth:`apply_path` can be ripped up exactly.  With
        ``strict`` (default) raises :class:`GridError` if any cell would go
        negative — i.e. any entry is below *delta* — which always indicates
        double rip-up, a path that was never applied, or a delta mismatch.
        """
        if flat_cells.size == 0:
            return
        flat = self._flat
        if strict and (flat[flat_cells] < delta).any():
            raise GridError("rip-up would drive a cost array entry negative")
        flat[flat_cells] -= delta

    def path_cost(self, flat_cells: np.ndarray) -> int:
        """Sum of entries over a set of cells (the path's routing cost)."""
        if flat_cells.size == 0:
            return 0
        return int(self._flat[flat_cells].sum())

    # ------------------------------------------------------------------
    # candidate evaluation helpers (vectorised two-bend router)
    # ------------------------------------------------------------------
    def row_prefix(self, channel: int) -> np.ndarray:
        """Exclusive prefix sums of one channel row.

        ``row_prefix(c)[x]`` is the sum of entries ``(c, 0..x-1)``; the
        returned array has length ``n_grids + 1``, so the inclusive range
        sum over columns ``[a..b]`` is ``p[b+1] - p[a]``.
        """
        p = np.zeros(self.n_grids + 1, dtype=np.int64)
        np.cumsum(self._data[channel], out=p[1:])
        return p

    def column_range_sums(
        self, c_lo: int, c_hi: int, x_lo: int, x_hi: int
    ) -> np.ndarray:
        """Per-column sums of rows ``c_lo..c_hi`` over columns ``x_lo..x_hi``.

        Used to price the vertical run of every candidate two-bend route at
        once.  Rows are *inclusive*; an empty row range yields zeros.
        """
        if c_lo > c_hi:
            return np.zeros(x_hi - x_lo + 1, dtype=np.int64)
        block = self._data[c_lo : c_hi + 1, x_lo : x_hi + 1]
        return block.sum(axis=0, dtype=np.int64)

    # ------------------------------------------------------------------
    # regions / update support
    # ------------------------------------------------------------------
    def extract(self, box: BBox) -> np.ndarray:
        """Copy a bbox of entries out (for SendLocData / response packets)."""
        self._check_box(box)
        return box.extract(self._data)

    def replace(self, box: BBox, values: np.ndarray) -> None:
        """Overwrite a bbox with absolute *values* (receiving SendLocData)."""
        self._check_box(box)
        if values.shape != (box.height, box.width):
            raise GridError(
                f"replacement shape {values.shape} != bbox {box.height}x{box.width}"
            )
        rows, cols = box.slices()
        self._data[rows, cols] = values

    def accumulate(self, box: BBox, deltas: np.ndarray) -> None:
        """Add relative *deltas* into a bbox (receiving SendRmtData)."""
        self._check_box(box)
        if deltas.shape != (box.height, box.width):
            raise GridError(
                f"delta shape {deltas.shape} != bbox {box.height}x{box.width}"
            )
        rows, cols = box.slices()
        self._data[rows, cols] += deltas

    def channel_maxima(self) -> np.ndarray:
        """Per-channel maximum occupancy — the routing tracks each channel
        needs; their sum is the *circuit height* quality metric."""
        return self._data.max(axis=1)

    def _check_box(self, box: BBox) -> None:
        if box.c_hi >= self.n_channels or box.x_hi >= self.n_grids:
            raise GridError(f"bbox {box} exceeds array shape {self.shape}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostArray):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __repr__(self) -> str:
        return (
            f"CostArray({self.n_channels}x{self.n_grids}, "
            f"total={self.total_occupancy()})"
        )
