"""Division of the cost array into per-processor owned regions (Figure 2).

Paper §4.1: "The cost array is divided into sections, and each processor is
the owner of one section.  However, each processor has a view of the whole
cost array."

Processors sit on a ``p_rows x p_cols`` grid (the same grid as the CBS mesh
topology): the channel axis is cut into ``p_rows`` bands and the routing
grid axis into ``p_cols`` bands, giving each processor one rectangular
owned region.  :class:`RegionMap` provides:

- the region of each processor and the owner of each cell (vectorised);
- mesh-coordinate geometry (N/S/E/W neighbours, Manhattan distance), used
  both by the SendLocData neighbour optimisation and the locality measure;
- the standard processor-count to grid-shape mapping used in the paper's
  scaling study (2 -> 1x2, 4 -> 2x2, 9 -> 3x3, 16 -> 4x4).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import GridError
from .bbox import BBox

__all__ = ["RegionMap", "proc_grid_shape"]


def proc_grid_shape(n_procs: int) -> Tuple[int, int]:
    """Map a processor count to a near-square ``(rows, cols)`` mesh shape.

    Perfect squares become square meshes (4 -> 2x2, 9 -> 3x3, 16 -> 4x4);
    otherwise the most square factorisation with ``rows <= cols`` is used
    (2 -> 1x2, 8 -> 2x4).  Raises for non-positive counts.
    """
    if n_procs < 1:
        raise GridError(f"need at least one processor, got {n_procs}")
    best = (1, n_procs)
    for rows in range(1, int(np.sqrt(n_procs)) + 1):
        if n_procs % rows == 0:
            best = (rows, n_procs // rows)
    return best


def _band_edges(extent: int, n_bands: int) -> np.ndarray:
    """Split ``extent`` cells into ``n_bands`` near-equal contiguous bands.

    Returns ``n_bands + 1`` edges; band *i* covers ``edges[i]..edges[i+1]-1``.
    Large remainders go to the leading bands (NumPy ``array_split`` order).
    """
    base = extent // n_bands
    rem = extent % n_bands
    sizes = np.full(n_bands, base, dtype=np.int64)
    sizes[:rem] += 1
    edges = np.zeros(n_bands + 1, dtype=np.int64)
    np.cumsum(sizes, out=edges[1:])
    return edges


class RegionMap:
    """Owned-region geometry for a processor mesh over the cost array.

    Parameters
    ----------
    n_channels, n_grids:
        Cost array shape.
    n_procs:
        Number of processors; the mesh shape comes from
        :func:`proc_grid_shape` unless ``shape`` is given explicitly.
    shape:
        Optional explicit ``(p_rows, p_cols)``.
    """

    def __init__(
        self,
        n_channels: int,
        n_grids: int,
        n_procs: int,
        shape: Tuple[int, int] = None,
    ) -> None:
        if shape is None:
            shape = proc_grid_shape(n_procs)
        p_rows, p_cols = shape
        if p_rows * p_cols != n_procs:
            raise GridError(f"mesh shape {shape} does not hold {n_procs} processors")
        if p_rows > n_channels or p_cols > n_grids:
            raise GridError(
                f"mesh {p_rows}x{p_cols} too fine for a {n_channels}x{n_grids} array"
            )
        self.n_channels = n_channels
        self.n_grids = n_grids
        self.n_procs = n_procs
        self.p_rows = p_rows
        self.p_cols = p_cols
        self._row_edges = _band_edges(n_channels, p_rows)
        self._col_edges = _band_edges(n_grids, p_cols)
        # Per-cell owner lookup tables (tiny: one entry per channel/grid).
        self._channel_band = (
            np.searchsorted(self._row_edges, np.arange(n_channels), side="right") - 1
        )
        self._grid_band = (
            np.searchsorted(self._col_edges, np.arange(n_grids), side="right") - 1
        )
        # Regions are immutable once the edges are fixed; build each BBox
        # once instead of on every region() call (the MP update push asks
        # for every region between every pair of wires).
        self._regions: List[BBox] = [
            BBox(
                int(self._row_edges[p // p_cols]),
                int(self._col_edges[p % p_cols]),
                int(self._row_edges[p // p_cols + 1] - 1),
                int(self._col_edges[p % p_cols + 1] - 1),
            )
            for p in range(n_procs)
        ]
        self._cell_owner: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # processor <-> mesh coordinates
    # ------------------------------------------------------------------
    def proc_coords(self, proc: int) -> Tuple[int, int]:
        """Mesh coordinates ``(row, col)`` of processor *proc*."""
        self._check_proc(proc)
        return divmod(proc, self.p_cols)

    def proc_at(self, row: int, col: int) -> int:
        """Processor id at mesh coordinates ``(row, col)``."""
        if not (0 <= row < self.p_rows and 0 <= col < self.p_cols):
            raise GridError(f"mesh coordinates ({row}, {col}) out of range")
        return row * self.p_cols + col

    def neighbors(self, proc: int) -> List[int]:
        """The N/S/E/W mesh neighbours of *proc* (2-4 processors).

        SendLocData packets "are sent only to the North, South, East, and
        West neighbors of the owner processor" (paper §4.3.2).
        """
        row, col = self.proc_coords(proc)
        out: List[int] = []
        if row > 0:
            out.append(self.proc_at(row - 1, col))
        if row < self.p_rows - 1:
            out.append(self.proc_at(row + 1, col))
        if col > 0:
            out.append(self.proc_at(row, col - 1))
        if col < self.p_cols - 1:
            out.append(self.proc_at(row, col + 1))
        return out

    def mesh_distance(self, a: int, b: int) -> int:
        """Manhattan distance between two processors on the mesh."""
        ra, ca = self.proc_coords(a)
        rb, cb = self.proc_coords(b)
        return abs(ra - rb) + abs(ca - cb)

    # ------------------------------------------------------------------
    # regions and owners
    # ------------------------------------------------------------------
    def region(self, proc: int) -> BBox:
        """The owned region of processor *proc* (precomputed, immutable)."""
        self._check_proc(proc)
        return self._regions[proc]

    def owner_of(self, channel: int, x: int) -> int:
        """Owner processor of cell ``(channel, x)``."""
        if not (0 <= channel < self.n_channels and 0 <= x < self.n_grids):
            raise GridError(f"cell ({channel}, {x}) outside the grid")
        return self.proc_at(
            int(self._channel_band[channel]), int(self._grid_band[x])
        )

    def owners_of_cells(self, cells_c: np.ndarray, cells_x: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner_of` over coordinate arrays."""
        return (
            self._channel_band[cells_c] * self.p_cols + self._grid_band[cells_x]
        ).astype(np.int64, copy=False)

    @property
    def cell_owner(self) -> np.ndarray:
        """Owner of every cell, indexed by flat cell (``c * n_grids + x``).

        ``cell_owner[flat]`` equals :meth:`owners_of_cells` of the decoded
        coordinates in one gather; built on first use (only the message
        passing update push reads it) and read-only.
        """
        table = self._cell_owner
        if table is None:
            table = np.add.outer(
                self._channel_band * self.p_cols, self._grid_band
            ).reshape(-1)
            table.flags.writeable = False
            self._cell_owner = table
        return table

    def regions_touched(self, box: BBox) -> Tuple[int, ...]:
        """All processors whose owned region intersects *box*, ascending.

        ReqRmtData uses this: "for each wire, a processor determines which
        regions contain the wire" (§4.3.3) — the wire's bounding box is
        intersected with the region grid.
        """
        if box.c_hi >= self.n_channels or box.x_hi >= self.n_grids:
            raise GridError(f"bbox {box} exceeds grid")
        band_lo = int(self._channel_band[box.c_lo])
        band_hi = int(self._channel_band[box.c_hi])
        col_lo = int(self._grid_band[box.x_lo])
        col_hi = int(self._grid_band[box.x_hi])
        return tuple(
            r * self.p_cols + c
            for r in range(band_lo, band_hi + 1)
            for c in range(col_lo, col_hi + 1)
        )

    def clip_boxes(self, boxes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`regions_touched` and the overlaps, for many boxes at once.

        *boxes* has one ``(c_lo, x_lo, c_hi, x_hi)`` row per box.  Returns
        ``(counts, owners, clips)``: box ``i`` touches ``counts[i]``
        regions, and its ``(region, box ∩ region)`` pairs, regions
        ascending, are the next ``counts[i]`` entries of ``owners`` and
        rows of ``clips``.
        """
        c_lo, x_lo, c_hi, x_hi = np.asarray(boxes, dtype=np.int64).reshape(-1, 4).T
        if c_hi.size and (c_hi.max() >= self.n_channels or x_hi.max() >= self.n_grids):
            raise GridError(f"a box exceeds the {self.n_channels}x{self.n_grids} grid")
        band, col = self._channel_band[c_lo], self._grid_band[x_lo]
        n_cols = self._grid_band[x_hi] - col + 1
        counts = (self._channel_band[c_hi] - band + 1) * n_cols
        box = np.repeat(np.arange(counts.size), counts)
        k = np.arange(box.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = band[box] + k // n_cols[box]  # band-major: owners ascend
        cols = col[box] + k % n_cols[box]
        clips = np.stack(
            (
                np.maximum(c_lo[box], self._row_edges[rows]),
                np.maximum(x_lo[box], self._col_edges[cols]),
                np.minimum(c_hi[box], self._row_edges[rows + 1] - 1),
                np.minimum(x_hi[box], self._col_edges[cols + 1] - 1),
            ),
            axis=1,
        )
        return counts, rows * self.p_cols + cols, clips

    def _check_proc(self, proc: int) -> None:
        if not (0 <= proc < self.n_procs):
            raise GridError(f"processor {proc} out of range [0, {self.n_procs})")

    def __repr__(self) -> str:
        return (
            f"RegionMap({self.n_channels}x{self.n_grids} over "
            f"{self.p_rows}x{self.p_cols} processors)"
        )
