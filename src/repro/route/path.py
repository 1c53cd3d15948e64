"""Routed path representation.

A routed wire occupies a *set* of cost-array cells: the union of the cells
of its two-bend segments.  Representing the path as a sorted, de-duplicated
vector of flat cell indices gives three things cheaply:

- applying / ripping up the path is a single vectorised scatter-add
  (:meth:`~repro.grid.cost_array.CostArray.apply_path`), and the increment/
  decrement symmetry needed by rip-up-and-reroute is exact by construction;
- pricing a path is a single gather-sum;
- set operations (overlap between old and new routes — the delta-array
  cancellation effect of §5.2) are sorted-array intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import RoutingError
from ..grid.bbox import BBox

__all__ = ["RoutePath"]


@dataclass(frozen=True)
class RoutePath:
    """An immutable routed path over an ``n_channels x n_grids`` grid.

    Attributes
    ----------
    flat_cells:
        Sorted unique flat cell indices (``channel * n_grids + x``).
    n_grids:
        Grid width used for the flat encoding (needed to decode).
    """

    flat_cells: np.ndarray
    n_grids: int

    def __post_init__(self) -> None:
        cells = self.flat_cells
        if cells.ndim != 1:
            raise RoutingError("flat_cells must be one-dimensional")
        if cells.size == 0:
            raise RoutingError("a routed path cannot be empty")
        if cells.size > 1 and np.any(np.diff(cells) <= 0):
            raise RoutingError("flat_cells must be sorted and unique")

    @staticmethod
    def from_cells(flat_cells: np.ndarray, n_grids: int) -> "RoutePath":
        """Build a path from possibly unsorted / duplicated cell indices."""
        return RoutePath(np.unique(np.asarray(flat_cells, dtype=np.int64)), n_grids)

    @staticmethod
    def _trusted(flat_cells: np.ndarray, n_grids: int) -> "RoutePath":
        """Construct without validation.

        For callers that produce sorted unique int64 cells by construction
        (the wave-front path builder assembles segment runs in ascending
        flat order); skips the ``__post_init__`` scan on the per-wire
        hot path.
        """
        path = object.__new__(RoutePath)
        object.__setattr__(path, "flat_cells", flat_cells)
        object.__setattr__(path, "n_grids", n_grids)
        return path

    @property
    def n_cells(self) -> int:
        """Number of distinct cells the path occupies."""
        return int(self.flat_cells.size)

    def coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Decode to ``(channels, xs)`` coordinate vectors."""
        channels, xs = np.divmod(self.flat_cells, self.n_grids)
        return channels, xs

    def bbox(self) -> BBox:
        """Bounding box of the path's cells."""
        channels, xs = self.coords()
        return BBox(int(channels[0]), int(xs.min()), int(channels[-1]), int(xs.max()))

    def overlap_cells(self, other: "RoutePath") -> int:
        """Number of cells shared with *other* (sorted intersection)."""
        return int(
            np.intersect1d(self.flat_cells, other.flat_cells, assume_unique=True).size
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutePath):
            return NotImplemented
        return self.n_grids == other.n_grids and bool(
            np.array_equal(self.flat_cells, other.flat_cells)
        )

    def __hash__(self) -> int:
        return hash((self.n_grids, self.flat_cells.tobytes()))

    def __repr__(self) -> str:
        return f"RoutePath({self.n_cells} cells, bbox={self.bbox().as_tuple()})"
