"""Routed path representation.

A routed wire occupies a *set* of cost-array cells: the union of the cells
of its two-bend segments.  Representing the path as a sorted, de-duplicated
vector of flat cell indices gives three things cheaply:

- applying / ripping up the path is a single vectorised scatter-add
  (:meth:`~repro.grid.cost_array.CostArray.apply_path`), and the increment/
  decrement symmetry needed by rip-up-and-reroute is exact by construction;
- pricing a path is a single gather-sum;
- a path is a slice of any longer cell column, so a whole routing
  iteration's paths are one column (:class:`PathTable`) and a
  :class:`RoutePath` is a view into it, built only for whoever asks.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from typing import Tuple

import numpy as np

from ..errors import RoutingError
from ..grid.bbox import BBox
from ..obs import telemetry as obs

__all__ = ["RoutePath", "PathTable"]


class RoutePath:
    """An immutable routed path over an ``n_channels x n_grids`` grid.

    Attributes
    ----------
    flat_cells:
        Sorted unique flat cell indices (``channel * n_grids + x``), ``int64``.
    n_grids:
        Grid width used for the flat encoding (needed to decode).

    A hand-written ``__slots__`` class, not a frozen dataclass: a path
    table builds one per lookup, and a view then costs one allocation
    and two slot stores (:meth:`_trusted`).
    """

    __slots__ = ("flat_cells", "n_grids")

    def __init__(self, flat_cells: np.ndarray, n_grids: int) -> None:
        if flat_cells.ndim != 1:
            raise RoutingError("flat_cells must be one-dimensional")
        if flat_cells.size == 0:
            raise RoutingError("a routed path cannot be empty")
        if not np.issubdtype(flat_cells.dtype, np.integer):
            raise RoutingError(f"flat_cells must be integers, got {flat_cells.dtype}")
        # One dtype, so equal paths hash alike.
        cells = flat_cells.astype(np.int64, copy=False)
        if cells.size > 1 and np.any(np.diff(cells) <= 0):
            raise RoutingError("flat_cells must be sorted and unique")
        _store_cells(self, cells)
        _store_width(self, n_grids)

    @staticmethod
    def from_cells(flat_cells: np.ndarray, n_grids: int) -> "RoutePath":
        """Build a path from possibly unsorted / duplicated cell indices."""
        return RoutePath(np.unique(np.asarray(flat_cells, dtype=np.int64)), n_grids)

    @staticmethod
    def _trusted(flat_cells: np.ndarray, n_grids: int) -> "RoutePath":
        """Construct without validation.

        For callers that produce sorted unique ``int64`` cells by
        construction (the wave-front path builder assembles segment runs
        in ascending flat order, a path table slices its cell column);
        skips the constructor's checks on the per-wire hot path.
        """
        path = _new(RoutePath)
        _store_cells(path, flat_cells)
        _store_width(path, n_grids)
        return path

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RoutePath is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"RoutePath is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # A pickled path was valid when built: loading skips the checks, as
        # a cached simulator result holds one path per wire.
        return RoutePath._trusted, (self.flat_cells, self.n_grids)

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


# The slot stores behind the immutable ``__setattr__``.
_new = object.__new__
_store_cells = RoutePath.flat_cells.__set__
_store_width = RoutePath.n_grids.__set__


class PathTable(Mapping[int, RoutePath]):
    """A routing iteration's paths as one cell column, read as a mapping.

    Row ``r`` is wire ``wires[r]``, whose sorted unique cells are
    ``cells[ptr[r]:ptr[r + 1]]``; ``rows[w]`` is wire ``w``'s row, or
    ``-1`` when the table does not hold ``w``.  Rows are in the order the
    wires were routed (wave order under the wave-front kernels), and so
    are the mapping's keys.  Whole-run code reads the columns; looking a
    wire up builds its :class:`RoutePath`, a view into ``cells``, and
    counts it in ``route.paths_materialised``.
    """

    __slots__ = ("cells", "ptr", "wires", "rows", "n_grids")

    def __init__(
        self, cells: np.ndarray, ptr: np.ndarray, wires: np.ndarray, n_grids: int
    ) -> None:
        rows = np.full(int(wires.max()) + 1 if wires.size else 0, -1, dtype=np.int64)
        rows[wires] = np.arange(wires.size)
        self.cells, self.ptr, self.wires, self.rows = cells, ptr, wires, rows
        self.n_grids = n_grids

    @staticmethod
    def from_paths(paths: Mapping[int, RoutePath], n_grids: int) -> "PathTable":
        """The table of *paths*, one row per entry in the mapping's order."""
        parts = [path.flat_cells for path in paths.values()]
        ptr = np.zeros(len(parts) + 1, dtype=np.int64)
        ptr[1:] = np.cumsum([part.size for part in parts])
        cells = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return PathTable(cells, ptr, np.fromiter(paths, np.int64, len(parts)), n_grids)

    def _row(self, wire: object) -> int:
        if isinstance(wire, (int, np.integer)) and 0 <= wire < self.rows.size:
            return int(self.rows[wire])
        return -1

    def __contains__(self, wire: object) -> bool:
        return self._row(wire) >= 0

    def __getitem__(self, wire: int) -> RoutePath:
        row = self._row(wire)
        if row < 0:
            raise KeyError(wire)
        obs.incr("route.paths_materialised")
        return RoutePath._trusted(self.cells[self.ptr[row] : self.ptr[row + 1]], self.n_grids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.wires.tolist())

    def __len__(self) -> int:
        return self.wires.size

    def _paths(self) -> Iterator[RoutePath]:
        """Every row's path in row order: one pointer walk, one count.

        What ``values()`` and ``items()`` iterate; the default views
        would look every key up, which takes about twice as long over a
        15 000-wire table.
        """
        cells, n_grids, ptr = self.cells, self.n_grids, self.ptr.tolist()
        built = 0
        try:
            for lo, hi in zip(ptr, ptr[1:]):
                built += 1
                yield RoutePath._trusted(cells[lo:hi], n_grids)
        finally:
            obs.incr("route.paths_materialised", built)

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"PathTable({len(self)} wires, {self.cells.size} cells)"


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[RoutePath]:
        return self._mapping._paths()


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[int, RoutePath]]:
        return zip(self._mapping, self._mapping._paths())
