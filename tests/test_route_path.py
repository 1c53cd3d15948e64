"""Unit tests for the routed-path representation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.grid import BBox
from repro.route import RoutePath


class TestConstruction:
    def test_from_cells_sorts_and_dedupes(self):
        path = RoutePath.from_cells(np.array([5, 3, 5, 1]), n_grids=10)
        assert list(path.flat_cells) == [1, 3, 5]
        assert path.n_cells == 3

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            RoutePath(np.empty(0, dtype=np.int64), 10)

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(RoutingError):
            RoutePath(np.array([5, 3], dtype=np.int64), 10)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(RoutingError):
            RoutePath(np.zeros((2, 2), dtype=np.int64), 10)

    def test_cells_stored_as_int64(self):
        # Regression: an int32 path equalled its int64 twin but hashed
        # differently, so a set held both.
        narrow = RoutePath(np.array([1, 5, 9], dtype=np.int32), 10)
        wide = RoutePath(np.array([1, 5, 9]), 10)
        assert narrow.flat_cells.dtype == np.int64
        assert narrow == wide and hash(narrow) == hash(wide)
        assert len({narrow, wide}) == 1
        assert RoutePath(np.array([3, 4], dtype=np.uint16), 10) == RoutePath.from_cells([4, 3], 10)

    @pytest.mark.parametrize("cells", [np.array([1.0, 5.0]), np.array([True, False])])
    def test_non_integer_cells_rejected(self, cells):
        with pytest.raises(RoutingError, match="integers"):
            RoutePath(cells, 10)

    def test_immutable(self):
        path = RoutePath.from_cells(np.array([1, 2]), 10)
        with pytest.raises(AttributeError):
            path.n_grids = 11
        with pytest.raises(AttributeError):
            del path.flat_cells
        with pytest.raises(AttributeError):
            path.extra = 1
        assert path.n_grids == 10


class TestPickle:
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_path_round_trip(self, protocol):
        path = RoutePath.from_cells(np.array([7, 3, 12]), 10)
        again = pickle.loads(pickle.dumps(path, protocol=protocol))
        assert type(again) is RoutePath
        assert again == path and hash(again) == hash(path)
        assert again.flat_cells.dtype == np.int64 and again.n_grids == 10


class TestGeometry:
    def test_coords_decode(self):
        path = RoutePath.from_cells(np.array([0, 11, 25]), n_grids=10)
        channels, xs = path.coords()
        assert list(channels) == [0, 1, 2]
        assert list(xs) == [0, 1, 5]

    def test_bbox(self):
        path = RoutePath.from_cells(np.array([3, 11, 25]), n_grids=10)
        assert path.bbox() == BBox(0, 1, 2, 5)


class TestEqualityHashing:
    def test_equal_paths(self):
        a = RoutePath.from_cells(np.array([1, 2]), 10)
        b = RoutePath.from_cells(np.array([2, 1]), 10)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_grid_widths_unequal(self):
        a = RoutePath.from_cells(np.array([1, 2]), 10)
        b = RoutePath.from_cells(np.array([1, 2]), 11)
        assert a != b

    def test_usable_in_sets(self):
        a = RoutePath.from_cells(np.array([1, 2]), 10)
        b = RoutePath.from_cells(np.array([1, 2]), 10)
        assert len({a, b}) == 1
