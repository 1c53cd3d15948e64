"""Unit tests for the routed-path representation."""

from __future__ import annotations

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
