"""Unit and property tests for the owned-region map."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GridError
from repro.grid import BBox, RegionMap, proc_grid_shape


class TestProcGridShape:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)), (9, (3, 3)), (16, (4, 4))],
    )
    def test_paper_shapes(self, n, expected):
        assert proc_grid_shape(n) == expected

    def test_prime_counts(self):
        assert proc_grid_shape(7) == (1, 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(GridError):
            proc_grid_shape(0)


class TestRegions:
    def test_regions_partition_the_grid(self, regions_16):
        cover = np.zeros((10, 341), dtype=int)
        for proc in range(16):
            rows, cols = regions_16.region(proc).slices()
            cover[rows, cols] += 1
        assert np.all(cover == 1)

    def test_owner_of_matches_region(self, regions_16):
        for proc in range(16):
            box = regions_16.region(proc)
            assert regions_16.owner_of(box.c_lo, box.x_lo) == proc
            assert regions_16.owner_of(box.c_hi, box.x_hi) == proc

    def test_owners_of_cells_vectorised(self, regions_16):
        rng = np.random.default_rng(0)
        cs = rng.integers(0, 10, size=50)
        xs = rng.integers(0, 341, size=50)
        owners = regions_16.owners_of_cells(cs, xs)
        for c, x, o in zip(cs, xs, owners):
            assert regions_16.owner_of(int(c), int(x)) == o

    def test_out_of_range_cell(self, regions_16):
        with pytest.raises(GridError):
            regions_16.owner_of(10, 0)

    def test_bad_shape_rejected(self):
        with pytest.raises(GridError):
            RegionMap(10, 341, 16, shape=(2, 4))

    def test_too_fine_mesh_rejected(self):
        with pytest.raises(GridError):
            RegionMap(3, 341, 16)  # 4 proc rows > 3 channels


class TestMeshGeometry:
    def test_coords_round_trip(self, regions_16):
        for proc in range(16):
            row, col = regions_16.proc_coords(proc)
            assert regions_16.proc_at(row, col) == proc

    def test_neighbors_interior(self, regions_16):
        # processor 5 = (1,1) on the 4x4 mesh
        assert sorted(regions_16.neighbors(5)) == [1, 4, 6, 9]

    def test_neighbors_corner(self, regions_16):
        assert sorted(regions_16.neighbors(0)) == [1, 4]

    def test_mesh_distance_symmetric(self, regions_16):
        for a in range(16):
            for b in range(16):
                assert regions_16.mesh_distance(a, b) == regions_16.mesh_distance(b, a)

    def test_mesh_distance_values(self, regions_16):
        assert regions_16.mesh_distance(0, 15) == 6  # (0,0) -> (3,3)
        assert regions_16.mesh_distance(0, 0) == 0


class TestRegionsTouched:
    def test_single_region(self, regions_16):
        box = regions_16.region(5)
        assert regions_16.regions_touched(box) == (5,)

    def test_answer_cannot_be_mutated(self, regions_16):
        # A memoised list handed out by reference let one caller's edit
        # corrupt every later answer for the same box.
        box = BBox(0, 0, 9, 340)
        touched = regions_16.regions_touched(box)
        assert isinstance(touched, tuple)
        with pytest.raises((TypeError, AttributeError)):
            touched.append(99)
        assert regions_16.regions_touched(box) == tuple(range(16))

    def test_whole_grid_touches_everyone(self, regions_16):
        box = BBox(0, 0, 9, 340)
        assert sorted(regions_16.regions_touched(box)) == list(range(16))

    @given(
        st.integers(0, 9), st.integers(0, 340), st.integers(0, 9), st.integers(0, 340)
    )
    def test_touched_consistent_with_owner_of(self, c1, x1, c2, x2):
        regions = RegionMap(10, 341, 16)
        box = BBox(min(c1, c2), min(x1, x2), max(c1, c2), max(x1, x2))
        touched = set(regions.regions_touched(box))
        corners = {
            regions.owner_of(box.c_lo, box.x_lo),
            regions.owner_of(box.c_hi, box.x_hi),
            regions.owner_of(box.c_lo, box.x_hi),
            regions.owner_of(box.c_hi, box.x_lo),
        }
        assert corners <= touched

    def test_out_of_range_box(self, regions_16):
        with pytest.raises(GridError):
            regions_16.regions_touched(BBox(0, 0, 10, 5))


class TestCellOwnerTable:
    @pytest.mark.parametrize("n_procs", [1, 2, 6, 16])
    def test_matches_owner_of_every_cell(self, n_procs):
        regions = RegionMap(10, 341, n_procs)
        channels, xs = np.divmod(np.arange(10 * 341), 341)
        assert np.array_equal(regions.cell_owner, regions.owners_of_cells(channels, xs))
        assert regions.cell_owner[3 * 341 + 200] == regions.owner_of(3, 200)

    def test_is_read_only_and_built_once(self, regions_16):
        table = regions_16.cell_owner
        assert regions_16.cell_owner is table
        with pytest.raises(ValueError):
            table[0] = 7


class TestSmallMeshes:
    def test_two_processors(self):
        regions = RegionMap(10, 341, 2)
        assert regions.p_rows == 1 and regions.p_cols == 2
        assert regions.neighbors(0) == [1]

    def test_single_processor(self):
        regions = RegionMap(10, 341, 1)
        assert regions.neighbors(0) == []
        assert regions.region(0) == BBox(0, 0, 9, 340)
