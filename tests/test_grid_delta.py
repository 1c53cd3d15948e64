"""Unit and property tests for the delta array."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GridError
from repro.grid import BBox, DeltaArray
from repro.grid.regions import RegionMap


def flat(cells, n_grids=12):
    return np.unique(np.array([c * n_grids + x for c, x in cells], dtype=np.int64))


class TestRecording:
    def test_record_and_cancel(self):
        delta = DeltaArray(4, 12)
        cells = flat([(1, 3), (1, 4)])
        delta.record_path(cells, +1)
        assert not delta.is_clean()
        delta.record_path(cells, -1)
        assert delta.is_clean()

    def test_partial_cancellation(self):
        """Rip-up + reroute over a mostly shared path leaves only the
        symmetric difference dirty — the §5.2 cancellation effect."""
        delta = DeltaArray(4, 12)
        old = flat([(1, 3), (1, 4), (1, 5)])
        new = flat([(1, 4), (1, 5), (1, 6)])
        delta.record_path(old, -1)
        delta.record_path(new, +1)
        assert delta.nonzero_count() == 2
        assert delta.data[1, 3] == -1 and delta.data[1, 6] == 1

    def test_pickle_keeps_the_flat_view_of_the_data(self):
        # __slots__ would pickle ``_flat`` as an array of its own; the
        # copy's writes must land in its data.
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(1, 3), (4, 9), (5, 11)]), +1)
        back = pickle.loads(pickle.dumps(delta))
        assert np.array_equal(back.data, delta.data)
        assert np.shares_memory(back._flat, back._data)
        regions = RegionMap(6, 12, 4)
        assert back.dirty_bboxes_by_owner(regions) == delta.dirty_bboxes_by_owner(regions)
        back.record_path(flat([(0, 0)]), +1)
        assert back.data[0, 0] == 1 and delta.data[0, 0] == 0

    def test_empty_record_noop(self):
        delta = DeltaArray(4, 12)
        delta.record_path(np.empty(0, dtype=np.int64), 1)
        assert delta.is_clean()


class TestRegionScan:
    def test_dirty_bbox_absolute_coordinates(self):
        delta = DeltaArray(6, 12)
        region = BBox(2, 4, 5, 11)
        delta.record_path(flat([(3, 6), (4, 9)]), +1)
        assert delta.region_dirty_bbox(region) == BBox(3, 6, 4, 9)

    def test_dirty_bbox_none_for_clean_region(self):
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(0, 0)]), +1)
        assert delta.region_dirty_bbox(BBox(3, 3, 5, 11)) is None

    def test_dirty_bbox_clips_to_region(self):
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(0, 0), (3, 6)]), +1)
        region = BBox(2, 4, 5, 11)
        assert delta.region_dirty_bbox(region) == BBox(3, 6, 3, 6)

    def test_clear_region_only_clears_region(self):
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(0, 0), (3, 6)]), +1)
        delta.clear_region(BBox(2, 4, 5, 11))
        assert delta.data[3, 6] == 0
        assert delta.data[0, 0] == 1

    def test_clear_all(self):
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(0, 0), (3, 6)]), +1)
        delta.clear_all()
        assert delta.is_clean()


class TestExtractAccumulate:
    def test_extract_values(self):
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(3, 6)]), -1)
        block = delta.extract(BBox(3, 6, 3, 6))
        assert block.shape == (1, 1) and block[0, 0] == -1

    def test_extract_out_of_range(self):
        delta = DeltaArray(6, 12)
        with pytest.raises(GridError):
            delta.extract(BBox(0, 0, 6, 6))

    def test_accumulate_folds_in(self):
        delta = DeltaArray(6, 12)
        box = BBox(1, 1, 2, 2)
        delta.accumulate(box, np.ones((2, 2), dtype=np.int32))
        delta.accumulate(box, -np.ones((2, 2), dtype=np.int32))
        assert delta.is_clean()

    def test_accumulate_shape_mismatch(self):
        delta = DeltaArray(6, 12)
        with pytest.raises(GridError):
            delta.accumulate(BBox(0, 0, 1, 1), np.ones((3, 3), dtype=np.int32))


class TestBatchedOwnerScan:
    """dirty_bboxes_by_owner == region_dirty_bbox per owned region."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 11)),
            min_size=0,
            max_size=40,
            unique=True,
        ),
        st.sampled_from([1, 2, 4, 6]),
    )
    def test_matches_per_region_scan(self, cells, n_procs):
        delta = DeltaArray(6, 12)
        if cells:
            delta.record_path(flat(cells), +1)
        regions = RegionMap(6, 12, n_procs)
        batched = delta.dirty_bboxes_by_owner(regions)
        for proc in range(n_procs):
            expected = delta.region_dirty_bbox(regions.region(proc))
            assert batched.get(proc) == expected

    def test_clean_array_yields_empty_dict(self):
        delta = DeltaArray(6, 12)
        assert delta.dirty_bboxes_by_owner(RegionMap(6, 12, 4)) == {}

    @pytest.mark.parametrize("seed, n_procs", [(0, 1), (1, 4), (2, 6), (3, 4)])
    def test_write_log_is_bounded_without_scans(self, seed, n_procs):
        # Receiver-initiated schedules never call the scan that used to be
        # the log's only compaction: rip-up / reroute / incorporate churn
        # must not grow it past a small multiple of the grid, and the scan
        # must still see exactly the nonzero cells afterwards.
        rng = random.Random(seed)
        delta = DeltaArray(6, 12)
        n_cells = 6 * 12
        for _ in range(400):
            cells = flat({(rng.randrange(6), rng.randrange(12)) for _ in range(8)})
            choice = rng.random()
            if choice < 0.45:
                delta.record_path(cells, +1)
            elif choice < 0.9:
                delta.record_path(cells, -1)
            elif choice < 0.95:
                box = BBox(1, 2, 3, 6)
                delta.accumulate(box, np.full((box.height, box.width), 2, dtype=np.int32))
            else:
                delta.clear_region(BBox(0, 0, 5, rng.randrange(12)))
            logged = sum(part.size for part in delta._touched)
            assert logged == delta._n_touched <= 2 * n_cells + cells.size
        regions = RegionMap(6, 12, n_procs)
        batched = delta.dirty_bboxes_by_owner(regions)
        for proc in range(n_procs):
            assert batched.get(proc) == delta.region_dirty_bbox(regions.region(proc))
        assert delta._n_touched == delta.nonzero_count()

    def test_negative_deltas_count_as_dirty(self):
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(1, 2)]), -1)
        regions = RegionMap(6, 12, 4)
        owner = regions.owner_of(1, 2)
        assert delta.dirty_bboxes_by_owner(regions) == {owner: BBox(1, 2, 1, 2)}


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 11)),
        min_size=1,
        max_size=30,
        unique=True,
    )
)
def test_record_then_clear_dirty_bbox_is_exhaustive(cells):
    """After clearing every region's dirty bbox, the array is clean."""
    delta = DeltaArray(6, 12)
    delta.record_path(flat(cells), +1)
    whole = BBox(0, 0, 5, 11)
    dirty = delta.region_dirty_bbox(whole)
    assert dirty is not None
    delta.clear_region(dirty)
    assert delta.is_clean()
