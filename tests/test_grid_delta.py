"""Unit and property tests for the delta array."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GridError
from repro.grid import BBox, DeltaArray
from repro.grid.regions import RegionMap


def flat(cells, n_grids=12):
    return np.unique(np.array([c * n_grids + x for c, x in cells], dtype=np.int64))


def clips_of(cells, regions, pad=0):
    """``(region, box ∩ region)`` pairs of the flat *cells*' bounding box,
    widened by *pad*: what a wire's clips give ``record_path`` (a wire's
    box may be wider than the path routed for it)."""
    if cells.size == 0:
        return ()
    c, x = np.divmod(cells, regions.n_grids)
    box = [
        max(int(c.min()) - pad, 0),
        max(int(x.min()) - pad, 0),
        min(int(c.max()) + pad, regions.n_channels - 1),
        min(int(x.max()) + pad, regions.n_grids - 1),
    ]
    _, owners, clips = regions.clip_boxes([box])
    return tuple(zip(owners.tolist(), [BBox(*row) for row in clips.tolist()]))


def record(delta, cells, sign, regions=None):
    """``record_path`` with the clips of *regions* (default: four regions)."""
    if regions is None:
        regions = RegionMap(delta.n_channels, delta.n_grids, 4)
    delta.record_path(cells, sign, clips_of(cells, regions))


def assert_boxes_bound_the_deltas(delta, regions):
    """At most one candidate box per region, each inside its region, and
    every nonzero cell inside its region's box."""
    boxes = {region: BBox(*box) for region, box in delta._boxes.items()}
    assert set(boxes) <= set(range(regions.n_procs))
    for region, box in boxes.items():
        assert regions.region(region).intersect(box) == box
    for c, x in zip(*np.nonzero(delta.data)):
        box = boxes.get(regions.owner_of(int(c), int(x)))
        assert box is not None and box.contains(int(c), int(x)), (c, x, boxes)


@st.composite
def boxes_in(draw, region):
    c_lo, c_hi = sorted(draw(st.integers(region.c_lo, region.c_hi)) for _ in range(2))
    x_lo, x_hi = sorted(draw(st.integers(region.x_lo, region.x_hi)) for _ in range(2))
    return BBox(c_lo, x_lo, c_hi, x_hi)


class TestRecording:
    def test_record_and_cancel(self):
        delta = DeltaArray(4, 12)
        cells = flat([(1, 3), (1, 4)])
        record(delta, cells, +1)
        assert not delta.is_clean()
        record(delta, cells, -1)
        assert delta.is_clean()

    def test_partial_cancellation(self):
        """Rip-up + reroute over a mostly shared path leaves only the
        symmetric difference dirty — the §5.2 cancellation effect."""
        delta = DeltaArray(4, 12)
        old = flat([(1, 3), (1, 4), (1, 5)])
        new = flat([(1, 4), (1, 5), (1, 6)])
        record(delta, old, -1)
        record(delta, new, +1)
        assert delta.nonzero_count() == 2
        assert delta.data[1, 3] == -1 and delta.data[1, 6] == 1

    def test_pickle_keeps_the_flat_view_of_the_data(self):
        # __slots__ would pickle ``_flat`` as an array of its own; the
        # copy's writes must land in its data.
        delta = DeltaArray(6, 12)
        record(delta, flat([(1, 3), (4, 9), (5, 11)]), +1)
        back = pickle.loads(pickle.dumps(delta))
        assert np.array_equal(back.data, delta.data)
        assert np.shares_memory(back._flat, back._data)
        assert back.dirty_bboxes_by_owner() == delta.dirty_bboxes_by_owner()
        record(back, flat([(0, 0)]), +1)
        assert back.data[0, 0] == 1 and delta.data[0, 0] == 0

    @pytest.mark.parametrize("shape", [(0, 12), (4, 0)])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(GridError):
            DeltaArray(*shape)

    def test_empty_record_noop(self):
        delta = DeltaArray(4, 12)
        record(delta, np.empty(0, dtype=np.int64), 1)
        assert delta.is_clean()


class TestRegionScan:
    def test_dirty_bbox_absolute_coordinates(self):
        delta = DeltaArray(6, 12)
        region = BBox(2, 4, 5, 11)
        record(delta, flat([(3, 6), (4, 9)]), +1)
        assert delta.region_dirty_bbox(region) == BBox(3, 6, 4, 9)

    def test_dirty_bbox_none_for_clean_region(self):
        delta = DeltaArray(6, 12)
        record(delta, flat([(0, 0)]), +1)
        assert delta.region_dirty_bbox(BBox(3, 3, 5, 11)) is None

    def test_dirty_bbox_clips_to_region(self):
        delta = DeltaArray(6, 12)
        record(delta, flat([(0, 0), (3, 6)]), +1)
        region = BBox(2, 4, 5, 11)
        assert delta.region_dirty_bbox(region) == BBox(3, 6, 3, 6)

    def test_clear_region_only_clears_region(self):
        delta = DeltaArray(6, 12)
        record(delta, flat([(0, 0), (3, 6)]), +1)
        delta.clear_region(BBox(2, 4, 5, 11))
        assert delta.data[3, 6] == 0
        assert delta.data[0, 0] == 1

    def test_clear_all(self):
        delta = DeltaArray(6, 12)
        record(delta, flat([(0, 0), (3, 6)]), +1)
        delta.clear_all()
        assert delta.is_clean()
        assert delta._boxes == {}


class TestExtractAccumulate:
    def test_extract_values(self):
        delta = DeltaArray(6, 12)
        record(delta, flat([(3, 6)]), -1)
        block = delta.extract(BBox(3, 6, 3, 6))
        assert block.shape == (1, 1) and block[0, 0] == -1

    def test_extract_out_of_range(self):
        delta = DeltaArray(6, 12)
        with pytest.raises(GridError):
            delta.extract(BBox(0, 0, 6, 6))

    def test_accumulate_folds_in(self):
        delta = DeltaArray(6, 12)
        box = BBox(1, 1, 2, 2)
        delta.accumulate(box, np.ones((2, 2), dtype=np.int32), 0)
        delta.accumulate(box, -np.ones((2, 2), dtype=np.int32), 0)
        assert delta.is_clean()

    def test_accumulate_shape_mismatch(self):
        delta = DeltaArray(6, 12)
        with pytest.raises(GridError):
            delta.accumulate(BBox(0, 0, 1, 1), np.ones((3, 3), dtype=np.int32), 0)

    @pytest.mark.parametrize("box", [BBox(5, 0, 6, 0), BBox(0, 11, 0, 12)])
    def test_accumulate_one_past_the_edge_rejected(self, box):
        delta = DeltaArray(6, 12)
        with pytest.raises(GridError):
            delta.accumulate(box, np.ones((box.height, box.width), dtype=np.int32), 0)


class TestBatchedOwnerScan:
    """dirty_bboxes_by_owner == region_dirty_bbox per region."""

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
        regions = RegionMap(6, 12, n_procs)
        if cells:
            record(delta, flat(cells), +1, regions)
        batched = delta.dirty_bboxes_by_owner()
        for proc in range(n_procs):
            expected = delta.region_dirty_bbox(regions.region(proc))
            assert batched.get(proc) == expected

    def test_clean_array_yields_empty_dict(self):
        delta = DeltaArray(6, 12)
        assert delta.dirty_bboxes_by_owner() == {}

    @given(st.sampled_from([1, 2, 4, 6]), st.data())
    def test_candidate_boxes_bound_the_deltas(self, n_procs, data):
        # Random record / accumulate / clear / scan sequences: after every
        # step each region holds at most one candidate box covering its
        # nonzero cells, and every scan is exact for the regions it is
        # not told to skip.
        regions = RegionMap(6, 12, n_procs)
        delta = DeltaArray(6, 12)
        cell = st.tuples(st.integers(0, 5), st.integers(0, 11))
        for _ in range(data.draw(st.integers(1, 30))):
            op = data.draw(st.sampled_from(["record", "record", "accumulate", "clear", "scan"]))
            if op == "record":
                cells = flat(data.draw(st.lists(cell, max_size=8)))
                sign = data.draw(st.sampled_from([1, -1]))
                pad = data.draw(st.integers(0, 3))
                delta.record_path(cells, sign, clips_of(cells, regions, pad))
            elif op == "accumulate":
                region = data.draw(st.integers(0, n_procs - 1))
                box = data.draw(boxes_in(regions.region(region)))
                values = data.draw(
                    st.lists(st.integers(-2, 2), min_size=box.area, max_size=box.area)
                )
                values = np.array(values, dtype=np.int32).reshape(box.height, box.width)
                delta.accumulate(box, values, region)
            elif op == "clear":
                delta.clear_region(data.draw(boxes_in(BBox(0, 0, 5, 11))))
            else:
                skip = data.draw(st.frozensets(st.integers(0, n_procs - 1)))
                batched = delta.dirty_bboxes_by_owner(skip)
                assert list(batched) == sorted(batched)
                for proc in range(n_procs):
                    expected = delta.region_dirty_bbox(regions.region(proc))
                    assert batched.get(proc) == (None if proc in skip else expected)
            assert_boxes_bound_the_deltas(delta, regions)

    def test_scan_shrinks_a_box_and_drops_a_clean_one(self):
        regions = RegionMap(6, 12, 4)
        delta = DeltaArray(6, 12)
        owner = regions.owner_of(1, 2)
        region = regions.region(owner)
        delta.record_path(flat([(1, 2)]), +1, [(owner, region)])
        delta.record_path(flat([(4, 9)]), +1, [(regions.owner_of(4, 9), BBox(4, 9, 4, 9))])
        delta.clear_region(BBox(4, 9, 4, 9))
        assert set(delta._boxes) == {owner}
        assert delta.dirty_bboxes_by_owner() == {owner: BBox(1, 2, 1, 2)}
        assert delta._boxes == {owner: [1, 2, 1, 2]}
        delta.accumulate(BBox(1, 2, 1, 2), -np.ones((1, 1), dtype=np.int32), owner)
        assert delta.dirty_bboxes_by_owner() == {}
        assert delta._boxes == {}

    def test_clear_keeps_a_box_it_only_overlaps(self):
        regions = RegionMap(6, 12, 1)
        delta = DeltaArray(6, 12)
        delta.record_path(flat([(1, 2), (1, 8)]), +1, [(0, BBox(1, 2, 1, 8))])
        delta.clear_region(BBox(0, 0, 5, 5))
        assert delta.dirty_bboxes_by_owner() == {0: BBox(1, 8, 1, 8)}
        assert_boxes_bound_the_deltas(delta, regions)

    def test_negative_deltas_count_as_dirty(self):
        delta = DeltaArray(6, 12)
        record(delta, flat([(1, 2)]), -1)
        regions = RegionMap(6, 12, 4)
        owner = regions.owner_of(1, 2)
        assert delta.dirty_bboxes_by_owner() == {owner: BBox(1, 2, 1, 2)}


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
    record(delta, flat(cells), +1)
    whole = BBox(0, 0, 5, 11)
    dirty = delta.region_dirty_bbox(whole)
    assert dirty is not None
    delta.clear_region(dirty)
    assert delta.is_clean()
