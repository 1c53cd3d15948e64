"""Streaming coherence replay: equivalence, file format, bounded memory.

Three contracts:

1. :func:`repro.memsim.columnar.simulate_trace_streaming` is bit-identical
   to the scalar oracle (:func:`repro.memsim.coherence.simulate_trace`)
   for every trace and *every chunk size*, including ``chunk_refs=1``
   where all cross-chunk carry state (sharer mask, live dirty owner,
   ever-accessed mask) is exercised on each record boundary.
2. The LRTS trace-stream file round-trips: records come back in replay
   order with identical payloads, and the streamed chunks respect record
   boundaries.
3. Peak memory of a streamed replay is bounded by the chunk size, not
   the trace length: tracemalloc peak at N records ~= peak at 4N.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoherenceError
from repro.memsim import (
    AddressMap,
    ReferenceTrace,
    iter_trace_chunks,
    load_trace_stream,
    open_trace_stream,
    save_trace_stream,
    simulate_trace,
    simulate_trace_columnar,
    simulate_trace_streaming,
)

from . import memsim_strategies as messy

N_CHANNELS = 6
N_GRIDS = 32
LINE_SIZES = (4, 16)

burst_strategy = st.tuples(
    st.integers(min_value=0, max_value=7),  # proc
    st.booleans(),  # is_write
    st.lists(
        st.integers(min_value=0, max_value=N_CHANNELS * N_GRIDS - 1),
        min_size=1,
        max_size=12,
    ),
)


def build_trace(bursts) -> ReferenceTrace:
    trace = ReferenceTrace()
    for t, (proc, is_write, cells) in enumerate(bursts):
        trace.add(float(t), proc, is_write, np.asarray(cells, dtype=np.int64))
    return trace


def synthetic_trace(n_records: int, seed: int = 7) -> ReferenceTrace:
    rng = np.random.default_rng(seed)
    n_cells = N_CHANNELS * N_GRIDS
    procs = rng.integers(0, 8, n_records)
    writes = rng.random(n_records) < 0.4
    sizes = rng.integers(1, 7, n_records)
    bases = rng.integers(0, n_cells, n_records)
    trace = ReferenceTrace()
    for i in range(n_records):
        cells = (bases[i] + np.arange(sizes[i], dtype=np.int64)) % n_cells
        trace.add(float(i), int(procs[i]), bool(writes[i]), cells)
    return trace


class TestStreamingEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(burst_strategy, min_size=0, max_size=50),
        st.integers(min_value=1, max_value=40),
    )
    def test_random_traces_any_chunk_size(self, bursts, chunk_refs):
        trace = build_trace(bursts)
        for ls in LINE_SIZES:
            amap = AddressMap(N_CHANNELS, N_GRIDS, ls)
            scalar = simulate_trace(trace, 8, amap)
            streamed = simulate_trace_streaming(trace, 8, amap, chunk_refs=chunk_refs)
            assert scalar == streamed, f"diverged at line size {ls}"

    @settings(max_examples=80, deadline=None)
    @given(messy.messy_bursts(8, max_size=40), st.integers(min_value=1, max_value=40))
    def test_unsorted_repeated_cells_any_chunk_size(self, bursts, chunk_refs):
        trace = messy.build_trace(bursts)
        for ls in (4, 8, 64):
            amap = messy.address_map(ls)
            scalar = simulate_trace(trace, 8, amap)
            for refs in (1, chunk_refs):
                assert simulate_trace_streaming(trace, 8, amap, chunk_refs=refs) == scalar, (ls, refs)

    def test_chunk_refs_one_forces_carry_on_every_record(self):
        trace = synthetic_trace(300)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 8)
        scalar = simulate_trace(trace, 8, amap)
        assert simulate_trace_streaming(trace, 8, amap, chunk_refs=1) == scalar

    def test_matches_columnar_on_large_trace(self):
        trace = synthetic_trace(5_000)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 16)
        columnar = simulate_trace_columnar(trace, 8, amap)
        for chunk_refs in (64, 1_000, 10**9):
            assert simulate_trace_streaming(trace, 8, amap, chunk_refs=chunk_refs) == columnar

    def test_streaming_from_file_matches_in_memory(self, tmp_path):
        trace = synthetic_trace(2_000)
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 16)
        in_memory = simulate_trace_columnar(trace, 8, amap)
        assert simulate_trace_streaming(path, 8, amap, chunk_refs=512) == in_memory

    def test_rejects_bad_processor_count(self):
        trace = synthetic_trace(10)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 16)
        for bad in (0, 64):
            with pytest.raises(CoherenceError):
                simulate_trace_streaming(trace, bad, amap)

    def test_rejects_out_of_range_processor(self):
        trace = build_trace([(5, True, [0, 1])])
        amap = AddressMap(N_CHANNELS, N_GRIDS, 16)
        with pytest.raises(CoherenceError):
            simulate_trace_streaming(trace, 2, amap)


class TestStreamFile:
    def test_round_trip_preserves_replay_order_and_payload(self, tmp_path):
        trace = ReferenceTrace()
        # Deliberately out-of-time-order appends: replay order sorts them.
        trace.add(3.0, 1, True, np.array([4, 5], dtype=np.int64))
        trace.add(1.0, 0, False, np.array([0], dtype=np.int64))
        trace.add(2.0, 2, False, np.array([7, 8, 9], dtype=np.int64))
        path = tmp_path / "t.lrts"
        n_bytes = save_trace_stream(trace, path)
        assert path.stat().st_size == n_bytes
        loaded = load_trace_stream(path)
        got = [
            (r.time, r.proc, r.is_write, list(r.flat_cells)) for r in loaded.records
        ]
        assert got == [
            (1.0, 0, False, [0]),
            (2.0, 2, False, [7, 8, 9]),
            (3.0, 1, True, [4, 5]),
        ]

    def test_container_bytes_are_the_documented_layout(self, tmp_path):
        """The file is a pure function of the trace: header, then the five
        columns in replay order, little-endian."""
        trace = ReferenceTrace()
        trace.add(3.0, 1, True, np.array([4, 5], dtype=np.int32))
        trace.add(1.0, 0, False, np.array([0], dtype=np.int64))
        trace.add(1.0, 2, False, np.array([9, 7, 7], dtype=np.int64))
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)
        expected = b"".join(
            [
                b"LRTS",
                np.array([1], dtype="<u4").tobytes(),
                np.array([3, 6], dtype="<i8").tobytes(),
                np.array([1.0, 1.0, 3.0], dtype="<f8").tobytes(),
                np.array([0, 2, 1], dtype="<i4").tobytes(),
                np.array([0, 0, 1], dtype=np.uint8).tobytes(),
                np.array([0, 1, 4, 6], dtype="<i8").tobytes(),
                np.array([0, 9, 7, 7, 4, 5], dtype="<i8").tobytes(),
            ]
        )
        assert path.read_bytes() == expected
        # Loading and saving again reproduces the file.
        again = tmp_path / "again.lrts"
        save_trace_stream(load_trace_stream(path), again)
        assert again.read_bytes() == expected

    def test_chunks_respect_record_boundaries(self, tmp_path):
        trace = synthetic_trace(400)
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)
        total_records = 0
        total_refs = 0
        for chunk in open_trace_stream(path, chunk_refs=37):
            # offsets are chunk-local and cover the cells exactly
            assert chunk.offsets[0] == 0
            assert chunk.offsets[-1] == len(chunk.cells)
            assert chunk.n_records >= 1
            total_records += chunk.n_records
            total_refs += chunk.n_references
        assert total_records == 400
        assert total_refs == trace.n_references

    def test_iter_trace_chunks_from_memory_matches_file(self, tmp_path):
        """Chunk *boundaries* may differ between the two sources; the
        concatenated record stream must not."""
        trace = synthetic_trace(200)
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)

        def concat(source):
            chunks = list(iter_trace_chunks(source, chunk_refs=50))
            sizes = [np.diff(c.offsets) for c in chunks]
            return (
                np.concatenate([c.times for c in chunks]),
                np.concatenate([c.procs for c in chunks]),
                np.concatenate([c.writes for c in chunks]),
                np.concatenate(sizes),
                np.concatenate([c.cells for c in chunks]),
            )

        for a, b in zip(concat(trace), concat(path)):
            np.testing.assert_array_equal(a, b)

    def test_rejects_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.lrts"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(CoherenceError):
            list(open_trace_stream(path))

    def test_rejects_truncated_file(self, tmp_path):
        trace = synthetic_trace(50)
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CoherenceError):
            list(open_trace_stream(path))


class TestBoundedMemory:
    def test_peak_memory_independent_of_trace_length(self, tmp_path):
        """tracemalloc peak at N records ~= peak at 4N with a fixed chunk."""
        amap = AddressMap(N_CHANNELS, N_GRIDS, 16)
        peaks = {}
        for n_records in (10_000, 40_000):
            trace = synthetic_trace(n_records, seed=11)
            path = tmp_path / f"t{n_records}.lrts"
            save_trace_stream(trace, path)
            del trace
            tracemalloc.start()
            stats = simulate_trace_streaming(path, 8, amap, chunk_refs=4_096)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peaks[n_records] = peak
            assert stats.n_read_refs + stats.n_write_refs > 0
        # 4x the records must not cost anywhere near 4x the peak; allow
        # 1.5x slack for allocator noise and per-line carry arrays.
        assert peaks[40_000] < peaks[10_000] * 1.5 + 1_000_000


class TestMillionReferenceAcceptance:
    def test_million_reference_replay_bit_identical_and_bounded(self, tmp_path):
        """Acceptance: a >= 1e6-reference trace replays from disk with
        stats bit-identical to the in-memory columnar engine, and the
        streamed peak stays near the chunk size, not the trace size."""
        rng = np.random.default_rng(19890816)
        n_records = 230_000
        n_cells = N_CHANNELS * N_GRIDS
        procs = rng.integers(0, 8, n_records)
        writes = rng.random(n_records) < 0.35
        sizes = rng.integers(2, 8, n_records)  # mean 4.5 refs/record
        bases = rng.integers(0, n_cells, n_records)
        trace = ReferenceTrace()
        for i in range(n_records):
            cells = (bases[i] + np.arange(sizes[i], dtype=np.int64)) % n_cells
            trace.add(float(i), int(procs[i]), bool(writes[i]), cells)
        assert trace.n_references >= 1_000_000

        path = tmp_path / "million.lrts"
        save_trace_stream(trace, path)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 16)
        in_memory = simulate_trace_columnar(trace, 8, amap)
        del trace

        tracemalloc.start()
        streamed = simulate_trace_streaming(path, 8, amap, chunk_refs=1 << 16)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert streamed == in_memory
        # 64k-reference chunks: working set stays in the tens of MB no
        # matter how long the trace is (the file here is ~10MB itself).
        assert peak < 48 * 1024 * 1024
