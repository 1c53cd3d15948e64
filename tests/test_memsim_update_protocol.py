"""Tests for the write-update coherence protocol."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import tiny_test_circuit
from repro.errors import CoherenceError, SimulationError
from repro.kernels import use_kernels
from repro.memsim import (
    AddressMap,
    ColumnarTrace,
    ReferenceTrace,
    WriteUpdate,
    simulate_trace_write_update,
)
from repro.parallel import run_shared_memory

from .memsim_strategies import LINE_SIZES, address_map, build_trace, messy_bursts


def protocol(line_size=4, n_procs=4):
    return WriteUpdate(n_procs, AddressMap(2, 16, line_size))


def cells(*idx):
    return np.array(idx, dtype=np.int64)


class TestReads:
    def test_cold_miss_then_hit(self):
        p = protocol(line_size=8)
        p.access(0, cells(0), is_write=False)
        p.access(0, cells(0), is_write=False)
        assert p.stats.cold_fetch_bytes == 8
        assert p.stats.total_bytes == 8

    def test_no_refetches_ever(self):
        p = protocol()
        p.access(0, cells(0), is_write=False)
        p.access(1, cells(0), is_write=True)
        p.access(0, cells(0), is_write=False)  # still valid: updated, not invalidated
        assert p.stats.refetch_bytes == 0
        assert p.stats.cold_fetch_bytes == 4 + 0  # proc 0's original miss only


class TestWrites:
    def test_private_writes_are_silent(self):
        p = protocol()
        p.access(0, cells(0), is_write=True)  # write-allocate miss only
        first = p.stats.total_bytes
        p.access(0, cells(0), is_write=True)
        assert p.stats.total_bytes == first
        assert p.stats.word_write_bytes == 0

    def test_shared_writes_broadcast_words(self):
        p = protocol()
        p.access(1, cells(0), is_write=False)
        p.access(0, cells(0, 1), is_write=True)
        # cell 0's line is shared with proc 1 -> one 4B broadcast;
        # cell 1's line is private -> silent
        assert p.stats.word_write_bytes == 4

    def test_broadcast_counts_per_cell_not_per_line(self):
        p = protocol(line_size=16)  # 4 words per line
        p.access(1, cells(0), is_write=False)
        p.access(0, cells(0, 1, 2, 3), is_write=True)
        assert p.stats.word_write_bytes == 16  # four word broadcasts

    def test_write_allocate_fetches_line_once(self):
        p = protocol(line_size=8)
        p.access(0, cells(0, 1), is_write=True)  # both cells in one line
        assert p.stats.write_miss_fetch_bytes == 8


class TestValidation:
    def test_bad_proc(self):
        with pytest.raises(CoherenceError):
            protocol(n_procs=2).access(5, cells(0), is_write=False)

    def test_empty_burst_noop(self):
        p = protocol()
        p.access(0, np.empty(0, dtype=np.int64), is_write=True)
        assert p.stats.total_bytes == 0


class TestTraceReplay:
    def test_replay_matches_incremental(self):
        trace = ReferenceTrace()
        trace.add(0.0, 0, False, cells(0, 1))
        trace.add(1.0, 1, True, cells(0))
        stats = simulate_trace_write_update(trace, 2, AddressMap(2, 16, 4))
        assert stats.word_write_bytes == 4
        assert stats.cold_fetch_bytes == 8


def scalar_write_update(trace, n_procs, amap):
    with use_kernels("reference"):
        return simulate_trace_write_update(trace, n_procs, amap)


class TestColumnarReplay:
    """The columnar replay against the scalar ``WriteUpdate`` oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 63).flatmap(
            lambda n: st.tuples(st.just(n), messy_bursts(n))
        )
    )
    def test_equals_scalar_field_for_field(self, case):
        n_procs, bursts = case
        trace = build_trace(bursts)
        columnar = ColumnarTrace.from_trace(trace)
        for ls in LINE_SIZES:
            amap = address_map(ls)
            assert dataclasses.asdict(
                columnar.replay_write_update(n_procs, amap)
            ) == dataclasses.asdict(scalar_write_update(trace, n_procs, amap)), ls

    def test_apart_and_repeated_cells_of_one_line(self):
        # Cells 0 and 1 share an 8-byte line but sit apart in the burst,
        # and cell 0 repeats: one miss, three word broadcasts.
        trace = ReferenceTrace()
        trace.add(0.0, 1, False, cells(0))
        trace.add(1.0, 0, True, cells(0, 9, 1, 0))
        amap = AddressMap(2, 16, 8)
        stats = ColumnarTrace.from_trace(trace).replay_write_update(2, amap)
        assert stats == scalar_write_update(trace, 2, amap)
        assert stats.word_write_bytes == 3 * 4
        assert stats.write_miss_fetch_bytes == 2 * 8

    def test_dispatch_follows_the_kernel_mode_and_the_trace_type(self):
        trace = build_trace([(0, 0, False, [0, 1]), (1, 1, True, [0, 0, 40])])
        amap = AddressMap(2, 32, 8)
        scalar = scalar_write_update(trace, 2, amap)
        with use_kernels("vectorized"):
            assert simulate_trace_write_update(trace, 2, amap) == scalar
        # An already-flattened trace has no records to walk: columnar
        # whatever the mode.
        flat = ColumnarTrace.from_trace(trace)
        assert scalar_write_update(flat, 2, amap) == scalar

    def test_rejects_bad_processors(self):
        flat = ColumnarTrace.from_trace(build_trace([(0, 5, True, [1])]))
        amap = AddressMap(2, 32, 8)
        with pytest.raises(CoherenceError):
            flat.replay_write_update(2, amap)
        for bad in (0, 64):
            with pytest.raises(CoherenceError):
                flat.replay_write_update(bad, amap)


class TestSmIntegration:
    def test_update_sweep_shares_one_flattened_trace(self):
        circuit = tiny_test_circuit(n_wires=25)
        kwargs = dict(n_procs=4, iterations=2, protocol="update", extra_line_sizes=(4, 32))
        fast = run_shared_memory(circuit, **kwargs)
        with use_kernels("reference"):
            slow = run_shared_memory(circuit, **kwargs)
        assert fast.meta["coherence_by_line_size"] == slow.meta["coherence_by_line_size"]
        assert set(fast.meta["coherence_by_line_size"]) == {8, 4, 32}

    def test_protocol_switch(self):
        circuit = tiny_test_circuit(n_wires=25)
        inv = run_shared_memory(circuit, n_procs=4, iterations=2)
        upd = run_shared_memory(circuit, n_procs=4, iterations=2, protocol="update")
        assert inv.meta["protocol"] == "invalidate"
        assert upd.meta["protocol"] == "update"
        # identical routing either way (the protocol only measures traffic)
        assert inv.quality == upd.quality
        assert upd.coherence.refetch_bytes == 0

    def test_unknown_protocol_rejected(self):
        circuit = tiny_test_circuit(n_wires=10)
        with pytest.raises(SimulationError):
            run_shared_memory(circuit, n_procs=2, protocol="mesi")
