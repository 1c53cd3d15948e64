"""Tests for per-reference (Tango-granularity) coherence replay.

A per-reference replay is the columnar Write-Back-with-Invalidate replay
of :meth:`ColumnarTrace.per_reference`, the view in which every reference
is its own record.  The centrepiece is a hypothesis-driven differential:
that replay must equal the scalar state machine
(:func:`~repro.memsim.coherence.simulate_trace`) run on the same
references cut one per record, on every statistic, writebacks included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import tiny_test_circuit
from repro.errors import CoherenceError
from repro.memsim import AddressMap, ColumnarTrace, ReferenceTrace, simulate_trace
from repro.memsim.addressing import WORD_BYTES
from repro.parallel import run_shared_memory

from . import memsim_strategies as messy


def one_record_per_reference(trace: ReferenceTrace) -> ReferenceTrace:
    """*trace*'s references in global order, each its own record at its
    burst's time (appended in order, so time ties keep that order)."""
    cols = trace.columns()
    cut = ReferenceTrace()
    for b in range(cols.procs.size):
        for cell in cols.cells[cols.offsets[b] : cols.offsets[b + 1]]:
            cut.add(
                float(cols.times[b]), int(cols.procs[b]), bool(cols.writes[b]),
                np.array([cell], dtype=np.int64),
            )
    return cut


def per_reference(trace: ReferenceTrace) -> ColumnarTrace:
    return ColumnarTrace.from_trace(trace).per_reference()


def single_refs(refs) -> ReferenceTrace:
    """refs: ``(proc, is_write, cell)`` in order, one record each."""
    trace = ReferenceTrace()
    for t, (proc, is_write, cell) in enumerate(refs):
        trace.add(float(t), proc, is_write, np.array([cell], dtype=np.int64))
    return trace


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), messy.messy_bursts(n))))
def test_analytic_matches_brute_force(case):
    """Unsorted and repeated cells, time ties, 1–8 processors, 4–64 B
    lines: the columnar per-reference replay is the scalar state machine
    on the cut trace, field for field."""
    n_procs, bursts = case
    trace = messy.build_trace(bursts)
    view = per_reference(trace)
    cut = one_record_per_reference(trace)
    for ls in messy.LINE_SIZES:
        amap = messy.address_map(ls)
        assert view.replay(n_procs, amap) == simulate_trace(cut, n_procs, amap), ls


class TestBasics:
    def test_empty_trace(self):
        stats = per_reference(ReferenceTrace()).replay(4, AddressMap(2, 16, 8))
        assert stats.total_bytes == 0

    def test_expand_preserves_counts_and_order(self):
        trace = ReferenceTrace()
        trace.add(1.0, 0, False, np.array([5, 6]))
        trace.add(0.5, 1, True, np.array([9]))
        trace.add(1.0, 2, True, np.array([6, 5, 6]))
        view = per_reference(trace)
        [(cells, rec_ids, codes)] = view._shards(1)  # one shard
        assert cells.tolist() == [9, 5, 6, 6, 5, 6]  # time-sorted, flattened
        assert rec_ids.tolist() == list(range(6))
        assert (codes & 127).tolist() == [1, 0, 0, 2, 2, 2]
        assert (codes >= 128).tolist() == [True, False, False, True, True, True]
        # ... which is exactly the flattening of a one-reference-per-record trace.
        direct = ColumnarTrace.from_trace(one_record_per_reference(trace))
        [want] = direct._shards(1)
        for got, expected in zip((cells, rec_ids, codes), want, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert (view.n_read_refs, view.n_write_refs) == (direct.n_read_refs, direct.n_write_refs)
        assert (view.n_read_refs, view.n_write_refs) == (2, 4)

    def test_proc_out_of_range_rejected(self):
        trace = ReferenceTrace()
        trace.add(0.0, 7, False, np.array([1]))
        with pytest.raises(CoherenceError):
            per_reference(trace).replay(4, AddressMap(2, 16, 8))

    def test_own_read_keeps_line_dirty(self):
        """write, own read, write again: the second write is silent."""
        trace = single_refs([(0, True, 0), (0, False, 0), (0, True, 0)])
        stats = per_reference(trace).replay(4, AddressMap(2, 16, 4))
        assert stats.word_write_bytes == WORD_BYTES  # only the first write

    def test_foreign_read_breaks_exclusivity(self):
        trace = single_refs([(0, True, 0), (1, False, 0), (0, True, 0)])
        stats = per_reference(trace).replay(4, AddressMap(2, 16, 4))
        assert stats.word_write_bytes == 2 * WORD_BYTES


class TestBurstEquivalence:
    def test_matches_burst_simulator_on_real_trace(self):
        """Burst-level processing is lossless: per-reference replay of the
        same trace gives identical non-writeback traffic."""
        circuit = tiny_test_circuit(n_wires=25)
        result = run_shared_memory(
            circuit, n_procs=4, iterations=2, line_size=8, keep_trace=True
        )
        trace, layout = result.meta["trace"], result.meta["layout"]
        extra = layout.total_words - layout.array_words
        view = per_reference(trace)
        for ls in (4, 16):
            amap = AddressMap(circuit.n_channels, circuit.n_grids, ls, extra_words=extra)
            burst = simulate_trace(trace, 4, amap)
            ref = view.replay(4, amap)
            assert (
                ref.total_bytes - ref.writeback_bytes
                == burst.total_bytes - burst.writeback_bytes
            )
