"""Hypothesis strategies for coherence traces the replays must not trust.

The invalidate replay folds each run of neighbouring pool cells on one
line to the run's first cell before it expands a shard
(``memsim.columnar.ColumnarTrace._shards``).  These bursts are built so
that fold is *not* exact: cells arrive unsorted and repeated, two cells of one line
sit apart in the stream, times tie, and some cells land in the scheduler
and wire-record words past the cost array — the exact mask after the
sort has to catch all of it, and the write-update replay's per-event
cell counts have to count every repeat.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.memsim.addressing import AddressMap
from repro.memsim.tango import SharedLayout
from repro.memsim.trace import ReferenceTrace

LAYOUT = SharedLayout(n_channels=6, n_grids=32, n_wires=5)
LINE_SIZES = (4, 8, 16, 32, 64)

_any_word = st.integers(0, LAYOUT.total_words - 1)
_aux_word = st.integers(LAYOUT.scheduler_base, LAYOUT.total_words - 1)


def address_map(line_size: int) -> AddressMap:
    return AddressMap(
        LAYOUT.n_channels,
        LAYOUT.n_grids,
        line_size,
        extra_words=LAYOUT.total_words - LAYOUT.array_words,
    )


@st.composite
def _messy_cells(draw) -> list:
    base = draw(_any_word)
    # A window narrower than the draw count: repeats, and same-line cells
    # separated by other lines, are the common case.
    near = st.integers(max(0, base - 6), min(LAYOUT.total_words - 1, base + 6))
    return draw(st.lists(st.one_of(near, near, _any_word, _aux_word), min_size=1, max_size=14))


def messy_bursts(n_procs: int, max_size: int = 50):
    """Lists of ``(time, proc, is_write, cells)`` with time ties."""
    burst = st.tuples(
        st.integers(0, 4), st.integers(0, n_procs - 1), st.booleans(), _messy_cells()
    )
    return st.lists(burst, min_size=0, max_size=max_size)


def build_trace(bursts) -> ReferenceTrace:
    trace = ReferenceTrace()
    for time, proc, is_write, cells in bursts:
        trace.add(float(time), proc, is_write, np.asarray(cells, dtype=np.int64))
    return trace
