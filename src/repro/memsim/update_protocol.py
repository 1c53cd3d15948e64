"""A write-update coherence protocol, for contrast with invalidation.

The paper evaluates shared memory traffic under a Write-Back-with-
Invalidate protocol, citing Archibald & Baer's simulation study — which
compared invalidation protocols against *write-update* (distributed-write)
protocols such as Firefly/Dragon.  :class:`WriteUpdate` implements that
alternative under the same infinite-cache assumptions:

- a read miss fetches the line (``line_size`` bytes) and the copy then
  stays valid forever — updates, not invalidations, keep it coherent;
- every write to a line that *other* caches hold broadcasts the written
  word (4 bytes per written cell) to the sharers and memory;
- writes to private lines update memory lazily (write-back, no traffic
  here) — matching the invalidate protocol's silent private writes.

Because copies are never invalidated there are no refetches, so traffic
is essentially word-broadcast volume and nearly independent of the cache
line size; whether that beats invalidation depends on the write-sharing
pattern.  For LocusRoute's migratory cost-array access the broadcast
volume is large — ablation A5 (``locusroute experiment A5``)
measures the comparison and shows why the paper's invalidation choice
suits this workload.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import CoherenceError
from ..kernels import active_kernels
from .addressing import WORD_BYTES, AddressMap
from .columnar import ColumnarTrace
from .stats import CoherenceStats
from .trace import ReferenceTrace

__all__ = ["WriteUpdate", "simulate_trace_write_update"]


class WriteUpdate:
    """Write-update (distributed write) protocol over all cache lines."""

    MAX_PROCS = 63

    def __init__(self, n_procs: int, address_map: AddressMap) -> None:
        if not (1 <= n_procs <= self.MAX_PROCS):
            raise CoherenceError(f"n_procs must be in [1, {self.MAX_PROCS}]")
        self.n_procs = n_procs
        self.amap = address_map
        self._sharers = np.zeros(address_map.n_lines, dtype=np.int64)
        self.stats = CoherenceStats(line_size=address_map.line_size)

    def access(self, proc: int, flat_cells: np.ndarray, is_write: bool) -> None:
        """Apply one access burst."""
        if not (0 <= proc < self.n_procs):
            raise CoherenceError(f"processor {proc} out of range")
        if flat_cells.size == 0:
            return
        cells = np.asarray(flat_cells, dtype=np.int64)
        bit = np.int64(1) << proc
        if is_write:
            self.stats.n_write_refs += int(cells.size)
            lines_per_cell = cells // self.amap.words_per_line
            # Word broadcasts: one per written cell whose line is shared
            # with at least one other cache.
            shared = (self._sharers[lines_per_cell] & ~bit) != 0
            self.stats.word_write_bytes += int(shared.sum()) * WORD_BYTES
            # Writes also need the line present locally (write-allocate).
            lines = np.unique(lines_per_cell)
            missing = (self._sharers[lines] & bit) == 0
            self.stats.write_miss_fetch_bytes += (
                int(missing.sum()) * self.amap.line_size
            )
            self._sharers[lines] |= bit
        else:
            self.stats.n_read_refs += int(cells.size)
            lines = self.amap.cells_to_lines(cells)
            missing = (self._sharers[lines] & bit) == 0
            # With updates instead of invalidations every miss is cold.
            self.stats.cold_fetch_bytes += int(missing.sum()) * self.amap.line_size
            self._sharers[lines] |= bit


def simulate_trace_write_update(
    trace: Union[ReferenceTrace, ColumnarTrace],
    n_procs: int,
    address_map: AddressMap,
) -> CoherenceStats:
    """Replay *trace* through the write-update protocol.

    Under the ``vectorized`` kernels — or whenever the trace arrives
    already flattened — this is
    :meth:`ColumnarTrace.replay_write_update
    <repro.memsim.columnar.ColumnarTrace.replay_write_update>`; under
    ``reference`` a :class:`~repro.memsim.trace.ReferenceTrace` walks the
    scalar :class:`WriteUpdate`, the differential oracle.
    """
    if isinstance(trace, ColumnarTrace):
        return trace.replay_write_update(n_procs, address_map)
    if active_kernels() == "vectorized":
        return ColumnarTrace.from_trace(trace).replay_write_update(n_procs, address_map)
    protocol = WriteUpdate(n_procs, address_map)
    for record in trace.sorted_records():
        protocol.access(record.proc, record.flat_cells, record.is_write)
    return protocol.stats
