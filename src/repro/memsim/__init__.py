"""Shared memory substrate: Tango-style reference tracing and
Write-Back-with-Invalidate cache coherence simulation (infinite caches,
configurable line size)."""

from .addressing import WORD_BYTES, AddressMap
from .coherence import WriteBackInvalidate, simulate_trace
from .columnar import ColumnarTrace
from .stats import CoherenceStats
from .tango import TangoCollector
from .trace import ReferenceTrace, TraceRecord
from .finite_cache import FiniteWriteBackInvalidate, simulate_trace_finite
from .update_protocol import WriteUpdate, simulate_trace_write_update

__all__ = [
    "WORD_BYTES",
    "AddressMap",
    "WriteBackInvalidate",
    "simulate_trace",
    "ColumnarTrace",
    "CoherenceStats",
    "TangoCollector",
    "ReferenceTrace",
    "TraceRecord",
    "WriteUpdate",
    "simulate_trace_write_update",
    "FiniteWriteBackInvalidate",
    "simulate_trace_finite",
]
