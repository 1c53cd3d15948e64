"""Shared memory substrate: Tango-style reference tracing and
Write-Back-with-Invalidate cache coherence simulation (infinite caches,
configurable line size)."""

from .addressing import WORD_BYTES, AddressMap
from .coherence import WriteBackInvalidate, simulate_trace
from .columnar import ColumnarTrace, simulate_trace_columnar, simulate_trace_streaming
from .stats import CoherenceStats
from .tango import TangoCollector
from .trace import ReferenceTrace, TraceRecord
from .trace_io import (
    TraceChunk,
    export_dinero,
    iter_trace_chunks,
    load_trace_stream,
    open_trace_stream,
    save_trace_stream,
)
from .finite_cache import FiniteWriteBackInvalidate, simulate_trace_finite
from .update_protocol import WriteUpdate, simulate_trace_write_update

__all__ = [
    "WORD_BYTES",
    "AddressMap",
    "WriteBackInvalidate",
    "simulate_trace",
    "ColumnarTrace",
    "simulate_trace_columnar",
    "CoherenceStats",
    "TangoCollector",
    "ReferenceTrace",
    "TraceRecord",
    "WriteUpdate",
    "simulate_trace_write_update",
    "FiniteWriteBackInvalidate",
    "simulate_trace_finite",
    "save_trace_stream",
    "load_trace_stream",
    "open_trace_stream",
    "iter_trace_chunks",
    "TraceChunk",
    "simulate_trace_streaming",
    "export_dinero",
]
