"""Profiling hooks behind ``locusroute profile``.

The sub-command times each experiment with the record
:func:`repro.harness.runner.run_one_cached` returns (the record
``BENCH_harness.json`` is made of); this module adds what that record
does not carry:

- :func:`memory_snapshot` — current and peak RSS of this process.
- :func:`hot_counters` — the telemetry counters the vectorised kernels
  maintain on their hot paths (events replayed, columnar events, messages
  switched), snapshotted as a plain dict for reports.
- :func:`profile_call` — a :mod:`cProfile` hook around an arbitrary
  callable, returning the callable's result together with the formatted
  top-N table.  The profiler inflates Python-call-dense code (the
  reference kernels) far more than NumPy-dense code (the vectorised
  kernels), so compare kernel modes by wall clock (the run record,
  ``benchmarks/bench_perf_suite.py``) and use ``profile_call`` only to
  find *where* time goes inside one mode.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import tracemalloc
from typing import Any, Callable, Dict, Tuple

from . import telemetry

__all__ = ["hot_counters", "memory_snapshot", "profile_call"]

#: Counter names (prefixes) the kernels maintain on their hot paths, plus
#: ``circuits.`` — how many ``Wire`` objects were derived from pin tables.
HOT_COUNTER_PREFIXES = ("sim.", "net.", "route.", "coherence.", "events.", "circuits.")


def memory_snapshot() -> Dict[str, int]:
    """Current and peak RSS of this process, in bytes.

    Reads ``/proc/self/status`` (``VmRSS`` / ``VmHWM``) where available
    and falls back to :func:`resource.getrusage` elsewhere, so it works
    in every environment the harness runs in without optional deps.
    When :mod:`tracemalloc` is tracing, the traced current/peak byte
    counts are included as well (Python-heap only, much smaller than
    RSS but attributable to allocation sites).
    """
    rss = hwm = 0
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) * 1024
    except OSError:
        pass
    if not hwm:
        try:
            import resource

            ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is kilobytes on Linux, bytes on macOS.
            hwm = int(ru_maxrss) * (1 if sys.platform == "darwin" else 1024)
        except (ImportError, ValueError):
            hwm = 0
        rss = rss or hwm
    snap = {"rss_bytes": rss, "peak_rss_bytes": hwm}
    if tracemalloc.is_tracing():
        traced, traced_peak = tracemalloc.get_traced_memory()
        snap["traced_bytes"] = traced
        snap["traced_peak_bytes"] = traced_peak
    return snap


def hot_counters() -> Dict[str, float]:
    """Hot-path telemetry counters, filtered to the kernel namespaces."""
    counters = telemetry.get_telemetry().counters
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(HOT_COUNTER_PREFIXES)
    }


def profile_call(
    fn: Callable[[], Any], sort: str = "cumulative", top: int = 25
) -> Tuple[Any, str]:
    """Run *fn* under :mod:`cProfile`; return ``(result, stats_text)``.

    ``sort`` is any :mod:`pstats` sort key (``cumulative``, ``tottime``,
    ``calls``, ...); ``top`` limits the printed rows.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats(sort).print_stats(top)
    return result, buf.getvalue()
