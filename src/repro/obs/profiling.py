"""Phase timing and profiling hooks for the performance harness.

Three layers, from cheapest to heaviest:

- :class:`PhaseTimer` — named wall/CPU phase timers for coarse breakdowns
  (circuit build vs simulation vs coherence sweep).  Phases also report
  into the global :mod:`~repro.obs.telemetry` spans as ``profile.<name>``
  so they merge across worker processes like any other span.
- :func:`hot_counters` — the telemetry counters the vectorised kernels
  maintain on their hot paths (events replayed, columnar events, messages
  switched), snapshotted as a plain dict for reports.
- :func:`profile_call` — a :mod:`cProfile` hook around an arbitrary
  callable, returning the callable's result together with the formatted
  top-N table.  This is the heavy option: the profiler inflates
  Python-call-dense code (the reference kernels) far more than
  NumPy-dense code (the vectorised kernels), so use the wall-clock
  numbers from :class:`PhaseTimer` or ``benchmarks/bench_perf_suite.py``
  when comparing kernel modes, and ``profile_call`` only to find *where*
  time goes inside one mode.

Used by the ``locusroute profile`` subcommand and the performance
regression suite (``benchmarks/bench_perf_suite.py``).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from . import telemetry

__all__ = [
    "PhaseRecord",
    "PhaseTimer",
    "hot_counters",
    "memory_snapshot",
    "profile_call",
    "record_peak_memory",
]

#: Counter names (prefixes) the kernels maintain on their hot paths, plus
#: ``circuits.`` — how many ``Wire`` objects were derived from pin tables.
HOT_COUNTER_PREFIXES = ("sim.", "net.", "route.", "coherence.", "events.", "mem.", "circuits.")


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


_reported_peak = 0


def record_peak_memory() -> Dict[str, int]:
    """Snapshot memory and publish the peak to telemetry.

    The ``mem.peak_rss_bytes`` counter is raised monotonically to this
    process's high-water mark (repeat calls only add the growth since
    the last call), so merging worker snapshots sums per-process peaks
    into a total-footprint figure.  Returns the snapshot.
    """
    global _reported_peak
    snap = memory_snapshot()
    peak = snap["peak_rss_bytes"]
    if peak > _reported_peak:
        telemetry.incr("mem.peak_rss_bytes", peak - _reported_peak)
        _reported_peak = peak
    return snap


@dataclass(frozen=True)
class PhaseRecord:
    """One completed phase: name plus wall and CPU seconds.

    ``peak_rss_bytes`` is the process high-water mark observed at the
    end of the phase (0 when the timer was built without
    ``track_memory``).
    """

    name: str
    wall_s: float
    cpu_s: float
    peak_rss_bytes: int = 0


class PhaseTimer:
    """Ordered wall/CPU timing of named phases.

    ::

        timer = PhaseTimer()
        with timer.phase("build"):
            circuit = bnre_like()
        with timer.phase("simulate"):
            run_shared_memory(circuit)
        print(timer.render())

    Phases may repeat; each entry is kept (the report shows every
    occurrence in order, which makes per-iteration drift visible).
    """

    def __init__(self, track_memory: bool = False) -> None:
        self.records: List[PhaseRecord] = []
        self.track_memory = track_memory

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase; also reported as telemetry span ``profile.<name>``.

        With ``track_memory`` the phase also snapshots the process RSS
        high-water mark on exit and raises the ``mem.peak_rss_bytes``
        telemetry counter (see :func:`record_peak_memory`).
        """
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            peak = record_peak_memory()["peak_rss_bytes"] if self.track_memory else 0
            self.records.append(PhaseRecord(name, wall, cpu, peak))
            telemetry.record_span(f"profile.{name}", wall, cpu)

    @property
    def total_wall_s(self) -> float:
        """Sum of all recorded phases' wall time."""
        return sum(r.wall_s for r in self.records)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary (ordered phase list plus the total)."""
        phases: List[Dict[str, object]] = []
        for r in self.records:
            entry: Dict[str, object] = {
                "name": r.name,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
            }
            if r.peak_rss_bytes:
                entry["peak_rss_bytes"] = r.peak_rss_bytes
            phases.append(entry)
        out: Dict[str, object] = {
            "phases": phases,
            "total_wall_s": self.total_wall_s,
        }
        peak = max((r.peak_rss_bytes for r in self.records), default=0)
        if peak:
            out["peak_rss_bytes"] = peak
        return out

    def render(self) -> str:
        """Fixed-width phase table with share-of-total percentages."""
        total = self.total_wall_s
        with_mem = any(r.peak_rss_bytes for r in self.records)
        width = max((len(r.name) for r in self.records), default=4)
        header = f"{'phase':<{width}}  {'wall':>9}  {'cpu':>9}  {'share':>6}"
        if with_mem:
            header += f"  {'peakRSS':>9}"
        lines = [header]
        for r in self.records:
            share = (r.wall_s / total * 100.0) if total > 0 else 0.0
            line = (
                f"{r.name:<{width}}  {r.wall_s * 1e3:7.1f}ms  "
                f"{r.cpu_s * 1e3:7.1f}ms  {share:5.1f}%"
            )
            if with_mem:
                line += f"  {r.peak_rss_bytes / 2**20:7.1f}MB"
            lines.append(line)
        lines.append(f"{'total':<{width}}  {total * 1e3:7.1f}ms")
        return "\n".join(lines)


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
