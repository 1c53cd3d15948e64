"""Tests for the profiling hooks (hot counters, cProfile, memory snapshot).

How ``locusroute profile`` times experiments is tested in ``tests/test_cli.py``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.profiling import hot_counters, profile_call


class TestHotCounters:
    def test_filters_to_kernel_namespaces(self):
        obs.reset()
        obs.incr("sim.events", 5)
        obs.incr("route.wires", 2)
        obs.incr("circuits.wires_materialised", 4)
        obs.incr("unrelated.thing", 9)
        counters = hot_counters()
        assert counters == {
            "circuits.wires_materialised": 4, "route.wires": 2, "sim.events": 5,
        }

    def test_real_run_populates_counters(self):
        from repro.harness import run_experiment

        obs.reset()
        run_experiment("T6", quick=True)
        counters = hot_counters()
        assert any(name.startswith("sim.") for name in counters)


class TestProfileCall:
    def test_returns_result_and_stats(self):
        result, stats = profile_call(lambda: sum(range(1000)))
        assert result == 499500
        assert "function calls" in stats

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            profile_call(lambda: (_ for _ in ()).throw(RuntimeError("x")))

    def test_sort_and_top_forwarded(self):
        _, stats = profile_call(lambda: [i**2 for i in range(100)], sort="calls", top=3)
        assert stats  # formatted table produced


class TestMemorySnapshot:
    def test_reports_positive_rss(self):
        from repro.obs import memory_snapshot

        snap = memory_snapshot()
        assert snap["rss_bytes"] > 0
        assert snap["peak_rss_bytes"] >= snap["rss_bytes"] or snap["peak_rss_bytes"] > 0

    def test_traced_fields_only_while_tracing(self):
        import tracemalloc

        from repro.obs import memory_snapshot

        assert "traced_bytes" not in memory_snapshot()
        tracemalloc.start()
        try:
            snap = memory_snapshot()
            assert snap["traced_bytes"] >= 0
            assert snap["traced_peak_bytes"] >= snap["traced_bytes"]
        finally:
            tracemalloc.stop()
