"""Tests for the profiling layer (phase timers, hot counters, cProfile hook)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.profiling import PhaseTimer, hot_counters, profile_call


class TestPhaseTimer:
    def test_records_phases_in_order(self):
        timer = PhaseTimer()
        with timer.phase("build"):
            pass
        with timer.phase("simulate"):
            pass
        assert [r.name for r in timer.records] == ["build", "simulate"]
        assert all(r.wall_s >= 0 and r.cpu_s >= 0 for r in timer.records)

    def test_repeated_phases_keep_every_occurrence(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("iteration"):
                pass
        assert len(timer.records) == 3
        assert timer.total_wall_s == sum(r.wall_s for r in timer.records)

    def test_phase_recorded_even_when_body_raises(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("boom"):
                raise ValueError("x")
        assert timer.records[0].name == "boom"

    def test_reports_into_telemetry_spans(self):
        obs.reset()
        timer = PhaseTimer()
        with timer.phase("spanned"):
            pass
        spans = obs.get_telemetry().spans
        assert "profile.spanned" in spans

    def test_as_dict_and_render(self):
        timer = PhaseTimer()
        with timer.phase("only"):
            pass
        d = timer.as_dict()
        assert d["phases"][0]["name"] == "only"
        assert "total_wall_s" in d
        text = timer.render()
        assert "only" in text and "share" in text

    def test_render_empty_timer(self):
        assert "total" in PhaseTimer().render()


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

    def test_record_peak_memory_feeds_telemetry(self, monkeypatch):
        from repro.obs import profiling, record_peak_memory
        from repro.obs.telemetry import get_telemetry

        # The process-wide high-water mark already published by earlier
        # tests would leave nothing new to report unless the peak grew.
        monkeypatch.setattr(profiling, "_reported_peak", 0)
        snap = record_peak_memory()
        assert snap["peak_rss_bytes"] > 0
        assert get_telemetry().counters.get("mem.peak_rss_bytes", 0) > 0


class TestPhaseTimerMemoryTracking:
    def test_track_memory_records_peak_rss(self):
        timer = PhaseTimer(track_memory=True)
        with timer.phase("work"):
            _ = bytearray(1_000_000)
        rec = timer.records[0]
        assert rec.peak_rss_bytes > 0
        d = timer.as_dict()
        assert d["phases"][0]["peak_rss_bytes"] == rec.peak_rss_bytes
        assert d["peak_rss_bytes"] >= rec.peak_rss_bytes
        assert "peakRSS" in timer.render()

    def test_default_timer_omits_memory_columns(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            pass
        assert timer.records[0].peak_rss_bytes == 0
        assert "peakRSS" not in timer.render()
        assert "peak_rss_bytes" not in timer.as_dict()["phases"][0] or (
            timer.as_dict()["phases"][0].get("peak_rss_bytes", 0) == 0
        )
