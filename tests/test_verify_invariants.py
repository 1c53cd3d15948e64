"""Unit tests for the invariant checkers and violation records."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits import bnre_like
from repro.grid.cost_array import CostArray
from repro.memsim.addressing import AddressMap
from repro.memsim.coherence import WriteBackInvalidate, simulate_trace
from repro.memsim.trace import ReferenceTrace, TraceRecord
from repro.parallel import run_message_passing, run_shared_memory
from repro.route.path import RoutePath
from repro.updates import UpdateSchedule
from repro.verify import (
    CoherenceInvariantChecker,
    CostConservationMonitor,
    InvariantViolation,
    NetworkInvariantMonitor,
    VerificationReport,
    check_truth_is_path_union,
    first_differing_cell,
)


def make_path(cells, n_grids=40):
    flat = np.array(sorted(cells), dtype=np.int64)
    return RoutePath(flat_cells=flat, n_grids=n_grids)


# ----------------------------------------------------------------------
# report mechanics
# ----------------------------------------------------------------------
class TestVerificationReport:
    def test_check_counts_and_records(self):
        report = VerificationReport()
        assert report.check("inv", True, "fine")
        assert not report.check("inv", False, "broken", wire=3)
        assert report.total_checks == 2
        assert report.total_violations == 1
        assert not report.ok
        assert report.violations[0].wire == 3

    def test_merge_folds_everything(self):
        a, b = VerificationReport(), VerificationReport()
        a.check("x", True, "")
        b.check("x", False, "bad")
        b.check("y", True, "")
        a.merge(b)
        assert a.checks_run == {"x": 2, "y": 1}
        assert a.total_violations == 1

    def test_violation_cap_suppresses_flood(self):
        from repro.verify.violations import MAX_VIOLATIONS_PER_INVARIANT

        report = VerificationReport()
        for i in range(MAX_VIOLATIONS_PER_INVARIANT + 10):
            report.check("flood", False, f"v{i}")
        assert len(report.violations) == MAX_VIOLATIONS_PER_INVARIANT
        assert report.suppressed == {"flood": 10}
        assert report.total_violations == MAX_VIOLATIONS_PER_INVARIANT + 10
        assert "suppressed" in report.render()

    def test_as_dict_round_trips_through_json(self):
        import json

        report = VerificationReport()
        report.check("inv", False, "broken", cell=(1, 2), event_time_s=0.5)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is False
        assert payload["violations"][0]["cell"] == [1, 2]

    def test_violation_describe_includes_context(self):
        v = InvariantViolation(
            invariant="cost-conservation",
            message="m",
            cell=(3, 7),
            wire=12,
            event_time_s=1.25,
        )
        text = v.describe()
        assert "cost-conservation" in text
        assert "c=3" in text and "x=7" in text
        assert "wire=12" in text


# ----------------------------------------------------------------------
# array diff helpers
# ----------------------------------------------------------------------
class TestFirstDifferingCell:
    def test_no_difference(self):
        a = np.arange(12).reshape(3, 4)
        assert first_differing_cell(a, a.copy()) is None

    def test_reports_row_major_first(self):
        a = np.zeros((3, 4), dtype=np.int64)
        b = a.copy()
        b[2, 1] = 5
        b[1, 3] = 2
        assert first_differing_cell(a, b) == (1, 3, 0, 2)


class TestTruthPathUnion:
    def test_exact_union_passes(self):
        truth = CostArray(4, 40)
        paths = {0: make_path([1, 2, 3]), 1: make_path([2, 45])}
        for p in paths.values():
            truth.apply_path(p.flat_cells)
        report = VerificationReport()
        assert check_truth_is_path_union(report, truth, paths)
        assert report.ok

    def test_divergence_names_cell_wire_and_time(self):
        truth = CostArray(4, 40)
        paths = {7: make_path([41, 42, 43])}
        truth.apply_path(paths[7].flat_cells)
        truth.data[1, 2] += 1  # flat 42: phantom extra occupancy
        report = VerificationReport()
        assert not check_truth_is_path_union(
            report, truth, paths, commit_times={7: 1.5}
        )
        v = report.violations[0]
        assert v.cell == (1, 2)
        assert v.wire == 7
        assert v.event_time_s == 1.5
        assert v.actual == 2 and v.expected == 1


class TestCostConservationMonitor:
    def test_clean_commit_stream(self):
        truth = CostArray(4, 40)
        report = VerificationReport()
        monitor = CostConservationMonitor(report, truth, engine="test")
        p = make_path([5, 6, 7])
        truth.apply_path(p.flat_cells)
        monitor.on_commit(0, p, 0.1)
        monitor.at_quiescence(0.2, "barrier 1")
        truth.remove_path(p.flat_cells)
        monitor.on_ripup(0, p, 0.3)
        q = make_path([8, 9])
        truth.apply_path(q.flat_cells)
        monitor.on_commit(0, q, 0.4)
        monitor.at_end({0: q}, 0.5)
        assert report.ok
        assert monitor.commit_times[0] == 0.4

    def test_lost_update_detected_at_commit(self):
        truth = CostArray(4, 40)
        report = VerificationReport()
        monitor = CostConservationMonitor(report, truth, engine="test")
        p = make_path([5, 6, 7])
        # Commit recorded but the array never updated: a lost write.
        monitor.on_commit(0, p, 0.1)
        assert not report.ok
        v = report.violations[0]
        assert v.expected == 3 and v.actual == 0
        assert v.event_time_s == 0.1


class TestNetworkInvariantMonitor:
    @pytest.mark.parametrize(
        "injected, delivered, in_flight, ok",
        [
            (3, 3, 0, True),
            (5, 3, 2, True),
            (5, 3, 1, False),
            # Balanced, but no message is in flight a negative number of times.
            (2, 3, -1, False),
        ],
    )
    def test_probe(self, injected, delivered, in_flight, ok):
        network = SimpleNamespace(
            messages_injected=injected, messages_delivered=delivered,
            in_flight=in_flight, sim=SimpleNamespace(now=0.25),
        )
        report = VerificationReport()
        NetworkInvariantMonitor(report, network).probe()
        assert report.checks_run == {"flit-conservation": 1}
        assert [v.event_time_s for v in report.violations] == ([] if ok else [0.25])


    @pytest.mark.parametrize(
        "expected_busy, error, ok",
        [
            (1000.0, 5e-7, True),  # within 1e-9 of the expected busy time
            (1000.0, 2e-6, False),
            (0.5, 7e-10, True),  # below one second the bound is 1e-9 s
            (0.5, 2e-9, False),
        ],
    )
    def test_link_busy_time_is_checked_relative_to_its_size(self, expected_busy, error, ok):
        # One 1-hop, 9-byte message held its link for 10 byte-times.
        stats = SimpleNamespace(n_messages=1, total_bytes=9, total_hop_bytes=9, total_hops=1)
        network = SimpleNamespace(
            in_flight=0, messages_injected=1, messages_delivered=1,
            bytes_injected=9, bytes_delivered=9, stats=stats,
            hop_time_s=expected_busy / 10, _link_busy_s=[expected_busy + error],
        )
        report = VerificationReport()
        NetworkInvariantMonitor(report, network).at_end(2.0)
        assert report.checks_run == {"flit-conservation": 4}
        assert [v.expected for v in report.violations] == ([] if ok else [expected_busy])


# ----------------------------------------------------------------------
# MSI coherence legality
# ----------------------------------------------------------------------
class TestCoherenceChecker:
    def make_trace(self):
        return ReferenceTrace(
            records=[
                TraceRecord(0.0, 0, False, np.array([0, 1, 2], dtype=np.int64)),
                TraceRecord(0.1, 1, True, np.array([1], dtype=np.int64)),
                TraceRecord(0.2, 0, False, np.array([1], dtype=np.int64)),
                TraceRecord(0.3, 1, True, np.array([1, 5], dtype=np.int64)),
            ]
        )

    def test_legal_trace_passes(self):
        amap = AddressMap(4, 40, 8)
        report = VerificationReport()
        checker = CoherenceInvariantChecker(report)
        simulate_trace(self.make_trace(), 2, amap, checker=checker)
        assert report.ok
        assert report.checks_run["msi-legality"] > 0

    def test_checker_does_not_change_traffic(self):
        amap = AddressMap(4, 40, 8)
        plain = simulate_trace(self.make_trace(), 2, amap)
        checked = simulate_trace(
            self.make_trace(), 2, amap, checker=CoherenceInvariantChecker(VerificationReport())
        )
        assert plain.as_dict() == checked.as_dict()

    def test_two_modified_holders_detected(self):
        amap = AddressMap(4, 40, 8)
        protocol = WriteBackInvalidate(2, amap)
        report = VerificationReport()
        checker = CoherenceInvariantChecker(report)
        record = TraceRecord(0.5, 0, True, np.array([0], dtype=np.int64))
        checker.pre(protocol, record)
        protocol.access(0, record.flat_cells, True)
        # Corrupt the state machine behind the checker's back: cache 1
        # also claims the line while 0 holds it modified.
        protocol._sharers[0] |= 0b10
        protocol._ever_held[0] |= 0b10
        checker.post(protocol, record)
        assert not report.ok
        assert any("not exclusive" in v.message or "illegal" in v.message
                   for v in report.violations)

    def test_phantom_sharer_detected(self):
        amap = AddressMap(4, 40, 8)
        protocol = WriteBackInvalidate(3, amap)
        report = VerificationReport()
        checker = CoherenceInvariantChecker(report)
        record = TraceRecord(0.5, 0, False, np.array([0], dtype=np.int64))
        checker.pre(protocol, record)
        protocol.access(0, record.flat_cells, False)
        # A sharer bit for a cache that never fetched the line.
        protocol._sharers[0] |= 0b100
        checker.post(protocol, record)
        assert not report.ok


# ----------------------------------------------------------------------
# checked full runs: every checker fires and passes
# ----------------------------------------------------------------------
class TestCheckedRuns:
    def test_sm_run_clean(self, small_bnre):
        result = run_shared_memory(
            small_bnre, n_procs=4, iterations=2, check_invariants=True
        )
        verification = result.meta["verification"]
        assert verification["ok"]
        assert verification["checks_run"]["cost-conservation"] > 0
        assert verification["checks_run"]["msi-legality"] > 0

    def test_mp_run_clean(self, small_bnre):
        result = run_message_passing(
            small_bnre,
            UpdateSchedule.sender_initiated(2, 10),
            n_procs=4,
            iterations=2,
            check_invariants=True,
        )
        verification = result.meta["verification"]
        assert verification["ok"]
        for name in ("cost-conservation", "flit-conservation", "replica-convergence"):
            assert verification["checks_run"][name] > 0, name

    def test_unchecked_run_has_no_report(self, small_bnre):
        result = run_message_passing(
            bnre_like(n_wires=40),
            UpdateSchedule.sender_initiated(2, 10),
            n_procs=4,
            iterations=1,
        )
        assert "verification" not in result.meta
