"""Integration tests for the shared memory LocusRoute simulation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.parallel.sm_sim as sm_sim
from repro.assign import RoundRobinAssigner, ThresholdCostAssigner
from repro.assign.base import Assignment
from repro.circuits import Circuit, Pin, Wire, tiny_test_circuit
from repro.errors import SimulationError
from repro.grid import CostArray, RegionMap
from repro.parallel import DEFAULT_COST_MODEL, run_shared_memory
from repro.route import SequentialRouter


@pytest.fixture(scope="module")
def circuit():
    return tiny_test_circuit(n_wires=30)


class TestCompleteness:
    def test_every_wire_routed(self, circuit):
        result = run_shared_memory(circuit, n_procs=4, iterations=2)
        assert set(result.paths) == set(range(circuit.n_wires))

    def test_truth_is_sum_of_paths(self, circuit):
        result = run_shared_memory(circuit, n_procs=4, iterations=2)
        reference = CostArray(circuit.n_channels, circuit.n_grids)
        for path in result.paths.values():
            reference.apply_path(path.flat_cells)
        assert reference == result.truth

    def test_wires_routed_counts(self, circuit):
        result = run_shared_memory(circuit, n_procs=4, iterations=3)
        assert sum(s.wires_routed for s in result.node_summaries) == 3 * circuit.n_wires

    def test_deterministic(self, circuit):
        a = run_shared_memory(circuit, n_procs=4, iterations=2)
        b = run_shared_memory(circuit, n_procs=4, iterations=2)
        assert a.quality == b.quality
        assert a.coherence.total_bytes == b.coherence.total_bytes
        assert a.exec_time_s == b.exec_time_s


class TestSingleProcessorEquivalence:
    def test_one_proc_matches_sequential_router(self, circuit):
        """With one processor and the dynamic loop the SM simulation is
        exactly the sequential algorithm (same wire order, no staleness)."""
        sm = run_shared_memory(circuit, n_procs=1, iterations=3, collect_trace=False)
        seq = SequentialRouter(circuit, iterations=3).run()
        assert sm.quality.circuit_height == seq.quality.circuit_height
        assert sm.quality.occupancy_factor == seq.quality.occupancy_factor
        assert all(sm.paths[w] == seq.paths[w] for w in seq.paths)


class TestStaleness:
    def test_more_processors_do_not_improve_final_congestion(self):
        """Staleness can only add wire overlap in the final solution.

        (The paper's *occupancy factor* is priced at commit time, which
        under-counts concurrently in-flight wires, so on small circuits it
        can move either way; the pairwise overlap of the final cost array
        is the bias-free congestion measure.)
        """
        import numpy as np

        dense = tiny_test_circuit(n_wires=90)

        def overlap(n_procs):
            r = run_shared_memory(dense, n_procs=n_procs, iterations=3, collect_trace=False)
            occ = r.truth.data.astype(np.int64)
            return int((occ * (occ - 1) // 2).sum())

        assert overlap(8) >= overlap(1)

    def test_parallel_run_is_faster(self, circuit):
        one = run_shared_memory(circuit, n_procs=1, iterations=2, collect_trace=False)
        four = run_shared_memory(circuit, n_procs=4, iterations=2, collect_trace=False)
        assert four.exec_time_s < one.exec_time_s


class TestCoherenceIntegration:
    def test_line_size_sweep_in_meta(self, circuit):
        result = run_shared_memory(
            circuit, n_procs=4, iterations=2, line_size=8, extra_line_sizes=(4, 16)
        )
        by_line = result.meta["coherence_by_line_size"]
        assert set(by_line) == {4, 8, 16}
        assert result.coherence.line_size == 8
        assert result.mbytes_transferred == by_line[8]["mbytes"]

    def test_too_many_traced_processors_rejected_before_routing(self, circuit, monkeypatch):
        """64 processors overflow the coherence engines' sharer bitmask; the
        run must say so at entry, not after simulating everything."""
        import repro.parallel.sm_sim as sm_sim

        def must_not_run(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(sm_sim, "Simulator", must_not_run)
        monkeypatch.setattr(sm_sim, "route_wire", must_not_run)
        for protocol in ("invalidate", "update"):
            with pytest.raises(SimulationError, match="at most 63 processors"):
                run_shared_memory(circuit, n_procs=64, iterations=1, protocol=protocol)

    @pytest.mark.parametrize("sizes", [{"line_size": 3}, {"extra_line_sizes": (16, 12)}])
    def test_bad_line_size_rejected_before_routing(self, monkeypatch, sizes):
        """A line size the address map refuses fails at entry, with the
        replay's own error, before a single wire is routed."""
        import repro.parallel.sm_sim as sm_sim
        from repro.circuits import bnre_like
        from repro.errors import CoherenceError

        def must_not_run(*args, **kwargs):
            raise AssertionError("a wire was routed")

        monkeypatch.setattr(sm_sim, "route_wire", must_not_run)
        bad = sizes.get("line_size", 12)
        with pytest.raises(CoherenceError, match=f"power of two >= 4, got {bad}$"):
            run_shared_memory(bnre_like(5, n_wires=40), n_procs=4, **sizes)

    def test_sixty_four_untraced_processors_still_run(self, circuit):
        result = run_shared_memory(circuit, n_procs=64, iterations=1, collect_trace=False)
        assert set(result.paths) == set(range(circuit.n_wires))
        assert result.coherence is None

    def test_collect_trace_false_skips_coherence(self, circuit):
        result = run_shared_memory(circuit, n_procs=4, iterations=2, collect_trace=False)
        assert result.coherence is None
        assert result.mbytes_transferred == 0.0

    def test_trace_counts_reported(self, circuit):
        result = run_shared_memory(circuit, n_procs=4, iterations=2)
        assert result.meta["trace_records"] > 0
        assert result.meta["trace_references"] > result.meta["trace_records"]

    def test_more_chunks_more_references(self, circuit):
        small = run_shared_memory(circuit, n_procs=4, iterations=2, trace_chunks=2)
        big = run_shared_memory(circuit, n_procs=4, iterations=2, trace_chunks=6)
        assert big.meta["trace_references"] > small.meta["trace_references"]


class TestTraceLifetime:
    """The step closures and the collector form a cycle; the trace must
    not wait for the cycle collector to be freed."""

    @pytest.fixture
    def traces(self, monkeypatch):
        import gc
        import weakref

        import repro.parallel.sm_sim as sm_sim

        refs = []

        class Watched(sm_sim.TangoCollector):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self.trace))

        monkeypatch.setattr(sm_sim, "TangoCollector", Watched)
        gc.collect()
        gc.disable()
        try:
            yield refs
        finally:
            gc.enable()

    @pytest.mark.parametrize("protocol", ["invalidate", "update"])
    def test_trace_is_freed_on_return(self, circuit, traces, protocol):
        result = run_shared_memory(circuit, n_procs=4, iterations=2, protocol=protocol)
        assert result.meta["trace_references"] > 0
        (ref,) = traces
        assert ref() is None

    def test_keep_trace_hands_the_trace_on(self, circuit, traces):
        result = run_shared_memory(circuit, n_procs=4, iterations=2, keep_trace=True)
        (ref,) = traces
        assert ref() is result.meta["trace"]
        assert ref().n_references == result.meta["trace_references"]


class TestStaticAssignment:
    def test_static_assignment_routes_everything(self, circuit):
        regions = RegionMap(circuit.n_channels, circuit.n_grids, 4)
        asg = RoundRobinAssigner(circuit, regions).assign()
        result = run_shared_memory(circuit, n_procs=4, iterations=3, assignment=asg)
        assert sum(s.wires_routed for s in result.node_summaries) == 3 * circuit.n_wires
        assert result.meta["assignment"] == "round robin"

    def test_static_wire_router_matches_assignment(self, circuit):
        regions = RegionMap(circuit.n_channels, circuit.n_grids, 4)
        asg = ThresholdCostAssigner(circuit, regions, 30).assign()
        result = run_shared_memory(circuit, n_procs=4, iterations=2, assignment=asg)
        assert list(result.wire_router) == list(asg.owner)

    def test_assignment_mismatch_rejected(self, circuit):
        regions = RegionMap(circuit.n_channels, circuit.n_grids, 8)
        wrong = RoundRobinAssigner(circuit, regions).assign()
        with pytest.raises(SimulationError):
            run_shared_memory(circuit, n_procs=4, assignment=wrong)


class TestTimeScale:
    def test_sm_time_uses_multimax_slowdown(self, circuit):
        """SM times are in Multimax seconds: ~5x the same work on the
        simulated Ametek nodes (paper §2.1 footnote)."""
        from repro.parallel import run_message_passing
        from repro.updates import UpdateSchedule

        # One processor on each side removes load-imbalance noise: the
        # ratio is then the pure processor-speed factor (plus the SM
        # loop-grab overhead).
        sm = run_shared_memory(circuit, n_procs=1, iterations=2, collect_trace=False)
        mp = run_message_passing(circuit, UpdateSchedule(), n_procs=1, iterations=2)
        ratio = sm.exec_time_s / mp.exec_time_s
        assert 4.5 < ratio < 6.0


class TestStepAccounting:
    """What the simulator's services charge and record for each step."""

    def test_one_processors_work_counters_add_up_to_its_clock(self, circuit):
        # One processor never waits, so its virtual time is exactly its
        # loop grabs, evaluations, rip-ups and commits.
        result = run_shared_memory(circuit, n_procs=1, iterations=3, collect_trace=False)
        (node,) = result.node_summaries
        units = node.route_units + node.commit_units
        expected = DEFAULT_COST_MODEL.work_time(units) * DEFAULT_COST_MODEL.sm_slowdown
        assert node.finish_time_s == pytest.approx(expected, rel=1e-12)

    def test_every_ripup_traces_the_path_committed_before_it(self, circuit, monkeypatch):
        ops = []

        class Recording(sm_sim.TangoCollector):
            def record_commit(self, time, proc, wire_idx, path):
                super().record_commit(time, proc, wire_idx, path)
                ops.append((False, wire_idx, path))

            def record_ripup(self, time, proc, wire_idx, path):
                super().record_ripup(time, proc, wire_idx, path)
                ops.append((True, wire_idx, path))

        monkeypatch.setattr(sm_sim, "TangoCollector", Recording)
        result = run_shared_memory(circuit, n_procs=4, iterations=3)
        standing = {}
        for ripup, wire_idx, path in ops:
            if ripup:
                assert standing.pop(wire_idx) is path
            else:
                assert wire_idx not in standing
                standing[wire_idx] = path
        assert sum(ripup for ripup, _, _ in ops) == 2 * circuit.n_wires
        assert standing == dict(result.paths)

    def test_numa_scales_exactly_the_remote_work(self):
        """Wires that stay inside one region cost ``numa_remote_factor``
        times as much on a processor that does not own the region, and
        nothing extra on the one that does."""
        regions = RegionMap(4, 40, 4)
        wires, home = [], []
        for r in range(4):
            box = regions.region(r)
            for k in range(3):
                pins = [Pin(box.x_lo + k, box.c_lo), Pin(box.x_hi - 2 * k, box.c_hi)]
                wires.append(Wire(f"w{len(wires)}", pins))
                home.append(r)
        circuit = Circuit("regional", 4, 40, wires)
        remote = dataclasses.replace(DEFAULT_COST_MODEL, numa_remote_factor=3.0)

        def exec_time(owner, cost_model):
            asg = Assignment(np.array(owner), 4, "by region")
            run = run_shared_memory(
                circuit, n_procs=4, iterations=2, assignment=asg,
                cost_model=cost_model, collect_trace=False,
            )
            return run.exec_time_s

        local = home
        away = [(r + 1) % 4 for r in home]
        assert exec_time(local, remote) == pytest.approx(exec_time(local, DEFAULT_COST_MODEL))
        assert exec_time(away, remote) == pytest.approx(3.0 * exec_time(away, DEFAULT_COST_MODEL))
