"""The shared memory LocusRoute simulation (Tango methodology).

Paper §3: one cost array in shared memory, accessed without locks;
processors take wires from a distributed loop (or, for the locality study
of Table 5, from a static assignment) and hit a barrier at the end of each
iteration.  §2.2: the traces behind the traffic numbers come from
fine-grained multiplexed execution on one machine — exactly what this
module does in virtual time:

- a processor's turn is :func:`sm_step`, the one worker step the live
  router (:mod:`repro.parallel.live.sm_live`) runs too.  It *starts* a
  wire at the processor's virtual time: it rips up the old path (writes,
  visible immediately), then evaluates the two-bend candidates against
  the **current committed global array**;
- the chosen path *commits* at start + work time.  Wires in flight on
  other processors during that window are invisible to the evaluation —
  "the processors do not know about the work other processors are doing
  simultaneously" (§1), which is the entire parallel quality-degradation
  mechanism;
- every read rectangle and write burst is recorded in a Tango-style
  reference trace, which is then replayed through the
  Write-Back-with-Invalidate coherence simulator for each requested cache
  line size.

Execution times are reported in Encore-Multimax seconds: the same work
units as the message passing runs, scaled by the paper's 5x NS32032
slowdown (compare with message passing times multiplied by five, §5.1.1).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from ..assign.base import Assignment
from ..assign.distributed_loop import DistributedLoop
from ..circuits.model import Circuit
from ..errors import SimulationError
from ..events.sim import Simulator
from ..faults.plan import validate_crashes
from ..grid.cost_array import CostArray
from ..grid.regions import RegionMap
from ..memsim.addressing import AddressMap
from ..kernels import active_kernels
from ..memsim.coherence import WriteBackInvalidate, simulate_trace
from ..memsim.columnar import ColumnarTrace
from ..memsim.update_protocol import simulate_trace_write_update
from ..memsim.stats import CoherenceStats
from ..memsim.tango import SharedLayout, TangoCollector
from ..obs import telemetry as obs
from ..route.path import RoutePath
from ..route.segments import WireRoute
from ..route.twobend import route_wire
from ..route.workmodel import COMMIT_CELL_UNITS, WorkCounter
from .ledger import GroundTruthLedger
from .results import NodeSummary, ParallelRunResult
from .timing import DEFAULT_COST_MODEL, CostModel

__all__ = ["run_shared_memory", "sm_step", "DEFAULT_LINE_SIZE", "LOOP_GRAB_UNITS", "PROTOCOLS"]

#: Cache line size used when none is specified (Table 5 uses 8-byte lines).
DEFAULT_LINE_SIZE = 8
#: Coherence protocols the traffic replay knows: the paper's
#: Write-Back-with-Invalidate and the write-update ablation (A5).
PROTOCOLS = ("invalidate", "update")
#: Work units to grab a wire subscript from the distributed loop (the
#: shared counter fetch-and-add plus loop bookkeeping).
LOOP_GRAB_UNITS = 4.0


def sm_step(services, grid: CostArray, circuit: Circuit, iteration: int) -> bool:
    """One processor's turn at the distributed loop (§3); False when idle.

    Grab a wire, rip its standing path out of the shared array, evaluate
    the two-bend candidates against *grid* without a lock (wires in
    flight elsewhere are not seen) and commit.  *services* is the
    engine's side of the four steps: :class:`_SimServices` here,
    ``_LiveServices`` in :mod:`repro.parallel.live.sm_live`.
    """
    wire_idx = services.grab()
    if wire_idx is None:
        return False
    # No standing path on a later iteration means the wire's previous
    # owner ripped it out of the shared array before dying: only the
    # re-route remains (a second rip-up would remove the path twice).
    old = services.standing(wire_idx)
    if old is not None:
        services.ripup(wire_idx, old)
    services.commit(wire_idx, route_wire(grid, circuit.wire(wire_idx), tie_break=iteration % 2))
    return True


class _SimServices:
    """One simulated processor: the simulator's side of :func:`sm_step`.

    It keeps the processor's virtual clock, work counter and in-flight
    wire.  A wire starts at the clock after its grab, where its rip-up
    lands; its commit is an event at start + work time, which hands the
    processor back to the engine's ``resume(proc, time)``.
    """

    def __init__(
        self, proc, circuit, sim, ledger, tango, cost_model, numa_regions, loop, dynamic, resume
    ) -> None:
        self.proc, self.circuit, self.sim, self.ledger = proc, circuit, sim, ledger
        self.standing = ledger.standing
        self.tango, self.cost_model, self.numa_regions = tango, cost_model, numa_regions
        self.resume = resume
        #: The shared distributed loop, whose grabs cost time, or this
        #: processor's own list of a static assignment, whose grabs do not.
        self.loop, self.dynamic = loop, dynamic
        self.clock = 0.0
        self.counter = WorkCounter()
        self.wires_routed = 0
        self.crashed = False
        self.ripup_units = 0.0
        #: (wire_idx, cancellable commit handle) while a wire is in
        #: flight; a crash between start and commit cancels the commit and
        #: pushes the wire back into the loop.
        self.inflight: Optional[tuple] = None

    def work_time(self, units: float) -> float:
        return self.cost_model.work_time(units) * self.cost_model.sm_slowdown

    def grab(self) -> Optional[int]:
        if self.dynamic:
            self.counter.route_units += LOOP_GRAB_UNITS
            self.tango.record_loop_grab(self.clock, self.proc)
            self.clock += self.work_time(LOOP_GRAB_UNITS)
        return self.loop.next_wire()

    def ripup(self, wire_idx: int, old: RoutePath) -> None:
        self.ledger.ripup(wire_idx, self.clock)
        self.tango.record_ripup(self.clock, self.proc, wire_idx, old)
        self.ripup_units = COMMIT_CELL_UNITS * old.n_cells
        self.counter.add_commit(old.n_cells)

    def commit(self, wire_idx: int, result: WireRoute) -> None:
        path = result.path
        self.counter.add_route(result.work_cells)
        self.counter.add_commit(path.n_cells)
        units = self.ripup_units + result.work_cells + COMMIT_CELL_UNITS * path.n_cells
        self.ripup_units = 0.0
        if self.numa_regions is not None:
            # Scale this wire's time by the remote fraction of the cells
            # of its committed path under the hierarchical memory model.
            owners = self.numa_regions.owners_of_cells(*path.coords())
            remote_frac = float((owners != self.proc).mean())
            units *= (1.0 - remote_frac) + remote_frac * self.cost_model.numa_remote_factor
        t0 = self.clock
        t1 = self.clock = t0 + self.work_time(units)
        self.tango.record_evaluation(t0, t1, self.proc, self.circuit.wire(wire_idx))
        self.inflight = (wire_idx, self.sim.at(t1, lambda: self._committed(wire_idx, path, t1)))

    def _committed(self, wire_idx: int, path: RoutePath, time: float) -> None:
        self.inflight = None
        self.ledger.commit(self.proc, wire_idx, path, time)
        self.tango.record_commit(time, self.proc, wire_idx, path)
        self.wires_routed += 1
        self.sim.at(time, lambda: self.resume(self.proc, time))


def run_shared_memory(
    circuit: Circuit,
    n_procs: int = 16,
    iterations: int = 3,
    assignment: Optional[Assignment] = None,
    line_size: int = DEFAULT_LINE_SIZE,
    extra_line_sizes: Sequence[int] = (),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    collect_trace: bool = True,
    trace_chunks: int = 4,
    protocol: str = "invalidate",
    keep_trace: bool = False,
    check_invariants: bool = False,
    crashes: Sequence = (),
) -> ParallelRunResult:
    """Simulate the shared memory LocusRoute on *circuit*.

    Parameters
    ----------
    circuit, n_procs, iterations, cost_model:
        As for :func:`~repro.parallel.mp_sim.run_message_passing`.
    assignment:
        ``None`` selects the paper's dynamic distributed loop; a static
        :class:`~repro.assign.base.Assignment` reproduces the Table 5
        locality rows.
    line_size:
        Cache line size (bytes) for the primary coherence result.
    extra_line_sizes:
        Additional line sizes to replay the same trace through (Table 3);
        results land in ``meta["coherence_by_line_size"]``.
    collect_trace:
        Disable to skip tracing/coherence entirely (quality-only runs).
    trace_chunks:
        Sweeps per evaluation rectangle in the trace (see
        :class:`~repro.memsim.tango.TangoCollector`).
    protocol:
        Coherence protocol for the traffic replay: ``"invalidate"`` (the
        paper's Write-Back-with-Invalidate) or ``"update"`` (the
        Archibald & Baer write-update alternative; see
        :mod:`repro.memsim.update_protocol`).
    keep_trace:
        Stash the raw :class:`~repro.memsim.trace.ReferenceTrace` in
        ``meta["trace"]`` (and the :class:`~repro.memsim.tango.
        SharedLayout` in ``meta["layout"]``) so callers can replay it
        through other protocols or cache configurations.
    check_invariants:
        Run the :mod:`repro.verify` checkers alongside the simulation
        (cost-array conservation at every commit, barrier and end of
        run; MSI transition legality during the ``"invalidate"`` trace
        replays).  The report lands in ``meta["verification"]``; its
        counters are flushed into telemetry.
    crashes:
        Optional sequence of :class:`~repro.faults.NodeCrash` events
        mirroring the message passing fail-stop model: at its crash time
        a processor stops dead — its in-flight wire is returned to the
        distributed loop's self-scheduling queue (the next idle survivor
        picks it up) and the iteration barrier waits only on survivors.
        Requires the dynamic distributed loop (a static assignment has
        no mechanism for survivors to absorb a dead processor's list).
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if protocol not in PROTOCOLS:
        raise SimulationError(f"unknown coherence protocol {protocol!r}")
    if n_procs < 1:
        raise SimulationError("need at least one processor")
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    if collect_trace and n_procs > WriteBackInvalidate.MAX_PROCS:
        # The coherence engines keep sharers in an int64 bitmask; say so
        # before routing a single wire, not in the replay afterwards.
        raise SimulationError(
            f"tracing supports at most {WriteBackInvalidate.MAX_PROCS} processors "
            f"(got {n_procs}); pass collect_trace=False for a quality-only run"
        )
    if assignment is not None and (
        assignment.n_procs != n_procs or assignment.n_wires != circuit.n_wires
    ):
        raise SimulationError("assignment does not match circuit / processor count")
    crashes = tuple(crashes)
    if crashes:
        if assignment is not None:
            raise SimulationError(
                "crash recovery needs the dynamic distributed loop; a static "
                "assignment cannot re-schedule a dead processor's wires"
            )
        validate_crashes(crashes, n_procs)

    layout = SharedLayout(circuit.n_channels, circuit.n_grids, circuit.n_wires)
    # One address map per line size, built (and so validated) before
    # routing a single wire.
    amaps: Dict[int, AddressMap] = {}
    if collect_trace:
        for ls in [line_size, *extra_line_sizes]:
            if ls not in amaps:
                amaps[ls] = AddressMap(
                    circuit.n_channels,
                    circuit.n_grids,
                    ls,
                    extra_words=layout.total_words - layout.array_words,
                )

    sim = Simulator()
    # Hierarchical (NUMA) timing: references outside a processor's own
    # region cost ``numa_remote_factor`` times a local one (§5.3.2).  The
    # region geometry matches the message passing mapping's Figure-2 grid.
    numa_regions = (
        RegionMap(circuit.n_channels, circuit.n_grids, n_procs)
        if cost_model.numa_remote_factor != 1.0 and n_procs > 1
        else None
    )
    tango = TangoCollector(layout, enabled=collect_trace, chunks=trace_chunks)
    ledger = GroundTruthLedger(circuit, "shared_memory", check_invariants)
    truth, report, monitor = ledger.truth, ledger.report, ledger.monitor

    # Wire sourcing: one shared distributed loop, or a private loop over
    # each processor's list of a static assignment.
    dynamic = assignment is None
    loops = (
        [DistributedLoop(range(circuit.n_wires))] * n_procs
        if dynamic
        else [DistributedLoop(wires) for wires in assignment.per_proc_lists()]
    )
    state = {"iteration": 0, "finish_time": 0.0}
    at_barrier: set = set()

    def live_procs() -> list:
        return [p for p in range(n_procs) if not procs[p].crashed]

    def proc_step(proc: int, event_time: float) -> None:
        services = procs[proc]
        if services.crashed:
            return
        services.clock = max(services.clock, event_time)
        if not sm_step(services, truth, circuit, state["iteration"]):
            at_barrier.add(proc)
            maybe_release_barrier()

    procs = [
        _SimServices(
            p, circuit, sim, ledger, tango, cost_model, numa_regions, loops[p], dynamic, proc_step
        )
        for p in range(n_procs)
    ]

    def maybe_release_barrier() -> None:
        live = live_procs()
        if not live or not at_barrier.issuperset(live):
            return
        # Every survivor arrived: the barrier releases at the latest
        # live clock (a dead processor's frozen clock never gates it).
        release = max(procs[p].clock for p in live)
        at_barrier.clear()
        state["iteration"] += 1
        state["finish_time"] = release
        if monitor is not None:
            monitor.at_quiescence(release, f"barrier {state['iteration']}")
        if state["iteration"] >= iterations:
            return
        for services in procs:
            services.loop.reset()
        for p in live:
            procs[p].clock = release
        for p in live:
            sim.at(release, lambda p=p: proc_step(p, release))

    def do_crash(c) -> None:
        """Fail-stop a shared memory processor at its planned time."""
        services = procs[c.proc]
        if services.crashed:
            return
        services.crashed = True
        if services.inflight is not None:
            wire_idx, handle = services.inflight
            services.inflight = None
            sim.cancel(handle)
            # The dead processor's half-routed wire re-enters the
            # distributed loop: self-scheduling is the recovery story on
            # the shared memory side.
            services.loop.push_back(wire_idx)
            # A survivor parked at the barrier must wake up to take it.
            parked = sorted(p for p in at_barrier if not procs[p].crashed)
            if parked:
                waker = parked[0]
                at_barrier.discard(waker)
                sim.at(c.at_s, lambda p=waker, t=c.at_s: proc_step(p, t))
                obs.incr("sim.sm.crash_wakeups")
        at_barrier.discard(c.proc)
        maybe_release_barrier()

    for c in crashes:
        sim.at(c.at_s, lambda cc=c: do_crash(cc))

    for p in range(n_procs):
        sim.at(0.0, lambda p=p: proc_step(p, 0.0))
    sim.run()

    if state["iteration"] != iterations:
        raise SimulationError("shared memory run ended before all iterations completed")
    routed = sum(p.wires_routed for p in procs)
    if routed != circuit.n_wires * iterations:
        raise SimulationError(
            f"routed {routed} wire instances, expected "
            f"{circuit.n_wires * iterations}"
        )

    quality = ledger.close(state["finish_time"])

    # The processors and their events reference the collector: take the
    # trace off the collector so its columns are freed on return (unless
    # ``keep_trace`` hands them on), not whenever the cycle collector
    # next runs a full collection.
    recorded = tango.trace
    del tango.trace

    coherence: Optional[CoherenceStats] = None
    by_line: Dict[int, CoherenceStats] = {}
    if collect_trace:
        # Under the vectorized kernels the trace is flattened once and
        # that one ColumnarTrace serves every line size of both protocols.
        # Only the per-access MSI checker needs the scalar state machine
        # (and with it the trace's records).
        checked = report is not None and protocol == "invalidate"
        trace = recorded
        if active_kernels() == "vectorized" and not checked:
            trace = ColumnarTrace.from_trace(trace)
        for ls, amap in amaps.items():
            if protocol == "update":
                by_line[ls] = simulate_trace_write_update(trace, n_procs, amap)
            elif isinstance(trace, ColumnarTrace):
                by_line[ls] = trace.replay(n_procs, amap)
            else:
                checker = None
                if checked:
                    from ..verify.invariants import CoherenceInvariantChecker

                    checker = CoherenceInvariantChecker(report)
                by_line[ls] = simulate_trace(trace, n_procs, amap, checker=checker)
        coherence = by_line[line_size]

    summaries = [
        NodeSummary(
            proc=p.proc,
            wires_routed=p.wires_routed,
            finish_time_s=p.clock,
            route_units=p.counter.route_units,
            commit_units=p.counter.commit_units,
            assemble_units=0.0,
            incorporate_units=0.0,
            messages_sent=0,
            messages_received=0,
            blocked_time_s=0.0,
        )
        for p in procs
    ]
    meta: Dict[str, object] = {
        "assignment": assignment.method if assignment is not None else "distributed loop",
        "n_procs": n_procs,
        "iterations": iterations,
        "circuit": circuit.name,
        "line_size": line_size,
        "protocol": protocol,
        "trace_records": recorded.n_records,
        "trace_references": recorded.n_references,
    }
    if crashes:
        meta["crash"] = {
            "planned": [[int(c.proc), float(c.at_s)] for c in crashes],
            "survivors": live_procs(),
            "requeued_wires": int(loops[0].requeues),
        }
    if by_line:
        meta["coherence_by_line_size"] = {ls: s.as_dict() for ls, s in by_line.items()}
    if keep_trace and collect_trace:
        meta["trace"] = recorded
        meta["layout"] = layout
    meta.update(ledger.verification_meta())
    obs.record_span(
        "sim.sm", time.perf_counter() - wall0, time.process_time() - cpu0
    )
    obs.incr("sim.sm.runs")
    obs.incr("sim.sm.trace_references", recorded.n_references)
    return ParallelRunResult(
        paradigm="shared_memory",
        quality=quality,
        exec_time_s=state["finish_time"],
        paths=ledger.paths,
        wire_router=ledger.wire_router,
        node_summaries=summaries,
        truth=truth,
        coherence=coherence,
        meta=meta,
    )
