"""The complete message passing LocusRoute simulation (CBS methodology).

:func:`run_message_passing` wires together every substrate: the static
wire assignment (or, given a :class:`~repro.assign.DistributedLoop`, the
§4.2 dynamic distribution), one :class:`~repro.parallel.node.MPNode` per
processor, the contention-aware wormhole network, and the ground-truth
:class:`~repro.parallel.ledger.GroundTruthLedger` fed from commit/rip-up
events.

Each node routes against its *local view*, which drifts between updates —
that drift is the entire quality story of the paper.  Quality metrics come
from the ledger's truth array, never from a view.

Execution time is the makespan: the latest time any node finished its last
assigned wire (including the update sends that wire triggered).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Union

import numpy as np

from ..assign.base import Assignment
from ..assign.distributed_loop import DistributedLoop
from ..assign.threshold import ThresholdCostAssigner
from ..circuits.model import Circuit
from ..errors import ProtocolError, SimulationError
from ..events.sim import Simulator
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, validate_crashes
from ..grid.ownership import OwnershipMap
from ..grid.regions import RegionMap, proc_grid_shape
from ..netsim.message import Delivery, Message
from ..netsim.topology import MeshTopology
from ..obs import telemetry as obs
from ..netsim.wormhole import WormholeNetwork
from ..route.path import RoutePath
from ..updates.packets import UpdatePacket
from ..updates.schedule import UpdateSchedule
from .ledger import GroundTruthLedger
from .node import TASK_MASTER, MPNode, NodeServices
from .results import NodeSummary, ParallelRunResult
from .timing import DEFAULT_COST_MODEL, CostModel

__all__ = ["run_message_passing", "run_dynamic_assignment", "default_assignment"]

#: The static assignment the update-strategy tables use (Table 1/2 runs
#: share "the same static wire assignment"; ThresholdCost=1000 matches the
#: Table 4 row whose traffic and time coincide with Table 1's (2, 10) row).
DEFAULT_THRESHOLD_COST = 1000.0


def default_assignment(circuit: Circuit, regions: RegionMap) -> Assignment:
    """The ThresholdCost=1000 locality assignment used by default."""
    return ThresholdCostAssigner(circuit, regions, DEFAULT_THRESHOLD_COST).assign()


def run_message_passing(
    circuit: Circuit,
    schedule: UpdateSchedule,
    n_procs: int = 16,
    iterations: int = 3,
    assignment: Union[Assignment, DistributedLoop, None] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    track_divergence: bool = False,
    check_invariants: bool = False,
    faults: Optional[FaultPlan] = None,
) -> ParallelRunResult:
    """Simulate the message passing LocusRoute on *circuit*.

    Parameters
    ----------
    circuit:
        The circuit to route.
    schedule:
        The update strategy (see :class:`~repro.updates.UpdateSchedule`).
    n_procs:
        Processor count; the mesh/region shape follows
        :func:`~repro.grid.regions.proc_grid_shape`.
    iterations:
        Rip-up-and-reroute iterations.
    assignment:
        Static wire assignment; defaults to ThresholdCost=1000 locality.
        A :class:`~repro.assign.DistributedLoop` over the circuit's wires
        selects the §4.2 *dynamic* distribution instead (see
        :mod:`repro.parallel.node`).  Dynamic runs are one iteration (a
        wire's old path lives only on the node that routed it, which is
        what pushed the paper to static assignment), sender-initiated
        only (no lookahead through wires not yet granted) and crash-free;
        ``meta["mean_task_wait_s"]`` is the mean time a non-master node
        idled per task request.
    cost_model:
        Simulated per-operation times.
    track_divergence:
        Measure *staleness* directly: at every commit, record the L1
        distance between the committing node's local view and the true
        global cost array.  Results land in ``meta["divergence"]`` (mean /
        max per-cell-sum distance and a per-node breakdown).  This is the
        mechanism behind every quality result in the paper — nodes route
        against views that have drifted from reality.
    check_invariants:
        Run the :mod:`repro.verify` checkers alongside the simulation:
        cost-array conservation at every commit and end of run, wormhole
        flit conservation / in-flight accounting (probed every
        ``PROBE_INTERVAL`` kernel events and closed out at drain), and
        end-of-run delta-replica convergence against the ground truth.
        The report lands in ``meta["verification"]``; its counters are
        flushed into telemetry.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  A
        :class:`~repro.faults.FaultInjector` is installed in the network
        and the plan's :class:`~repro.faults.RecoveryPolicy` arms each
        node's staleness watchdog.  Fault and recovery counters land in
        ``meta["faults"]``.  When the injected faults are *lossy*
        (dropped or duplicated packets), the delta-replica convergence
        check is waived — explicitly, as a ``replica-convergence-waived``
        counter in the verification report — because lost/doubled deltas
        make exact reconstruction impossible by construction; all other
        invariants (cost conservation, flit conservation on transmitted
        traffic) still hold and are still enforced.

        A plan with ``node_crashes`` fail-stops whole processors mid-run
        (requires a ``recovery`` policy): survivors detect each death via
        watchdog suspicion, heartbeat probes, and gossiped death notices,
        re-own the orphaned regions over a consistent-hash ring
        (:class:`~repro.grid.OwnershipMap`), adopt the dead nodes'
        unfinished wires, and the run completes with every wire routed.
        Crash details land in ``meta["faults"]["crash"]`` and, under
        ``check_invariants``, the post-recovery ownership maps are
        verified for totality and agreement.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    shape = proc_grid_shape(n_procs)
    regions = RegionMap(circuit.n_channels, circuit.n_grids, n_procs, shape)
    crash_plan = tuple(faults.node_crashes) if faults is not None else ()
    task_loop = assignment if isinstance(assignment, DistributedLoop) else None
    if task_loop is not None:
        if task_loop.remaining != circuit.n_wires or iterations != 1:
            raise SimulationError(
                "dynamic distribution routes one iteration of a loop over "
                "every wire of the circuit"
            )
        if schedule.has_receiver_initiated:
            raise ProtocolError(
                "dynamic assignment cannot look ahead: receiver-initiated "
                "schedules are not supported"
            )
        if crash_plan:
            raise SimulationError(
                "dynamic distribution cannot recover from crashes: orphan "
                "adoption presumes static wire responsibility"
            )
        per_proc: List[List[int]] = [[] for _ in range(n_procs)]
        mode = "interrupt" if schedule.interrupt_reception else "polled"
        method = f"dynamic ({mode})"
    else:
        if assignment is None:
            assignment = default_assignment(circuit, regions)
        if assignment.n_procs != n_procs or assignment.n_wires != circuit.n_wires:
            raise SimulationError("assignment does not match circuit / processor count")
        per_proc = assignment.per_proc_lists()
        method = assignment.method

    if crash_plan:
        if faults.recovery is None:
            raise SimulationError(
                "node crashes need a RecoveryPolicy (failure detection rides "
                "on the staleness watchdog)"
            )
        validate_crashes(crash_plan, n_procs)

    sim = Simulator()
    nodes: List[MPNode] = []
    ledger = GroundTruthLedger(circuit, "message_passing", check_invariants)
    truth, final_paths, report = ledger.truth, ledger.paths, ledger.report
    net_monitor = None

    def on_deliver(delivery: Delivery) -> None:
        if net_monitor is not None:
            net_monitor.on_delivery(delivery)
        if injector is not None and injector.is_crashed(
            delivery.message.dst, delivery.arrive_time
        ):
            # Fail-stop: messages in flight to a dead node are discarded
            # (counted separately from lossy-fault drops so the injected
            # == attempts - dropped + duplicated reconciliation holds).
            injector.count_crash_delivery_drop()
            return
        packet: UpdatePacket = delivery.message.payload
        nodes[delivery.message.dst].deliver(packet, delivery.arrive_time)

    injector = FaultInjector(faults) if faults is not None else None
    topology = MeshTopology(n_procs, shape)
    network = WormholeNetwork(
        sim,
        topology,
        on_deliver,
        hop_time_s=cost_model.hop_time_s,
        process_time_s=cost_model.process_time_s,
        faults=injector,
    )

    if report is not None:
        # Imported lazily: repro.verify's oracle imports this module.
        from ..verify.invariants import PROBE_INTERVAL, NetworkInvariantMonitor

        net_monitor = NetworkInvariantMonitor(report, network)
        sim.add_probe(net_monitor.probe, PROBE_INTERVAL)

    def send_packet(packet: UpdatePacket, inject_time: float) -> None:
        if injector is not None and injector.is_crashed(packet.src, inject_time):
            # The node's virtual clock can run ahead of simulated time, so
            # a wire's update pushes may carry inject times past the crash
            # instant: fail-stop means those sends never happen.
            injector.count_crash_send_drop()
            return
        message = Message(
            src=packet.src,
            dst=packet.dst,
            length_bytes=packet.length_bytes,
            payload=packet,
        )
        sim.at(inject_time, lambda m=message, t=inject_time: network.send(m, t))

    divergence_sum = np.zeros(n_procs, dtype=np.float64)
    divergence_max = np.zeros(n_procs, dtype=np.float64)
    divergence_n = np.zeros(n_procs, dtype=np.int64)

    def on_commit(proc: int, wire_idx: int, path: RoutePath, time: float) -> None:
        ledger.commit(proc, wire_idx, path, time)
        if track_divergence:
            # Decision-relevant staleness: the error of the node's view
            # over the cells of the route it just chose (both view and
            # truth already include this wire, so the difference is purely
            # un-propagated remote activity where it actually mattered).
            # A whole-array distance would instead be dominated by distant
            # regions the node never routes in — which the neighbour-only
            # SendLocData optimisation deliberately leaves stale.
            flat = path.flat_cells
            d = float(
                np.abs(
                    nodes[proc].view.data.reshape(-1)[flat]
                    - truth.data.reshape(-1)[flat]
                ).sum()
            )
            divergence_sum[proc] += d
            divergence_max[proc] = max(divergence_max[proc], d)
            divergence_n[proc] += 1

    def on_finished(proc: int, time: float) -> None:
        pass  # finish times are read off the nodes afterwards

    # ------------------------------------------------------------------
    # crash recovery: membership, orphaned-wire adoption, audit sweep
    # ------------------------------------------------------------------
    #: the simulator's own view of confirmed deaths (== any declarer's)
    membership = OwnershipMap(regions, seed=faults.seed) if crash_plan else None
    confirmed_dead: set = set()
    recovery_latency: List[List[float]] = []
    #: wire -> node currently responsible for (re)routing it
    responsible = list(assignment.owner) if crash_plan else None

    def on_node_dead(reporter: int, dead: int, t: float) -> None:
        """A declarer confirmed *dead*; re-assign its orphaned wires.

        Idempotent across multiple declarers.  Orphans are the wires the
        dead node was responsible for that are not durably routed: never
        committed, or ripped up mid-flight (no standing path).  Each is
        deterministically assigned via the hash ring; a chosen adopter
        that is itself crashed-but-unconfirmed simply keeps the wires on
        its ledger until its own death re-orphans them.
        """
        if dead in confirmed_dead:
            return
        confirmed_dead.add(dead)
        membership.mark_dead(dead)
        crash_at = injector.crash_time(dead)
        if crash_at is not None:
            recovery_latency.append([dead, t - crash_at])
        orphans = [
            w
            for w in range(circuit.n_wires)
            if responsible[w] == dead and ledger.standing(w) is None
        ]
        by_adopter: Dict[int, List[int]] = {}
        for w in orphans:
            adopter = membership.wire_owner(w)
            responsible[w] = adopter
            by_adopter.setdefault(adopter, []).append(w)
        for adopter in sorted(by_adopter):
            nodes[adopter].adopt_wires(by_adopter[adopter], t)

    # Audit sweep: the harness's stand-in for an external failure
    # detector.  Suspicion normally arises from abandoned requests, but a
    # node that crashes while every survivor is idle (or that nobody was
    # talking to) would otherwise go undetected and its orphans would
    # never be adopted.  Started at the first crash, the sweep has the
    # lowest live processor probe every unconfirmed planned crash, and
    # reschedules only while crashes remain unconfirmed and wires remain
    # unrouted — so the event queue always drains.
    audit_active = [False]
    audit_interval = (
        faults.recovery.watchdog_timeout_s * 4.0 if crash_plan else 0.0
    )

    def audit(t: float) -> None:
        unconfirmed = [
            c.proc
            for c in crash_plan
            if c.proc not in confirmed_dead and c.at_s <= t
        ]
        # Durably routed means committed *and* not ripped up mid-flight:
        # a crashed node may have removed a wire from the truth array
        # right before dying, leaving a stale final_paths entry that only
        # adoption can repair — keep auditing until it has been.
        if not unconfirmed or ledger.complete:
            audit_active[0] = False
            return
        live = [
            n.proc for n in nodes if not n.crashed and membership.is_live(n.proc)
        ]
        if live:
            reporter = min(live)
            for dead in unconfirmed:
                nodes[reporter].probe_peer(dead, t)
        nxt = t + audit_interval
        sim.at(nxt, lambda tt=nxt: audit(tt))

    def do_crash(c) -> None:
        nodes[c.proc].crash(c.at_s)
        if not audit_active[0]:
            audit_active[0] = True
            nxt = c.at_s + audit_interval
            sim.at(nxt, lambda tt=nxt: audit(tt))

    for c in crash_plan:
        sim.at(c.at_s, lambda cc=c: do_crash(cc))

    services = NodeServices(
        send_packet=send_packet,
        schedule=sim.at,
        on_ripup=lambda proc, wire_idx, path, time: ledger.ripup(wire_idx, time),
        on_commit=on_commit,
        on_finished=on_finished,
        cancel=sim.cancel,
        on_node_dead=on_node_dead if crash_plan else (lambda r, d, t: None),
    )

    for proc in range(n_procs):
        node = MPNode(
            proc=proc,
            circuit=circuit,
            regions=regions,
            schedule=schedule,
            wires=per_proc[proc],
            iterations=iterations,
            cost_model=cost_model,
            services=services,
            recovery=faults.recovery if faults is not None else None,
            ownership=OwnershipMap(regions, seed=faults.seed) if crash_plan else None,
            fault_seed=faults.seed if faults is not None else 0,
            task_loop=task_loop,
        )
        nodes.append(node)
    for node in nodes:
        node.start()

    sim.run()

    unfinished = [n.proc for n in nodes if not n.is_done and not n.crashed]
    if unfinished:
        raise SimulationError(
            f"simulation drained with unfinished nodes {unfinished} "
            "(protocol deadlock — outstanding responses never arrived)"
        )
    exec_time = max(
        (n.finish_time_s for n in nodes if not math.isnan(n.finish_time_s)),
        default=0.0,
    )
    quality = ledger.close(exec_time)
    if report is not None:
        from ..verify.invariants import check_replica_convergence

        net_monitor.at_end(sim.now)
        if injector is not None and (injector.stats.lossy or crash_plan):
            # Dropped / duplicated packets lose or double-count deltas —
            # and a crashed node takes its unsent deltas down with it —
            # so exact replica reconstruction is impossible by
            # construction.  Waive the check *visibly* — the report
            # records the waiver — rather than letting it fail or
            # silently skipping it.
            report.count("replica-convergence-waived", len(nodes))
        else:
            check_replica_convergence(report, nodes, truth, sim.now)
        if crash_plan:
            from ..verify.invariants import check_ownership_totality

            check_ownership_totality(
                report, nodes, regions, confirmed_dead, sim.now
            )
    summaries = [
        NodeSummary(
            proc=n.proc,
            wires_routed=n.qi,
            finish_time_s=n.finish_time_s,
            route_units=n.work.route_units,
            commit_units=n.work.commit_units,
            assemble_units=n.work.assemble_units,
            incorporate_units=n.work.incorporate_units,
            messages_sent=n.messages_sent,
            messages_received=n.messages_received,
            blocked_time_s=n.blocked_time_s,
        )
        for n in nodes
    ]
    meta = {
        "schedule": schedule.describe(),
        "assignment": method,
        "n_procs": n_procs,
        "iterations": iterations,
        "circuit": circuit.name,
    }
    if task_loop is not None:
        # Every wire a non-master node routed cost it one request, plus the
        # final one answered "none left"; the master asks itself instantly.
        idle = [n for n in nodes if n.proc != TASK_MASTER]
        waits = [n.blocked_time_s / (n.qi + 1) for n in idle]
        meta["mean_task_wait_s"] = float(np.mean(waits)) if waits else 0.0
    if track_divergence and divergence_n.sum() > 0:
        per_proc = np.divide(
            divergence_sum,
            divergence_n,
            out=np.zeros_like(divergence_sum),
            where=divergence_n > 0,
        )
        meta["divergence"] = {
            "mean_l1": float(divergence_sum.sum() / divergence_n.sum()),
            "max_l1": float(divergence_max.max()),
            "per_proc_mean_l1": per_proc.tolist(),
        }
    if injector is not None:
        recovery_counters = {
            "watchdog_fires": sum(n.watchdog_fires for n in nodes),
            "retries_sent": sum(n.retries_sent for n in nodes),
            "requests_abandoned": sum(n.requests_abandoned for n in nodes),
            "duplicate_responses_ignored": sum(
                n.duplicate_responses_ignored for n in nodes
            ),
            "probes_sent": sum(n.probes_sent for n in nodes),
            "deaths_confirmed": sum(n.deaths_confirmed for n in nodes),
            "death_notices_received": sum(
                n.death_notices_received for n in nodes
            ),
            "misdirected_requests": sum(n.misdirected_requests for n in nodes),
        }
        meta["faults"] = {
            "plan": faults.describe(),
            "seed": faults.seed,
            "injected": injector.stats.as_dict(),
            "recovery": recovery_counters,
        }
        if crash_plan:
            meta["faults"]["crash"] = {
                "planned": [[int(c.proc), float(c.at_s)] for c in crash_plan],
                "confirmed": sorted(int(p) for p in confirmed_dead),
                "recovery_latency_s": [
                    [int(d), float(lat)] for d, lat in recovery_latency
                ],
                "regions_reassigned": sum(n.regions_adopted for n in nodes),
                "wires_adopted": sum(n.wires_adopted for n in nodes),
            }
    meta.update(ledger.verification_meta())
    obs.record_span(
        "sim.mp", time.perf_counter() - wall0, time.process_time() - cpu0
    )
    obs.incr("sim.mp.runs")
    obs.incr("sim.mp.messages_sent", network.stats.n_messages)
    obs.incr("sim.mp.bytes_sent", network.stats.total_bytes)
    if injector is not None:
        obs.incr("sim.mp.faults.send_attempts", injector.stats.send_attempts)
        obs.incr("sim.mp.faults.dropped", injector.stats.dropped)
        obs.incr("sim.mp.faults.duplicated", injector.stats.duplicated)
        obs.incr("sim.mp.faults.retries_sent", meta["faults"]["recovery"]["retries_sent"])
        obs.incr(
            "sim.mp.faults.requests_abandoned",
            meta["faults"]["recovery"]["requests_abandoned"],
        )
    # Nodes and the service closures reference each other: let go of the
    # nodes so their views, deltas and inboxes are freed on return, not
    # whenever the cycle collector next runs a full collection.
    nodes.clear()
    return ParallelRunResult(
        paradigm="message_passing",
        quality=quality,
        exec_time_s=exec_time,
        paths=final_paths,
        wire_router=ledger.wire_router,
        node_summaries=summaries,
        truth=truth,
        network=network.stats,
        meta=meta,
    )


def run_dynamic_assignment(
    circuit: Circuit,
    schedule: Optional[UpdateSchedule] = None,
    n_procs: int = 16,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ParallelRunResult:
    """One routing iteration under the §4.2 dynamic distribution (ablation A3)."""
    loop = DistributedLoop(range(circuit.n_wires))
    return run_message_passing(
        circuit, schedule or UpdateSchedule(), n_procs, 1, loop, cost_model
    )
