"""Per-processor state machine of the message passing LocusRoute.

Each :class:`MPNode` owns one region of the cost array but keeps "a view of
the whole cost array" (§4.1) plus a delta array recording its changes.  A
node's life is a loop over its statically assigned wires (repeated for
every routing iteration):

1. **Drain** the inbox — messages are only examined *between* wires
   ("processors only check for newly received messages between routing
   wires", §4.2); each packet costs disassembly time.
2. **Look ahead** — under receiver-initiated schedules, issue ReqRmtData
   requests for wires ``lookahead_wires`` ahead of the current one
   ("requesting updates in advance helps ensure that the update will
   arrive before routing for that wire actually begins", §4.3.3).
3. **Block** — in blocking mode, idle until every outstanding ReqRmtData
   response has arrived.
4. **Route** — rip up the wire's previous path (later iterations),
   evaluate the two-bend candidates against the local view, commit.
5. **Push updates** — per the sender-initiated schedule, scan the delta
   array and emit SendLocData (own region, absolute, to N/S/E/W
   neighbours) and SendRmtData (remote regions, deltas, to their owners).

Nodes remain responsive after finishing their own wires: an owner must
keep answering ReqRmtData/ReqLocData for peers that are still routing.

**Dynamic distribution** (§4.2, discussed and rejected by the paper) is a
second *wire source* of the same node: given a ``task_loop`` the queue
starts empty and a node out of wires sends the wire assignment processor
:data:`TASK_MASTER` (which routes too, drawing its own wires from the loop
without network traffic) a header-only TaskRequest, idling as blocked time
until the TaskGrant queues one more wire or says none are left.  The
master answers like any request packet: between wires, or at arrival
under interrupt-driven reception.

Timing: the node carries its own local clock, advanced by the
:class:`~repro.parallel.timing.CostModel` for every operation; the event
kernel fires the node's activations at those local times, so virtual time
and the network's contention model stay consistent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..assign.distributed_loop import DistributedLoop
from ..circuits.model import Circuit
from ..errors import ProtocolError
from ..faults.plan import RecoveryPolicy
from ..grid.bbox import BBox
from ..grid.cost_array import CostArray
from ..grid.delta import DeltaArray
from ..grid.ownership import OwnershipMap
from ..grid.regions import RegionMap
from ..kernels import active_kernels
from ..route.path import RoutePath
from ..route.twobend import route_wire
from ..route.workmodel import (
    COMMIT_CELL_UNITS,
    INCORPORATE_CELL_UNITS,
    SCAN_CELL_UNITS,
    WorkCounter,
)
from ..updates.packets import (
    HEADER_BYTES,
    UpdatePacket,
    build_control,
    build_loc_data,
    build_request,
    build_response,
    build_rmt_data,
)
from ..updates.schedule import UpdateSchedule
from ..updates.structures import PacketStructure, wire_based_bytes
from ..updates.types import UpdateKind, is_request
from .timing import CostModel
from .wire_regions import wire_region_table

__all__ = ["MPNode", "NodeServices", "NodePhase", "TASK_MASTER"]

#: The §4.2 wire assignment processor (it also routes, as in the paper).
TASK_MASTER = 0


class NodePhase:
    """Node lifecycle states."""

    READY = "ready"  #: activation scheduled or running
    BUSY = "busy"  #: routing a wire; commit event pending
    WAITING = "waiting"  #: blocked on outstanding responses or a task grant
    DONE = "done"  #: all assigned wires routed (still answers requests)


class NodeServices:
    """The simulator-side callbacks a node needs.

    Parameters
    ----------
    send_packet:
        ``send_packet(packet, inject_time)`` — hand a packet to the
        network at the given virtual time.
    schedule:
        ``schedule(time, action)`` — schedule an event on the kernel and
        return a cancellable handle.
    cancel:
        ``cancel(handle)`` — cancel a previously scheduled event (used by
        interrupt-driven reception to push a wire's completion back).
    on_ripup:
        ``on_ripup(proc, wire_idx, path, time)`` — ground-truth rip-up.
    on_commit:
        ``on_commit(proc, wire_idx, path, time)`` — ground-truth commit
        (the simulator prices the path for the occupancy factor here).
    on_finished:
        ``on_finished(proc, time)`` — the node routed its last wire.
    on_node_dead:
        ``on_node_dead(reporter, dead, time)`` — *reporter* confirmed
        *dead* as crashed (probe retries exhausted).  The simulator uses
        this to re-assign the dead node's orphaned wires; defaults to a
        no-op so crash-unaware runs need no wiring.
    """

    def __init__(
        self,
        send_packet: Callable[[UpdatePacket, float], None],
        schedule: Callable[[float, Callable[[], None]], object],
        on_ripup: Callable[[int, int, RoutePath, float], None],
        on_commit: Callable[[int, int, RoutePath, float], None],
        on_finished: Callable[[int, float], None],
        cancel: Callable[[object], None] = lambda handle: None,
        on_node_dead: Callable[[int, int, float], None] = lambda reporter, dead, time: None,
    ) -> None:
        self.send_packet = send_packet
        self.schedule = schedule
        self.on_ripup = on_ripup
        self.on_commit = on_commit
        self.on_finished = on_finished
        self.cancel = cancel
        self.on_node_dead = on_node_dead


class MPNode:
    """One processor of the message passing implementation."""

    def __init__(
        self,
        proc: int,
        circuit: Circuit,
        regions: RegionMap,
        schedule: UpdateSchedule,
        wires: Sequence[int],
        iterations: int,
        cost_model: CostModel,
        services: NodeServices,
        recovery: Optional[RecoveryPolicy] = None,
        ownership: Optional[OwnershipMap] = None,
        fault_seed: int = 0,
        task_loop: Optional[DistributedLoop] = None,
    ) -> None:
        self.proc = proc
        self.circuit = circuit
        self.regions = regions
        self.schedule = schedule
        self.cost_model = cost_model
        self.services = services

        self.view = CostArray(circuit.n_channels, circuit.n_grids)
        self.delta = DeltaArray(circuit.n_channels, circuit.n_grids)
        self.own_region: BBox = regions.region(proc)
        #: per-wire segment counts and region overlaps, shared by the run
        self._wire_regions = wire_region_table(circuit, regions)

        #: assigned wires, repeated once per iteration in the same order
        self.queue: List[int] = [w for _ in range(iterations) for w in wires]
        self._wires_per_iteration = max(
            1, len(wires) if task_loop is None else circuit.n_wires
        )
        self.qi = 0
        #: dynamic wire source: every node of the run holds the loop, only
        #: TASK_MASTER draws from it; grants append to ``queue`` one wire at
        #: a time until the master reports the loop empty.
        self._task_loop = task_loop
        self._tasks_open = task_loop is not None
        self._awaiting_grant = False
        self._lookahead_pos = 0

        self.clock = 0.0
        self.phase = NodePhase.READY
        self.work = WorkCounter()
        self.paths: Dict[int, RoutePath] = {}

        self._inbox: List[Tuple[float, int, UpdatePacket]] = []
        self._inbox_seq = itertools.count()
        self._activation_pending = False
        self._pending_wire: Optional[Tuple[int, object]] = None
        self._commit_event: Optional[object] = None
        self._interrupt_busy_until = 0.0
        self.interrupts_serviced = 0

        # receiver-initiated bookkeeping
        self._region_touch_count: Dict[int, int] = {}
        self._region_req_bbox: Dict[int, BBox] = {}
        self.outstanding_responses = 0
        self._reqs_received_from: Dict[int, int] = {}

        # recovery bookkeeping: every ReqRmtData carries a fresh req_id
        # and is tracked until its response arrives, making receipt
        # idempotent (a duplicated or post-abandonment response matches
        # no pending entry and is ignored instead of corrupting the
        # outstanding-response count).  The staleness watchdog — re-issue
        # with exponential backoff, then abandon — is armed only when a
        # ``recovery`` policy is supplied, so fault-free runs schedule no
        # extra events and stay bit-identical to the pre-fault kernel.
        self.recovery = recovery
        self._req_seq = itertools.count()
        #: req_id -> [owner, bbox, retries_so_far, current_timeout_s]
        self._pending_requests: Dict[int, List[object]] = {}
        self._rsp_loc_seen: set = set()
        self.watchdog_fires = 0
        self.retries_sent = 0
        self.requests_abandoned = 0
        self.duplicate_responses_ignored = 0

        # crash-fault bookkeeping: ``ownership`` is this node's private
        # replica of the live region -> owner map (see grid/ownership.py);
        # it is only supplied when the fault plan contains node crashes,
        # so crash-free runs take the legacy code paths bit-for-bit.  The
        # seeded per-node RNG supplies backoff jitter from the fault-plan
        # seed stream, keeping lossy runs reproducible across --jobs.
        self.ownership = ownership
        self.crashed = False
        self.crash_time_s = math.nan
        self._abandons_by_peer: Dict[int, int] = {}
        #: probe req_id -> [peer, retries_so_far, current_timeout_s]
        self._pending_probes: Dict[int, List[object]] = {}
        self.probes_sent = 0
        self.deaths_confirmed = 0
        self.death_notices_received = 0
        self.regions_adopted = 0
        self.wires_adopted = 0
        self.misdirected_requests = 0
        self._rng = (
            np.random.default_rng((fault_seed, proc))
            if recovery is not None and recovery.jitter > 0.0
            else None
        )

        # sender-initiated counters
        self._since_send_loc = 0
        self._since_send_rmt = 0

        # change-count bookkeeping for the wire-based packet encoding
        # (§4.3.1): (changed wires, changed segments) since the last send,
        # tracked separately for the own region (SendLocData) and for each
        # remote region (SendRmtData).  Only that encoding reads them.
        self._wire_based = schedule.packet_structure is PacketStructure.WIRE_BASED
        self._chg_loc = [0, 0]
        self._chg_rmt: Dict[int, List[int]] = {}

        # accounting
        self.messages_sent = 0
        self.messages_received = 0
        self.blocked_time_s = 0.0
        self._block_start: Optional[float] = None
        self.finish_time_s = math.nan
        self._refresh_ownership()

    # ------------------------------------------------------------------
    # simulator interface
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the node's first activation at time 0."""
        self._schedule_activation(0.0)

    def deliver(self, packet: UpdatePacket, arrive_time: float) -> None:
        """Network delivery callback: enqueue and wake the node if idle.

        Under interrupt-driven reception (§4.2), request packets arriving
        while a wire is being routed are serviced immediately instead of
        waiting for the next between-wires poll; the interrupted wire's
        completion is pushed back by the service time.
        """
        if self.crashed:
            return
        self.messages_received += 1
        if (
            self.schedule.interrupt_reception
            and (is_request(packet.kind) or packet.kind is UpdateKind.TASK_REQUEST)
            and self.phase == NodePhase.BUSY
            and self._pending_wire is not None
        ):
            self._service_interrupt(packet, arrive_time)
            return
        heapq.heappush(self._inbox, (arrive_time, next(self._inbox_seq), packet))
        if self.phase in (NodePhase.WAITING, NodePhase.DONE) and not self._activation_pending:
            self._schedule_activation(max(self.clock, arrive_time))

    def _service_interrupt(self, packet: UpdatePacket, arrive_time: float) -> None:
        """Handle a request at arrival time, delaying the current wire."""
        self.interrupts_serviced += 1
        start = max(arrive_time, self._interrupt_busy_until)
        wire_finish = self.clock
        # Run the handler in an "interrupt context" clock so the response
        # is injected near the arrival time, not at the end of the wire.
        self.clock = start + self.cost_model.interrupt_overhead_s
        self._process_packet(packet)
        service_end = self.clock
        self._interrupt_busy_until = service_end
        # The interrupted computation resumes where it left off, finishing
        # later by the time the interrupt handler consumed.
        self.clock = wire_finish + (service_end - start)
        if self._commit_event is not None:
            self.services.cancel(self._commit_event)
            self._commit_event = self.services.schedule(self.clock, self._finish_wire)

    @property
    def is_done(self) -> bool:
        """True once every assigned wire (every iteration) is routed."""
        return self.qi >= len(self.queue) and not self._tasks_open

    def crash(self, t: float) -> None:
        """Fail-stop at time *t*: no more routing, sends, or replies.

        The node's committed paths stay in the ground truth (a crashed
        processor's completed work survives); everything in flight —
        the wire being routed, queued inbox packets, pending requests
        and probes — is discarded.  Survivors detect the death via the
        probe protocol and adopt the orphaned regions and wires.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_time_s = t
        if self._commit_event is not None:
            self.services.cancel(self._commit_event)
            self._commit_event = None
        self._pending_wire = None
        self._inbox.clear()
        self._pending_requests.clear()
        self._pending_probes.clear()

    # ------------------------------------------------------------------
    # live ownership indirection (identity when crash-unaware)
    # ------------------------------------------------------------------
    def _live_owner(self, region_idx: int) -> int:
        if self.ownership is None:
            return region_idx
        return self.ownership.live_owner(region_idx)

    def _refresh_ownership(self) -> None:
        """Derive what the update pushes need from the ownership replica.

        Which regions this node owns, the area a SendRmtData scan covers
        and where each owned region's SendLocData goes change only when a
        death is applied, so they are computed here — at construction and
        from :meth:`_handle_death` — not once per push.
        """
        if self.ownership is None:
            owned = [self.proc]
        else:
            owned = self.ownership.regions_owned_by(self.proc)
        self._owned = frozenset(owned)
        self._rmt_scan_area = self.circuit.n_channels * self.circuit.n_grids - sum(
            self.regions.region(r).area for r in owned
        )
        #: (region index, region, live owners of its N/S/E/W neighbour regions)
        self._loc_pushes: List[Tuple[int, BBox, List[int]]] = []
        for region_idx in owned:
            dsts: List[int] = []
            for neighbor in self.regions.neighbors(region_idx):
                dst = self._live_owner(neighbor)
                if dst != self.proc and dst not in dsts:
                    dsts.append(dst)
            self._loc_pushes.append((region_idx, self.regions.region(region_idx), dsts))

    # ------------------------------------------------------------------
    # activation: drain, look ahead, maybe block, start routing a wire
    # ------------------------------------------------------------------
    def _schedule_activation(self, time: float) -> None:
        self._activation_pending = True
        self.services.schedule(time, lambda t=time: self._activate(t))

    def _activate(self, event_time: float) -> None:
        self._activation_pending = False
        if self.crashed:
            return
        # An activation scheduled by a delivery may be later than the local
        # clock; the gap is idle time the node simply waits through.
        self.clock = max(self.clock, event_time)
        self.phase = NodePhase.READY
        self._drain_inbox()

        if self.is_done:
            self.phase = NodePhase.DONE
            return

        self._issue_lookahead_requests()

        if self.schedule.blocking and self.outstanding_responses > 0:
            self._wait()
            return
        if self.qi >= len(self.queue) and not self._next_task():
            return
        self._resume()
        self._start_wire()

    def _wait(self) -> None:
        """Idle until a delivery (responses, a task grant) re-activates us;
        the time spent here counts as blocked time once we resume."""
        self.phase = NodePhase.WAITING
        if self._block_start is None:
            self._block_start = self.clock

    def _resume(self) -> None:
        if self._block_start is not None:
            self.blocked_time_s += max(0.0, self.clock - self._block_start)
            self._block_start = None

    def _drain_inbox(self) -> None:
        """Process every packet that has arrived by the local clock.

        Disassembly advances the clock, which may make further queued
        packets eligible; the loop runs until the head of the inbox is in
        the local future.
        """
        while self._inbox and self._inbox[0][0] <= self.clock:
            _, _, packet = heapq.heappop(self._inbox)
            self._process_packet(packet)

    def _start_wire(self) -> None:
        wire_idx = self.queue[self.qi]
        wire = self.circuit.wire(wire_idx)

        # Rip up the previous iteration's path before rerouting (§3).
        old = self.paths.get(wire_idx)
        if old is not None:
            # The local view may disagree with reality after absolute
            # overwrites (SendLocData replaces the receiver's view, §4.3.2),
            # so rip-ups on the view are non-strict; the ground truth rip-up
            # in the simulator stays strict.
            self.view.remove_path(old.flat_cells, strict=False)
            self.delta.record_path(old.flat_cells, -1)
            if self._wire_based:
                self._record_change_counts(wire_idx)
            self.work.add_commit(old.n_cells)
            self.clock += self.cost_model.work_time(COMMIT_CELL_UNITS * old.n_cells)
            self.services.on_ripup(self.proc, wire_idx, old, self.clock)

        iteration = self.qi // self._wires_per_iteration
        result = route_wire(self.view, wire, tie_break=iteration % 2)
        self.work.add_route(result.work_cells)
        commit_units = COMMIT_CELL_UNITS * result.path.n_cells
        self.work.add_commit(result.path.n_cells)
        self.clock += self.cost_model.work_time(result.work_cells + commit_units)

        self.phase = NodePhase.BUSY
        self._pending_wire = (wire_idx, result)
        self._commit_event = self.services.schedule(self.clock, self._finish_wire)

    def _record_change_counts(self, wire_idx: int) -> None:
        """Track per-region change counts for the wire-based encoding."""
        n_segments = self._wire_regions.n_segments[wire_idx]
        for owner, _ in self._wire_regions.clips[wire_idx]:
            if owner == self.proc:
                self._chg_loc[0] += 1
                self._chg_loc[1] += n_segments
            else:
                entry = self._chg_rmt.setdefault(owner, [0, 0])
                entry[0] += 1
                entry[1] += n_segments

    def _finish_wire(self) -> None:
        if self.crashed:
            return
        assert self._pending_wire is not None
        wire_idx, result = self._pending_wire
        self._pending_wire = None
        self._commit_event = None

        path = result.path
        self.view.apply_path(path.flat_cells)
        self.delta.record_path(path.flat_cells, +1)
        if self._wire_based:
            self._record_change_counts(wire_idx)
        self.paths[wire_idx] = path
        self.services.on_commit(self.proc, wire_idx, path, self.clock)

        self.qi += 1
        self._since_send_loc += 1
        self._since_send_rmt += 1
        self._push_scheduled_updates()

        if self.is_done:
            self._finish()
            # One final drain keeps the inbox from sitting on requests that
            # arrived while we routed our last wire.
            self._drain_inbox()
            return
        self._schedule_activation(self.clock)

    def _finish(self) -> None:
        self.finish_time_s = self.clock
        self.phase = NodePhase.DONE
        self.services.on_finished(self.proc, self.clock)

    # ------------------------------------------------------------------
    # dynamic wire source (§4.2)
    # ------------------------------------------------------------------
    def _next_task(self) -> bool:
        """Out of queued wires under a dynamic source: get the next one.

        The master asks itself without network traffic; every other node
        sends one TaskRequest and idles until the grant arrives.  Returns
        True when a wire is queued and ready to route.
        """
        if self.proc == TASK_MASTER:
            return self._take_grant(self._grant())
        if not self._awaiting_grant:
            self._awaiting_grant = True
            request = build_control(
                UpdateKind.TASK_REQUEST, self.proc, TASK_MASTER, self.proc
            )
            self._emit(request, payload_cells=0)
        self._wait()
        return False

    def _grant(self) -> int:
        """Master side: the loop's next wire, or -1 once it is empty."""
        wire = self._task_loop.next_wire()
        return -1 if wire is None else wire

    def _take_grant(self, wire: int) -> bool:
        """Queue a granted wire; ``-1`` closes the source and finishes us."""
        if wire < 0:
            self._tasks_open = False
            self._finish()
            return False
        self.queue.append(wire)
        return True

    # ------------------------------------------------------------------
    # receiver-initiated machinery
    # ------------------------------------------------------------------
    def _issue_lookahead_requests(self) -> None:
        if self.schedule.req_rmt_every is None:
            return
        horizon = min(len(self.queue), self.qi + 1 + self.schedule.lookahead_wires)
        clips = self._wire_regions.clips
        touch_count = self._region_touch_count
        while self._lookahead_pos < horizon:
            for owner, clipped in clips[self.queue[self._lookahead_pos]]:
                if owner in self._owned:
                    continue
                count = touch_count[owner] = touch_count.get(owner, 0) + 1
                # The request covers the footprint of the wire that tripped
                # the counter — the area the processor is about to route in.
                # (Accumulating a union over all counted wires inflates
                # responses toward whole-region copies and erases the
                # receiver-initiated traffic advantage the paper measures.)
                self._region_req_bbox[owner] = clipped
                if count >= self.schedule.req_rmt_every:
                    self._send_req_rmt(owner)
            self._lookahead_pos += 1

    def _send_req_rmt(self, owner: int) -> None:
        """Request absolute data for region *owner* from its live owner.

        ``owner`` is a *region index* (the region's original processor);
        the packet's destination is resolved through the ownership map so
        requests for an adopted region reach the adopter.  The pending
        entry stores the region index, and every watchdog retry
        re-resolves the destination — a request in flight across a death
        is retried against the region's new owner.
        """
        bbox = self._region_req_bbox.pop(owner)
        self._region_touch_count[owner] = 0
        rid = next(self._req_seq)
        packet = build_request(
            UpdateKind.REQ_RMT_DATA, self.proc, self._live_owner(owner), bbox,
            region_owner=owner, req_id=rid,
        )
        self.outstanding_responses += 1
        self._emit(packet, payload_cells=0)
        if self.recovery is not None:
            timeout = self.recovery.watchdog_timeout_s
            self._pending_requests[rid] = [owner, bbox, 0, timeout]
            deadline = self.clock + timeout
            self.services.schedule(
                deadline, lambda r=rid, t=deadline: self._watchdog_fire(r, t)
            )
        else:
            self._pending_requests[rid] = [owner, bbox, 0, 0.0]

    def _watchdog_fire(self, rid: int, fire_time: float) -> None:
        """Staleness watchdog: retry an overdue ReqRmtData, or abandon it.

        Retransmission is a network-interface action: it re-injects the
        tracked request at the watchdog's fire time without advancing the
        node's local clock (the node may be mid-wire; the retry must not
        cost routing time).  After ``max_retries`` re-sends the request
        is abandoned — the node accepts its stale view of that region and
        releases the outstanding-response slot, which is what un-wedges
        blocking-mode nodes on a lossy network.
        """
        if self.crashed:
            return
        entry = self._pending_requests.get(rid)
        if entry is None:
            return  # response arrived (or request already abandoned)
        assert self.recovery is not None
        self.watchdog_fires += 1
        region_idx, bbox, retries, timeout = entry
        dst = self._live_owner(region_idx)
        if dst == self.proc:
            # We adopted the region while the request was pending; our
            # own view is now authoritative, so the slot is satisfied.
            del self._pending_requests[rid]
            self.outstanding_responses -= 1
            if (
                self.phase == NodePhase.WAITING
                and self.outstanding_responses <= 0
                and not self._activation_pending
            ):
                self._schedule_activation(max(self.clock, fire_time))
            return
        if retries < self.recovery.max_retries:
            entry[2] = retries + 1
            new_timeout = self._next_timeout(timeout)
            entry[3] = new_timeout
            packet = build_request(
                UpdateKind.REQ_RMT_DATA, self.proc, dst, bbox,
                region_owner=region_idx, req_id=rid,
            )
            self.retries_sent += 1
            self.messages_sent += 1
            self.services.send_packet(packet, fire_time)
            deadline = fire_time + new_timeout
            self.services.schedule(
                deadline, lambda r=rid, t=deadline: self._watchdog_fire(r, t)
            )
            return
        # Out of retries: degrade gracefully to the stale view.
        del self._pending_requests[rid]
        self.requests_abandoned += 1
        self.outstanding_responses -= 1
        self._note_abandonment(dst, fire_time)
        if (
            self.phase == NodePhase.WAITING
            and self.outstanding_responses <= 0
            and not self._activation_pending
        ):
            self._schedule_activation(max(self.clock, fire_time))

    def _next_timeout(self, timeout: float) -> float:
        """Exponential backoff with seeded jitter.

        The jitter draw comes from the node's fault-seed RNG stream, not
        the global RNG, so lossy runs stay bit-reproducible regardless of
        worker-pool parallelism.
        """
        grown = timeout * self.recovery.backoff_factor
        if self._rng is not None:
            grown *= 1.0 + self.recovery.jitter * float(self._rng.random())
        return grown

    # ------------------------------------------------------------------
    # failure detection: suspicion -> probe -> death declaration
    # ------------------------------------------------------------------
    def _note_abandonment(self, peer: int, t: float) -> None:
        """Escalate repeated abandonments against *peer* to suspicion."""
        if self.ownership is None or self.recovery is None:
            return
        if peer == self.proc or not self.ownership.is_live(peer):
            return
        count = self._abandons_by_peer.get(peer, 0) + 1
        self._abandons_by_peer[peer] = count
        if count >= self.recovery.suspect_after:
            self._send_probe(peer, t)

    def probe_peer(self, peer: int, t: float) -> None:
        """Externally triggered liveness probe (simulator audit sweep)."""
        self._send_probe(peer, t)

    def _send_probe(self, peer: int, t: float) -> None:
        """Send a HEARTBEAT to a suspected peer and arm its timeout.

        Probing is a network-interface action: it advances no local
        clock (the node may be mid-wire).  The probe budget is longer
        than the data watchdog (``probe_timeout_factor x``) so a busy —
        not dead — peer has time to reach its next between-wires poll
        and answer before being declared dead.
        """
        if self.crashed or self.recovery is None or peer == self.proc:
            return
        if self.ownership is not None and not self.ownership.is_live(peer):
            return
        if any(entry[0] == peer for entry in self._pending_probes.values()):
            return  # probe already in flight
        rid = next(self._req_seq)
        timeout = self.recovery.watchdog_timeout_s * self.recovery.probe_timeout_factor
        self._pending_probes[rid] = [peer, 0, timeout]
        packet = build_control(UpdateKind.HEARTBEAT, self.proc, peer, self.proc, req_id=rid)
        self.probes_sent += 1
        self.messages_sent += 1
        self.services.send_packet(packet, t)
        deadline = t + timeout
        self.services.schedule(
            deadline, lambda r=rid, ft=deadline: self._probe_fire(r, ft)
        )

    def _probe_fire(self, rid: int, fire_time: float) -> None:
        """Probe timeout: retry the HEARTBEAT, or declare the peer dead."""
        if self.crashed:
            return
        entry = self._pending_probes.get(rid)
        if entry is None:
            return  # ack arrived, or the peer's death dropped the probe
        peer, retries, timeout = entry
        if retries < self.recovery.max_retries:
            entry[1] = retries + 1
            new_timeout = self._next_timeout(timeout)
            entry[2] = new_timeout
            packet = build_control(
                UpdateKind.HEARTBEAT, self.proc, peer, self.proc, req_id=rid
            )
            self.probes_sent += 1
            self.messages_sent += 1
            self.services.send_packet(packet, fire_time)
            deadline = fire_time + new_timeout
            self.services.schedule(
                deadline, lambda r=rid, ft=deadline: self._probe_fire(r, ft)
            )
            return
        del self._pending_probes[rid]
        self._declare_dead(peer, fire_time)

    def _declare_dead(self, peer: int, t: float) -> None:
        """Probe retries exhausted: gossip the death and process it locally.

        The notice also goes to *peer* itself: if the declaration is a
        false positive (a live peer swamped past every probe retry), the
        victim learns it has been voted out, stops claiming its regions,
        and keeps routing — every node still converges on the same
        ownership map.
        """
        if self.ownership is None or not self.ownership.is_live(peer):
            return
        self.deaths_confirmed += 1
        for member in self.ownership.live_members():
            if member == self.proc:
                continue
            notice = build_control(UpdateKind.DEATH_NOTICE, self.proc, member, peer)
            self.messages_sent += 1
            self.services.send_packet(notice, t)
        self._handle_death(peer, t)
        self.services.on_node_dead(self.proc, peer, t)

    def _handle_death(self, dead: int, t: float) -> None:
        """Apply a confirmed death to the local ownership replica.

        Idempotent (notices may arrive from several declarers).  Regions
        the hash ring re-assigns to *this* node are adopted immediately.
        """
        if self.ownership is None or not self.ownership.is_live(dead):
            return
        reassigned = self.ownership.mark_dead(dead)
        self._refresh_ownership()
        for rid in [r for r, e in self._pending_probes.items() if e[0] == dead]:
            del self._pending_probes[rid]
        self._abandons_by_peer.pop(dead, None)
        for region_idx in sorted(reassigned):
            if reassigned[region_idx] == self.proc:
                self._adopt_region(region_idx, t)

    def _adopt_region(self, region_idx: int, t: float) -> None:
        """Become the owner of an orphaned region.

        The adopter's view already tracks the region (every node holds a
        whole-array replica, §4.1); what it may lack is *other* nodes'
        unsent deltas there.  The re-announce round pulls them: one
        ReqLocData per survivor covering the adopted region, each with a
        fresh req_id so the responses are individually deduplicated.
        """
        self.regions_adopted += 1
        region = self.regions.region(region_idx)
        for member in self.ownership.live_members():
            if member == self.proc:
                continue
            req = build_request(
                UpdateKind.REQ_LOC_DATA,
                self.proc,
                member,
                region,
                region_owner=self.proc,
                req_id=next(self._req_seq),
            )
            self.messages_sent += 1
            self.services.send_packet(req, t)

    def adopt_wires(self, wires: Sequence[int], t: float) -> None:
        """Append a dead peer's orphaned wires to this node's queue."""
        if self.crashed or not wires:
            return
        was_done = self.is_done
        self.queue.extend(int(w) for w in wires)
        self.wires_adopted += len(wires)
        if was_done:
            self.finish_time_s = math.nan
            if not self._activation_pending:
                self._schedule_activation(max(self.clock, t))

    # ------------------------------------------------------------------
    # sender-initiated machinery
    # ------------------------------------------------------------------
    def _push_scheduled_updates(self) -> None:
        k1 = self.schedule.send_loc_every
        if k1 is not None and self._since_send_loc >= k1:
            self._since_send_loc = 0
            self._send_loc_data()
        k2 = self.schedule.send_rmt_every
        if k2 is not None and self._since_send_rmt >= k2:
            self._since_send_rmt = 0
            self._send_rmt_data()

    def _wire_based_bytes(self, counts: Sequence[int]) -> Optional[int]:
        """Wire-size override of the wire-based §4.3.1 encoding.

        ``None`` for the other two structures: bounding-box sizes follow
        the bbox, and FULL_REGION widens the bbox instead.
        """
        if not self._wire_based:
            return None
        return HEADER_BYTES + wire_based_bytes(counts[0], counts[1])

    def _send_loc_data(self) -> None:
        """Push every owned region (absolute) to its mesh neighbours.

        Crash-unaware nodes own exactly their Figure-2 region and this
        reduces to the original single-region push.  A crash-aware node
        pushes each region it currently owns (original plus adopted); the
        N/S/E/W neighbour set is the *region's* mesh neighbourhood, with
        each neighbour region resolved to its live owner.
        """
        full_region = self.schedule.packet_structure is PacketStructure.FULL_REGION
        for region_idx, region, dsts in self._loc_pushes:
            self.work.add_scan(region.area)
            self.clock += self.cost_model.work_time(SCAN_CELL_UNITS * region.area)
            template = build_loc_data(
                self.proc, self.proc, self.view, self.delta, region
            )
            if template is None:
                continue
            bbox, values = template.bbox, template.values
            if full_region:
                bbox = region
                values = self.view.extract(region)
            override = (
                self._wire_based_bytes(self._chg_loc)
                if region_idx == self.proc
                else None
            )
            for dst in dsts:
                packet = UpdatePacket(
                    template.kind, self.proc, dst, bbox, values, region_idx, override
                )
                self._emit(packet, packet.payload_cells)
            self.delta.clear_region(region)
            if region_idx == self.proc:
                self._chg_loc = [0, 0]

    def _send_rmt_data(self) -> None:
        """Push accumulated deltas of every remote region to its owner.

        Under the vectorised kernels the per-region delta scans collapse
        into one :meth:`DeltaArray.dirty_bboxes_by_owner` pass and only
        the dirty regions are visited; packets, ordering (ascending
        region), and accounted scan work are identical either way (the
        simulated scan cost models the original program's full sweep).
        """
        scan_area = self._rmt_scan_area
        self.work.add_scan(scan_area)
        self.clock += self.cost_model.work_time(SCAN_CELL_UNITS * scan_area)
        if active_kernels() == "vectorized":
            dirty_regions = self.delta.dirty_bboxes_by_owner(self.regions).items()
        else:
            dirty_regions = self._scan_remote_regions()
        full_region = self.schedule.packet_structure is PacketStructure.FULL_REGION
        for owner, dirty in dirty_regions:
            if owner in self._owned:
                continue
            # Everything about the packet is decided before it is built:
            # the bbox (the whole region under FULL_REGION), the accounted
            # size (the wire-based override), and the destination — the
            # adopter when the region's original owner is dead (the region
            # identity stays in ``region_owner`` so it can attribute it).
            bbox = self.regions.region(owner) if full_region else dirty
            packet = UpdatePacket(
                UpdateKind.SEND_RMT_DATA,
                self.proc,
                self._live_owner(owner),
                bbox,
                self.delta.extract(bbox),
                owner,
                self._wire_based_bytes(self._chg_rmt.get(owner, (0, 0))),
            )
            self._emit(packet, packet.payload_cells)
            self.delta.clear_region(dirty)
            if self._wire_based:
                self._chg_rmt[owner] = [0, 0]

    def _scan_remote_regions(self) -> Iterator[Tuple[int, BBox]]:
        """The reference scan: one :func:`build_rmt_data` per remote region.

        Yields ``(region, dirty bbox)`` in ascending region order, as the
        one-pass scan does.
        """
        for owner in range(self.regions.n_procs):
            if owner in self._owned:
                continue
            scanned = build_rmt_data(
                self.proc, owner, self.delta, self.regions.region(owner)
            )
            if scanned is not None:
                yield owner, scanned.bbox

    # ------------------------------------------------------------------
    # packet processing
    # ------------------------------------------------------------------
    def _process_packet(self, packet: UpdatePacket) -> None:
        cells = packet.payload_cells
        self.work.add_incorporate(cells)
        self.clock += (
            self.cost_model.packet_fixed_s
            + self.cost_model.work_time(INCORPORATE_CELL_UNITS * cells)
        )
        kind = packet.kind
        if kind is UpdateKind.SEND_LOC_DATA:
            self._apply_absolute(packet)
        elif kind is UpdateKind.SEND_RMT_DATA:
            # A remote's deltas inside our own region: fold them into the
            # view *and* into our delta array, so the next SendLocData push
            # propagates the remote's contribution to our neighbours.
            self.view.accumulate(packet.bbox, packet.values)
            self.delta.accumulate(packet.bbox, packet.values)
            # For the wire-based encoding, an incorporated remote update
            # counts as roughly one changed wire (two segments) that the
            # next SendLocData must describe.
            self._chg_loc[0] += 1
            self._chg_loc[1] += 2
        elif kind is UpdateKind.REQ_RMT_DATA:
            self._answer_req_rmt(packet)
        elif kind is UpdateKind.REQ_LOC_DATA:
            self._answer_req_loc(packet)
        elif kind is UpdateKind.RSP_RMT_DATA:
            rid = packet.req_id
            if rid is not None and rid not in self._pending_requests:
                # Duplicated (or post-abandonment) response: the matching
                # request was already satisfied or given up on.  Receipt
                # is idempotent — pay the disassembly cost, apply nothing.
                self.duplicate_responses_ignored += 1
                return
            if rid is not None:
                del self._pending_requests[rid]
            self._apply_absolute(packet)
            self.outstanding_responses -= 1
            if self.outstanding_responses < 0:
                raise ProtocolError("response arrived without a matching request")
        elif kind is UpdateKind.RSP_LOC_DATA:
            rid = packet.req_id
            if rid is not None:
                if rid in self._rsp_loc_seen:
                    # Duplicated delta response: accumulating it twice
                    # would double-count the sender's changes.
                    self.duplicate_responses_ignored += 1
                    return
                self._rsp_loc_seen.add(rid)
            self.view.accumulate(packet.bbox, packet.values)
            self.delta.accumulate(packet.bbox, packet.values)
        elif kind is UpdateKind.HEARTBEAT:
            ack = build_control(
                UpdateKind.HEARTBEAT_ACK, self.proc, packet.src, self.proc,
                req_id=packet.req_id,
            )
            self._emit(ack, payload_cells=0)
        elif kind is UpdateKind.HEARTBEAT_ACK:
            rid = packet.req_id
            if rid is not None and rid in self._pending_probes:
                peer = self._pending_probes.pop(rid)[0]
                self._abandons_by_peer[peer] = 0
            else:
                self.duplicate_responses_ignored += 1
        elif kind is UpdateKind.DEATH_NOTICE:
            self.death_notices_received += 1
            self._handle_death(packet.region_owner, self.clock)
        elif kind is UpdateKind.TASK_REQUEST:
            grant = build_control(
                UpdateKind.TASK_GRANT, self.proc, packet.src, self._grant()
            )
            self._emit(grant, payload_cells=0)
        elif kind is UpdateKind.TASK_GRANT:
            self._awaiting_grant = False
            self._resume()
            self._take_grant(packet.region_owner)
        else:  # pragma: no cover - exhaustive over UpdateKind
            raise ProtocolError(f"node cannot process packet kind {kind}")

    def _apply_absolute(self, packet: UpdatePacket) -> None:
        """Fold absolute region data (SendLocData / RspRmtData) into the view.

        The receiver replaces its view of the updated area (§4.3.2) and
        then re-applies its *own unsent deltas* there: the sender's
        absolute data cannot include changes the receiver has not shipped
        yet, and a plain replace would erase the receiver's knowledge of
        its own in-flight wires — staleness that grows *with* update
        frequency.  Once those deltas are shipped (and cleared), the
        owner's subsequent absolutes carry them, so nothing double-counts.
        """
        self.view.replace(packet.bbox, packet.values)
        pending = self.delta.extract(packet.bbox)
        if pending.any():
            self.view.accumulate(packet.bbox, pending)

    def _answer_req_rmt(self, request: UpdatePacket) -> None:
        """Serve absolute data from a region we authoritatively own.

        Crash-aware runs resolve the served region through the ownership
        map: a request that raced a death (sent to a node that no longer
        — or never — owned the region in our view) is counted as
        misdirected and dropped; the requester's watchdog re-resolves the
        owner and retries.
        """
        if self.ownership is not None:
            region_idx = request.region_owner
            if region_idx not in self._owned:
                self.misdirected_requests += 1
                return
            serving = self.regions.region(region_idx)
        else:
            region_idx = self.proc
            serving = self.own_region
        clipped = request.bbox.intersect(serving)
        if clipped is None:
            if self.ownership is not None:
                self.misdirected_requests += 1
                return
            raise ProtocolError(
                f"proc {self.proc} received ReqRmtData for a region it does not own"
            )
        response = build_response(
            build_request(
                UpdateKind.REQ_RMT_DATA, request.src, self.proc, clipped, region_idx,
                req_id=request.req_id,
            ),
            self.view.extract(clipped),
        )
        self._emit(response, payload_cells=response.payload_cells)

        # ReqLocData trigger: a remote that keeps asking about our region
        # has been routing in it — pull its deltas (§4.3.3).
        if self.schedule.req_loc_every is not None:
            count = self._reqs_received_from.get(request.src, 0) + 1
            if count >= self.schedule.req_loc_every:
                self._reqs_received_from[request.src] = 0
                req = build_request(
                    UpdateKind.REQ_LOC_DATA,
                    self.proc,
                    request.src,
                    self.own_region,
                    region_owner=self.proc,
                    req_id=next(self._req_seq),
                )
                self._emit(req, payload_cells=0)
            else:
                self._reqs_received_from[request.src] = count

    def _answer_req_loc(self, request: UpdatePacket) -> None:
        """Serve our pending deltas inside the requesting owner's region."""
        dirty = self.delta.region_dirty_bbox(request.bbox)
        if dirty is None:
            return  # nothing to report; owners do not block on ReqLocData
        response = build_response(
            build_request(
                UpdateKind.REQ_LOC_DATA, request.src, self.proc, dirty, request.src,
                req_id=request.req_id,
            ),
            self.delta.extract(dirty),
        )
        self.delta.clear_region(dirty)
        self._emit(response, payload_cells=response.payload_cells)

    # ------------------------------------------------------------------
    def _emit(self, packet: UpdatePacket, payload_cells: int) -> None:
        """Pay assembly costs and hand the packet to the network."""
        self.work.add_marshal(payload_cells)
        self.clock += (
            self.cost_model.packet_fixed_s
            + self.cost_model.work_time(INCORPORATE_CELL_UNITS * payload_cells)
        )
        self.messages_sent += 1
        self.services.send_packet(packet, self.clock)
