"""Dynamic wire assignment over message passing (paper §4.2).

The paper discusses — and rejects, because CBS could not simulate message
interrupts — two *dynamic* wire distribution schemes for the message
passing mapping before settling on static assignment:

1. a **wire assignment processor** that also routes wires and answers
   task-request messages only between wires, so "a processor may have to
   wait for an entire wire to be routed before the wire assignment
   processor even retrieves the task request message from its queue";
2. the same, but with **interrupt-driven** request servicing, which
   "can offer wire distribution with lower latency".

This module implements both (our event kernel *can* model interrupts) so
the latency claim is measurable: :func:`run_dynamic_assignment` returns
the usual run result plus per-node task-wait statistics, and ablation A3
(``benchmarks/bench_experiments.py -k A3``) compares polled servicing,
interrupt servicing, and the paper's static assignment.

Scope: dynamic distribution is simulated for a single routing iteration —
under dynamic assignment a wire may migrate between processors across
iterations, and its old path (needed for rip-up) lives only on the node
that routed it, which is exactly the kind of complication that pushed the
paper to static assignment.  Sender-initiated update schedules are
supported; receiver-initiated lookahead is not (a node cannot look ahead
through wires it has not been granted yet).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..circuits.model import Circuit
from ..errors import ProtocolError, SimulationError
from ..events.sim import Simulator
from ..grid.cost_array import CostArray
from ..grid.delta import DeltaArray
from ..grid.regions import RegionMap, proc_grid_shape
from ..netsim.message import Delivery, Message
from ..netsim.topology import MeshTopology
from ..netsim.wormhole import WormholeNetwork
from ..route.path import RoutePath
from ..route.quality import QualityReport, circuit_height
from ..route.twobend import route_wire
from ..route.workmodel import COMMIT_CELL_UNITS, SCAN_CELL_UNITS, WorkCounter
from ..updates.packets import build_loc_data, build_rmt_data
from ..updates.schedule import UpdateSchedule
from .results import NodeSummary, ParallelRunResult
from .timing import DEFAULT_COST_MODEL, CostModel

__all__ = ["run_dynamic_assignment", "TaskMessage", "TASK_MESSAGE_BYTES"]

#: Task request/grant packets: header-sized control messages.
TASK_MESSAGE_BYTES = 12
#: The wire assignment processor (also routes wires, as in the paper).
MASTER = 0


@dataclass(frozen=True)
class TaskMessage:
    """A wire-request or wire-grant control message.

    ``wire_idx`` is ``None`` for requests; grants carry the assigned wire
    index or ``-1`` for "no wires left".
    """

    kind: str  # "req" or "grant"
    src: int
    dst: int
    wire_idx: Optional[int] = None


class _DynamicNode:
    """A processor under dynamic wire distribution."""

    def __init__(self, proc, circuit, regions, schedule, cost_model, ctx):
        self.proc = proc
        self.circuit = circuit
        self.regions = regions
        self.schedule = schedule
        self.cost_model = cost_model
        self.ctx = ctx
        self.view = CostArray(circuit.n_channels, circuit.n_grids)
        self.delta = DeltaArray(circuit.n_channels, circuit.n_grids)
        self.own_region = regions.region(proc)
        self.neighbors = regions.neighbors(proc)
        self.clock = 0.0
        self.work = WorkCounter()
        self.wires_routed = 0
        self.finish_time = math.nan
        self.total_wait_s = 0.0
        self.n_waits = 0
        self.messages_sent = 0
        self.messages_received = 0
        self._since_loc = 0
        self._since_rmt = 0
        self._inbox: List = []
        self._seq = itertools.count()
        self._busy = False  # routing a wire (master defers polled requests)
        self._waiting_grant = False
        self._wait_started = 0.0
        self._done = False
        self._total_area = circuit.n_channels * circuit.n_grids

    # -- control-message plumbing --------------------------------------
    def deliver(self, payload, arrive_time: float) -> None:
        self.messages_received += 1
        if (
            isinstance(payload, TaskMessage)
            and payload.kind == "req"
            and self.schedule.interrupt_reception
        ):
            # Interrupt-driven servicing: grant immediately at arrival.
            service = arrive_time + self.cost_model.interrupt_overhead_s
            if self._busy:
                self.clock += self.cost_model.interrupt_overhead_s
            self.ctx.grant_wire(self, payload.src, at=service)
            return
        heapq.heappush(self._inbox, (arrive_time, next(self._seq), payload))
        if not self._busy:
            self.ctx.sim.at(max(self.clock, arrive_time), self.step)

    def _drain(self) -> None:
        while self._inbox and self._inbox[0][0] <= self.clock:
            _, _, payload = heapq.heappop(self._inbox)
            if isinstance(payload, TaskMessage):
                if payload.kind == "req":
                    self.clock += self.cost_model.packet_fixed_s
                    self.ctx.grant_wire(self, payload.src, at=self.clock)
                elif payload.kind == "grant":
                    self._waiting_grant = False
                    self.total_wait_s += max(0.0, self.clock - self._wait_started)
                    self.n_waits += 1
                    if payload.wire_idx is None or payload.wire_idx < 0:
                        self._done = True
                        self.finish_time = self.clock
                        self.ctx.node_done(self)
                    else:
                        self._route(payload.wire_idx)
            else:  # an update packet: fold absolute data / deltas in
                self.clock += self.cost_model.packet_fixed_s
                if payload.kind.name == "SEND_LOC_DATA":
                    self.view.replace(payload.bbox, payload.values)
                elif payload.kind.name == "SEND_RMT_DATA":
                    self.view.accumulate(payload.bbox, payload.values)
                    self.delta.accumulate(payload.bbox, payload.values)
                self.work.add_incorporate(payload.payload_cells)
                self.clock += self.cost_model.work_time(payload.payload_cells)

    def step(self) -> None:
        """Between-wires point: drain messages, then ask for work."""
        if self._busy or self._done:
            return
        self.clock = max(self.clock, self.ctx.sim.now)
        self._drain()
        if self._done or self._waiting_grant:
            return
        # Ask for the next wire (the master asks itself, instantly).
        self._waiting_grant = True
        self._wait_started = self.clock
        if self.proc == MASTER:
            self.ctx.grant_wire(self, MASTER, at=self.clock)
        else:
            self.ctx.send_task(self, TaskMessage("req", self.proc, MASTER), self.clock)

    def receive_grant_locally(self, wire_idx: int) -> None:
        """The master hands itself a wire without network traffic."""
        self._waiting_grant = False
        self.n_waits += 1
        if wire_idx < 0:
            self._done = True
            self.finish_time = self.clock
            self.ctx.node_done(self)
            return
        self._route(wire_idx)

    # -- routing --------------------------------------------------------
    def _route(self, wire_idx: int) -> None:
        self._busy = True
        wire = self.circuit.wire(wire_idx)
        result = route_wire(self.view, wire)
        self.work.add_route(result.work_cells)
        commit_units = COMMIT_CELL_UNITS * result.path.n_cells
        self.work.add_commit(result.path.n_cells)
        self.clock += self.cost_model.work_time(result.work_cells + commit_units)
        self.ctx.sim.at(self.clock, lambda: self._commit(wire_idx, result))

    def _commit(self, wire_idx: int, result) -> None:
        self.view.apply_path(result.path.flat_cells)
        self.delta.record_path(result.path.flat_cells, +1)
        self.ctx.on_commit(self.proc, wire_idx, result.path, self.clock)
        self.wires_routed += 1
        self._since_loc += 1
        self._since_rmt += 1
        self._push_updates()
        self._busy = False
        self.ctx.sim.at(self.clock, self.step)

    def _push_updates(self) -> None:
        k1 = self.schedule.send_loc_every
        if k1 is not None and self._since_loc >= k1:
            self._since_loc = 0
            self.work.add_scan(self.own_region.area)
            self.clock += self.cost_model.work_time(SCAN_CELL_UNITS * self.own_region.area)
            packet = build_loc_data(self.proc, self.proc, self.view, self.delta, self.own_region)
            if packet is not None:
                for neighbor in self.neighbors:
                    clone = type(packet)(
                        kind=packet.kind, src=self.proc, dst=neighbor,
                        bbox=packet.bbox, values=packet.values, region_owner=self.proc,
                    )
                    self._emit_update(clone)
                self.delta.clear_region(self.own_region)
        k2 = self.schedule.send_rmt_every
        if k2 is not None and self._since_rmt >= k2:
            self._since_rmt = 0
            scan = self._total_area - self.own_region.area
            self.work.add_scan(scan)
            self.clock += self.cost_model.work_time(SCAN_CELL_UNITS * scan)
            for owner in range(self.regions.n_procs):
                if owner == self.proc:
                    continue
                region = self.regions.region(owner)
                packet = build_rmt_data(self.proc, owner, self.delta, region)
                if packet is not None:
                    self._emit_update(packet)
                    self.delta.clear_region(region)

    def _emit_update(self, packet) -> None:
        self.work.add_marshal(packet.payload_cells)
        self.clock += (
            self.cost_model.packet_fixed_s
            + self.cost_model.work_time(packet.payload_cells)
        )
        self.messages_sent += 1
        self.ctx.send_packet(packet, self.clock)


class _DynamicContext:
    """Shared run state: the loop counter, network, and ground truth."""

    def __init__(self, sim, network, circuit, nodes_ref):
        self.sim = sim
        self.network = network
        self.circuit = circuit
        self.nodes = nodes_ref
        self.next_wire = 0
        self.truth = CostArray(circuit.n_channels, circuit.n_grids)
        self.paths: Dict[int, RoutePath] = {}
        self.prices: Dict[int, int] = {}
        self.wire_router = np.zeros(circuit.n_wires, dtype=np.int64)
        self.done_count = 0

    def grant_wire(self, master_node, requester: int, at: float) -> None:
        wire_idx = self.next_wire if self.next_wire < self.circuit.n_wires else -1
        if wire_idx >= 0:
            self.next_wire += 1
        if requester == MASTER:
            master_node.receive_grant_locally(wire_idx)
        else:
            self.send_task(
                master_node, TaskMessage("grant", MASTER, requester, wire_idx), at
            )

    def send_task(self, node, message: TaskMessage, at: float) -> None:
        node.messages_sent += 1
        msg = Message(message.src, message.dst, TASK_MESSAGE_BYTES, message)
        self.sim.at(at, lambda: self.network.send(msg, max(at, self.sim.now)))

    def send_packet(self, packet, at: float) -> None:
        msg = Message(packet.src, packet.dst, packet.length_bytes, packet)
        self.sim.at(at, lambda: self.network.send(msg, max(at, self.sim.now)))

    def on_commit(self, proc, wire_idx, path, time) -> None:
        self.prices[wire_idx] = self.truth.path_cost(path.flat_cells)
        self.truth.apply_path(path.flat_cells)
        self.paths[wire_idx] = path
        self.wire_router[wire_idx] = proc

    def node_done(self, node) -> None:
        self.done_count += 1


def run_dynamic_assignment(
    circuit: Circuit,
    schedule: Optional[UpdateSchedule] = None,
    n_procs: int = 16,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ParallelRunResult:
    """Simulate one routing iteration under dynamic wire distribution.

    ``schedule.interrupt_reception`` selects the §4.2 interrupt-driven
    variant; sender-initiated update parameters are honoured;
    receiver-initiated parameters are rejected (no lookahead is possible).
    """
    schedule = schedule or UpdateSchedule()
    if schedule.has_receiver_initiated:
        raise ProtocolError(
            "dynamic assignment cannot look ahead: receiver-initiated "
            "schedules are not supported (see module docstring)"
        )
    shape = proc_grid_shape(n_procs)
    regions = RegionMap(circuit.n_channels, circuit.n_grids, n_procs, shape)
    sim = Simulator()
    nodes: List[_DynamicNode] = []

    def on_deliver(delivery: Delivery) -> None:
        nodes[delivery.message.dst].deliver(delivery.message.payload, delivery.arrive_time)

    network = WormholeNetwork(
        sim,
        MeshTopology(n_procs, shape),
        on_deliver,
        hop_time_s=cost_model.hop_time_s,
        process_time_s=cost_model.process_time_s,
    )
    ctx = _DynamicContext(sim, network, circuit, nodes)
    for proc in range(n_procs):
        nodes.append(_DynamicNode(proc, circuit, regions, schedule, cost_model, ctx))
    for node in nodes:
        sim.at(0.0, node.step)
    sim.run()

    if len(ctx.paths) != circuit.n_wires:
        raise SimulationError("dynamic run did not route every wire")
    exec_time = max(n.finish_time for n in nodes)
    quality = QualityReport(
        circuit_height=circuit_height(ctx.truth),
        occupancy_factor=int(sum(ctx.prices.values())),
        total_wire_cells=ctx.truth.total_occupancy(),
    )
    summaries = [
        NodeSummary(
            proc=n.proc,
            wires_routed=n.wires_routed,
            finish_time_s=n.finish_time,
            route_units=n.work.route_units,
            commit_units=n.work.commit_units,
            assemble_units=n.work.assemble_units,
            incorporate_units=n.work.incorporate_units,
            messages_sent=n.messages_sent,
            messages_received=n.messages_received,
            blocked_time_s=n.total_wait_s,
        )
        for n in nodes
    ]
    mean_wait = float(
        np.mean([n.total_wait_s / max(n.n_waits, 1) for n in nodes if n.proc != MASTER])
    )
    return ParallelRunResult(
        paradigm="message_passing",
        quality=quality,
        exec_time_s=exec_time,
        paths=ctx.paths,
        wire_router=ctx.wire_router,
        node_summaries=summaries,
        truth=ctx.truth,
        network=network.stats,
        meta={
            "schedule": schedule.describe(),
            "assignment": "dynamic"
            + (" (interrupt)" if schedule.interrupt_reception else " (polled)"),
            "n_procs": n_procs,
            "iterations": 1,
            "circuit": circuit.name,
            "mean_task_wait_s": mean_wait,
        },
    )
