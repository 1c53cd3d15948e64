"""The live message-passing LocusRoute: one real process per node.

The real-core twin of :func:`repro.parallel.mp_sim.run_message_passing`,
running the *same* protocol code.  Every node process holds one unmodified
:class:`~repro.parallel.node.MPNode` — private view, §4.1 delta array, all
four update kinds, look-ahead, blocking, the watchdog — and this module
is only its real-time :class:`~repro.parallel.node.NodeServices`:
``send_packet`` pickles the packet into the destination's pipe (a full
point-to-point mesh; nodes share no memory), ``schedule``/``cancel`` are a
local :class:`~repro.events.queue.EventQueue` fired against
``time.monotonic()``, ``on_ripup``/``on_commit`` append to the node's
durable commit log stamped with ``time.monotonic_ns()``, and
``on_finished`` tells the parent.  The cost model charges nothing and the
driver sets ``node.clock = max(node.clock, now)`` before every callback
and every ``deliver``, so the node's clock *is* the wall clock.

There is no per-iteration barrier: a node walks its whole queue (its
wires, once per iteration) at its own pace, as in the simulator.  Node
views legitimately diverge.  Replaying all commit logs in timestamp order
through the ground-truth ledger the simulators use rebuilds the canonical
final array (the simulator's event-ordered truth); one ledger judges all
four engines, and its cost-conservation monitor holds that array to the
union of the final committed paths.
"""

from __future__ import annotations

import collections
import os
import queue
import tempfile
import threading
import time
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...assign.base import Assignment
from ...circuits.model import Circuit
from ...errors import SimulationError
from ...events.queue import EventQueue
from ...faults.plan import RecoveryPolicy
from ...grid.regions import RegionMap
from ...kernels import active_kernels, set_kernels
from ...obs import telemetry as obs
from ...route.path import RoutePath
from ...route.twobend import route_wire
from ...updates.schedule import UpdateSchedule
from ...updates.types import is_request
from ..mp_sim import default_assignment
from ..node import MPNode, NodeServices
from ..results import ParallelRunResult
from ..timing import CostModel
from .commitlog import (
    COMMIT,
    RIPUP,
    CommitLogWriter,
    live_result,
    read_logs,
    replay_records,
)

__all__ = ["run_live_message_passing", "DEFAULT_LIVE_POLICY"]

#: The simulator's 10 ms virtual-time watchdog is far too twitchy for a
#: loaded host: wait 250 ms, retry twice with 2x backoff, then abandon.
DEFAULT_LIVE_POLICY = RecoveryPolicy(
    watchdog_timeout_s=0.25, backoff_factor=2.0, max_retries=2
)

#: Real time is the only cost: every charge MPNode makes to its clock is 0.
_FREE = CostModel(time_per_unit_s=0.0, packet_fixed_s=0.0, interrupt_overhead_s=0.0)

#: A peer (or the parent) that closed its end is gone, never a crash.
_PEER_GONE = (EOFError, ConnectionResetError, BrokenPipeError)


def _mp_node(
    me: int,
    wires: Tuple[int, ...],
    node_args: Dict[str, object],
    kernel_mode: str,
    log_path: str,
    control,
    peer_conns: Dict[int, object],
) -> None:
    """Node process body (module-level: picklable under spawn)."""
    set_kernels(kernel_mode)
    log = CommitLogWriter(log_path, me)
    #: the totals every run reports, plus one count per packet kind sent
    traffic = collections.Counter(
        messages_sent=0, bytes_sent=0, requests_sent=0, requests_serviced=0
    )
    #: ``(src, packet)`` from a peer, ``(None, message)`` from the parent
    inbox: "queue.SimpleQueue" = queue.SimpleQueue()
    timers = EventQueue()

    def send_packet(packet, inject_time: float) -> None:
        traffic[packet.kind.value] += 1
        traffic["messages_sent"] += 1
        traffic["bytes_sent"] += packet.length_bytes
        traffic["requests_sent"] += is_request(packet.kind)
        try:
            peer_conns[packet.dst].send(packet)
        except _PEER_GONE:
            pass

    def log_write(kind: int, wire_idx: int, path: RoutePath) -> None:
        iteration = node.qi // max(1, len(wires))
        log.append(kind, iteration, wire_idx, time.monotonic_ns(), path.flat_cells)

    node = MPNode(
        proc=me,
        wires=wires,
        services=NodeServices(
            send_packet=send_packet,
            schedule=timers.push,
            cancel=timers.cancel,
            on_ripup=lambda proc, w, path, t: log_write(RIPUP, w, path),
            on_commit=lambda proc, w, path, t: log_write(COMMIT, w, path),
            on_finished=lambda proc, t: control.send(("finished",)),
        ),
        **node_args,
    )

    def reader() -> None:
        """Move arrivals into ``inbox`` so a full pipe never blocks a peer
        (two nodes sending to each other would both park in ``send``)."""
        sources = {conn: src for src, conn in peer_conns.items()}
        sources[control] = None
        while control in sources:
            # Control last: a "stop" must queue behind everything a peer
            # sent before it reported "finished".
            for conn in sorted(conn_wait(list(sources)), key=lambda c: c is control):
                try:
                    while conn.poll():
                        inbox.put((sources[conn], conn.recv()))
                except _PEER_GONE:
                    del sources[conn]
        inbox.put((None, ("exit",)))  # the parent went away

    def fire_next_timer() -> Optional[float]:
        """Fire the earliest timer if it is due and return 0.0; otherwise
        return the seconds until it is (``None``: no timer armed)."""
        now = time.monotonic()
        due = timers.peek_time()
        if due is None or due > now:
            return None if due is None else due - now
        node.clock = max(node.clock, now)
        timers.pop_next()[1]()
        return 0.0

    def say_bye() -> None:
        traffic["retries_sent"] = node.retries_sent
        traffic["requests_abandoned"] = node.requests_abandoned
        traffic["duplicate_responses_ignored"] = node.duplicate_responses_ignored
        slot = {
            "incarnations": 1,
            "grabs": node.qi,
            "messages_sent": traffic["messages_sent"],
            "messages_received": node.messages_received,
            "bytes_sent": traffic["bytes_sent"],
            "blocked_time_s": node.blocked_time_s,
        }
        control.send(("bye", slot, dict(traffic), node.view.data))

    if wires:
        # Prepared before "go", like everything else that is not the race:
        # pricing one wire (the view is not touched) builds the circuit's
        # wire tables and warms the evaluator in this process, which under
        # spawn starts with neither — milliseconds of skew between nodes
        # whose whole quick run is a few milliseconds of routing.
        route_wire(node.view, node.circuit.wire(wires[0]))
    control.send(("ready",))
    control.recv()  # "go"
    threading.Thread(target=reader, daemon=True).start()
    node.start()
    if not wires:
        # MPNode reports on_finished from its last commit: none to come.
        control.send(("finished",))
    while True:
        # ONE timer callback, then every queued arrival: MPNode re-arms at
        # its own clock, so draining all due timers first would route the
        # whole queue without reading a packet.
        wait = fire_next_timer()
        try:
            while True:
                src, item = inbox.get(timeout=wait)
                wait = 0.0
                if src is not None:
                    traffic["requests_serviced"] += is_request(item.kind)
                    now = time.monotonic()
                    node.clock = max(node.clock, now)
                    node.deliver(item, now)
                elif item[0] == "stop":
                    # Serve what queued ahead of the "stop", then report.
                    while fire_next_timer() == 0.0:
                        pass
                    say_bye()
                else:
                    return
        except queue.Empty:
            pass


def run_live_message_passing(
    circuit: Circuit,
    schedule: Optional[UpdateSchedule] = None,
    n_procs: int = 2,
    iterations: int = 3,
    assignment: Optional[Assignment] = None,
    policy: RecoveryPolicy = DEFAULT_LIVE_POLICY,
    kernel_mode: Optional[str] = None,
    start_method: Optional[str] = None,
    timeout_s: float = 120.0,
    keep_logs_dir: Optional[str] = None,
) -> ParallelRunResult:
    """Route *circuit* with one real process per message-passing node.

    Parameters mirror the simulator where they overlap; ``schedule``
    defaults to the sender-initiated ``SRD=1 SLD=1`` push schedule and
    ``assignment`` to the ThresholdCost=1000 locality policy.  ``policy``
    is the watchdog every node arms for its ReqRmtData requests, in real
    seconds.  ``timeout_s`` bounds the whole run; a node process dying
    (never on purpose — crash stress lives in the shared-memory twin) or
    a transport error aborts it with :class:`~repro.errors.SimulationError`.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if n_procs < 1:
        raise SimulationError("need at least one node process")
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    if schedule is None:
        schedule = UpdateSchedule.sender_initiated(1, 1)
    kernel_mode = kernel_mode or active_kernels()

    from ...harness.pool import mp_context

    ctx = mp_context(start_method)
    regions = RegionMap(circuit.n_channels, circuit.n_grids, n_procs)
    if assignment is None:
        assignment = default_assignment(circuit, regions)
    if assignment.n_procs != n_procs or assignment.n_wires != circuit.n_wires:
        raise SimulationError("assignment does not match circuit / processor count")
    per_node = assignment.per_proc_lists()
    #: the MPNode arguments every node shares
    node_args = dict(
        circuit=circuit,
        regions=regions,
        schedule=schedule,
        iterations=iterations,
        cost_model=_FREE,
        recovery=policy,
    )

    tmpdir = None
    if keep_logs_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="locusroute-live-mp-")
    log_dir = keep_logs_dir or tmpdir.name
    os.makedirs(log_dir, exist_ok=True)
    log_paths = [os.path.join(log_dir, f"node{p}.log") for p in range(n_procs)]

    # Full point-to-point mesh of pipes plus one control pipe per node.
    peer_ends: List[Dict[int, object]] = [dict() for _ in range(n_procs)]
    for i in range(n_procs):
        for j in range(i + 1, n_procs):
            peer_ends[i][j], peer_ends[j][i] = ctx.Pipe(duplex=True)
    procs, controls = [], []
    try:
        for p in range(n_procs):
            parent_end, child_end = ctx.Pipe(duplex=True)
            wires = tuple(int(w) for w in per_node[p])
            proc = ctx.Process(
                target=_mp_node,
                args=(p, wires, node_args, kernel_mode, log_paths[p], child_end,
                      peer_ends[p]),
                daemon=True,
            )
            proc.start()
            child_end.close()
            for conn in peer_ends[p].values():
                conn.close()
            procs.append(proc)
            controls.append(parent_end)

        deadline = time.monotonic() + timeout_s

        def tell(message: Tuple) -> None:
            for conn in controls:
                conn.send(message)

        def gather(expect: str) -> List[Tuple]:
            """Collect one *expect* message from every node."""
            got: Dict[int, Tuple] = {}
            while len(got) < n_procs:
                if time.monotonic() > deadline:
                    raise SimulationError(f"live MP run exceeded {timeout_s}s")
                waiting = {controls[p]: p for p in range(n_procs) if p not in got}
                for conn, p in waiting.items():
                    # A dead node with an empty control pipe can never
                    # deliver; one with buffered output still can.
                    if not procs[p].is_alive() and not conn.poll():
                        raise SimulationError(
                            f"node {p} died (exit {procs[p].exitcode})"
                        )
                for conn in conn_wait(list(waiting), timeout=0.25):
                    got[waiting[conn]] = conn.recv()
                    assert got[waiting[conn]][0] == expect
            return [got[p] for p in range(n_procs)]

        gather("ready")
        routing_t0 = time.perf_counter()
        tell(("go",))
        gather("finished")
        routing_wall = time.perf_counter() - routing_t0
        # Every node has routed its last wire, but packets may still be
        # queued and serving one can send another (a ReqRmtData's answer
        # rides with a ReqLocData).  Each "stop" round has every node serve
        # all that was sent before it; a round in which nobody sent anything
        # is quiescence.  Peer pipes stay open until "exit".
        sent = None
        while True:
            tell(("stop",))
            byes = gather("bye")
            previous, sent = sent, sum(w["messages_sent"] for _, w, _, _ in byes)
            if sent == previous:
                break
        tell(("exit",))
        for proc in procs:
            proc.join(timeout=10.0)
    except (EOFError, OSError) as exc:
        raise SimulationError(f"live MP transport failed: {exc!r}") from None
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for conn in controls:
            conn.close()

    # Replay: canonical truth from the durable logs.
    records = read_logs(log_paths)
    if tmpdir is not None:
        tmpdir.cleanup()
    ledger = replay_records(records, circuit, iterations)

    traffic = collections.Counter()
    for _, _, node_traffic, _ in byes:
        traffic.update(node_traffic)
    meta: Dict[str, object] = {
        "circuit": circuit.name,
        "n_procs": n_procs,
        "iterations": iterations,
        "schedule": schedule.describe(),
        "assignment": assignment.method,
        "start_method": ctx.get_start_method(),
        "kernel_mode": kernel_mode,
        "traffic": dict(traffic),
        "view_divergence_max": max(
            int(np.abs(view - ledger.truth.data).max()) for _, _, _, view in byes
        ),
    }
    result = live_result(
        "message_passing_live",
        ledger,
        records,
        routing_wall,
        [slot for _, slot, _, _ in byes],
        meta,
    )

    wall = time.perf_counter() - wall0
    meta["wall_s"] = wall
    obs.record_span("live.mp", wall, time.process_time() - cpu0)
    obs.incr("live.mp.runs")
    obs.incr("live.mp.messages", traffic["messages_sent"])
    obs.incr("live.mp.bytes", traffic["bytes_sent"])
    if not meta["verification"]["ok"]:
        obs.incr("live.mp.replay_failures")
    return result
