"""The lifecycle both live routers share: one process fleet, one verdict.

A live run starts daemon worker processes, each writing its own durable
commit log, talks to each over one pipe under one deadline, and ends by
replaying the logs into the ground-truth ledger the simulators use.
:class:`LiveFleet` does all of that once.  Each router keeps only what is
its own: its worker body and what it says over the pipes — the
shared-memory router's iterations, requeue, respawn and kill-plan
scheduling around its shared segment
(:mod:`~repro.parallel.live.sm_live`), the message-passing router's pipe
mesh and its go / finished / stop rounds
(:mod:`~repro.parallel.live.mp_live`).
"""

from __future__ import annotations

import collections
import os
import tempfile
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...circuits.model import Circuit
from ...errors import SimulationError
from ...kernels import active_kernels, set_kernels
from ...obs import telemetry as obs
from ..ledger import GroundTruthLedger
from ..results import NodeSummary, ParallelRunResult
from .commitlog import COMMIT, RIPUP, CommitLogWriter, read_logs, replay_records

__all__ = ["LiveFleet", "LiveWorker"]

_PARADIGMS = {"sm": "shared_memory_live", "mp": "message_passing_live"}


def _worker_main(body, kernel_mode: str, slot: int, log_path: str, conn, args) -> None:
    """Every worker process's entry point (module-level: picklable under spawn).

    A spawned child starts from a fresh interpreter, so the parent's
    kernel mode comes along explicitly.
    """
    set_kernels(kernel_mode)
    log = CommitLogWriter(log_path, slot)
    try:
        body(slot, log, conn, *args)
    finally:
        log.close()


@dataclass(eq=False)
class LiveWorker:
    """One worker process: its slot, its incarnation in the slot, and the
    parent's end of its pipe."""

    slot: int
    incarnation: int
    proc: Any
    conn: Any
    dead: bool = False


class LiveFleet:
    """One live run's worker processes, commit logs, deadline and verdict.

    Constructing it checks the arguments and resolves the start method
    (:func:`repro.harness.pool.mp_context`) and the kernel mode.  Inside
    ``with fleet:`` the router starts and drives its workers and ends with
    :meth:`finish`.  Leaving the ``with`` by any route kills, joins and
    closes every worker and removes the log directory.
    """

    def __init__(
        self,
        name: str,
        circuit: Circuit,
        n_procs: int,
        iterations: int,
        start_method: Optional[str],
        timeout_s: float,
    ) -> None:
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        if n_procs < 1:
            raise SimulationError("need at least one worker process")
        if iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {iterations}")
        # Imported here: every worker process imports this module, none needs the harness.
        from ...harness.pool import mp_context

        self.name = name
        self.circuit = circuit
        self.n_procs = n_procs
        self.iterations = iterations
        self.timeout_s = timeout_s
        self.ctx = mp_context(start_method)
        self.kernel_mode = active_kernels()
        self.workers: List[LiveWorker] = []
        self.log_paths: List[str] = []

    def __enter__(self) -> "LiveFleet":
        self._logs = tempfile.TemporaryDirectory(prefix=f"locusroute-live-{self.name}-")
        self._deadline = time.monotonic() + self.timeout_s
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for worker in self.workers:
                if worker.proc.is_alive():
                    worker.proc.kill()
                worker.proc.join(timeout=5.0)
                worker.conn.close()
        finally:
            self._logs.cleanup()

    @property
    def live(self) -> List[LiveWorker]:
        return [w for w in self.workers if not w.dead]

    def start(self, body: Callable, slot: int, *args) -> LiveWorker:
        """Start ``body(slot, log, conn, *args)`` as a daemon worker process.

        *log* is the worker's own :class:`CommitLogWriter` (a respawned
        slot writes a fresh incarnation's file) and *conn* its end of a
        duplex pipe to the parent.
        """
        incarnation = sum(w.slot == slot for w in self.workers)
        log_path = os.path.join(self._logs.name, f"worker{slot}_{incarnation}.log")
        self.log_paths.append(log_path)
        parent_end, child_end = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(body, self.kernel_mode, slot, log_path, child_end, args),
            daemon=True,
        )
        proc.start()
        child_end.close()
        worker = LiveWorker(slot, incarnation, proc, parent_end)
        self.workers.append(worker)
        return worker

    def wait(self) -> List[Tuple[LiveWorker, Optional[Tuple]]]:
        """Block until a live worker speaks or dies, or the deadline passes.

        Each worker that spoke yields ``(worker, message)``, one message a
        call; each that died yields ``(worker, None)`` once, after anything
        it sent before dying, and is marked dead.  Raises
        :class:`~repro.errors.SimulationError` once the deadline has passed
        or when no worker is left alive.
        """
        remaining = self._deadline - time.monotonic()
        if remaining < 0:
            raise SimulationError(f"live {self.name} run exceeded {self.timeout_s}s")
        live = self.live
        if not live:
            raise SimulationError(f"every live {self.name} worker has died")
        ready = set(
            conn_wait(
                [w.conn for w in live] + [w.proc.sentinel for w in live],
                timeout=remaining,
            )
        )
        events: List[Tuple[LiveWorker, Optional[Tuple]]] = []
        for worker in live:
            if worker.conn not in ready and worker.proc.sentinel not in ready:
                continue
            try:
                if worker.conn.poll():
                    events.append((worker, worker.conn.recv()))
                    continue
            except (EOFError, OSError):
                pass
            worker.dead = True
            worker.conn.close()
            events.append((worker, None))
        return events

    def dismiss(self, message: Tuple) -> None:
        """Send every live worker *message*, its last, and wait for it to exit."""
        for worker in self.live:
            worker.conn.send(message)
        for worker in self.live:
            worker.proc.join(timeout=10.0)

    def finish(
        self,
        routing_wall_s: float,
        slots: Sequence[Dict[str, float]],
        meta: Dict[str, object],
        check: Optional[Callable[[GroundTruthLedger], None]] = None,
    ) -> ParallelRunResult:
        """Replay the commit logs and return the run's result and verdict.

        Quality, truth, paths and routers come from the replay ledger;
        *check*, if given, adds the router's own checks to its report
        first.  *slots* holds one dict per worker slot: ``grabs``, plus
        ``messages_sent``, ``messages_received``, ``bytes_sent`` and
        ``blocked_time_s`` where the router measures them (0 otherwise).
        Incarnations, commits, rip-ups and cells written are counted here.
        ``NodeSummary`` takes what it has fields for; the rest goes to
        ``meta["workers"]`` beside the router's own *meta* and the keys
        every live run reports.
        """
        records = read_logs(self.log_paths)
        ledger = replay_records(records, self.circuit, self.iterations)
        if check is not None:
            check(ledger)
        quality = ledger.close(len(records))
        incarnations = collections.Counter(w.slot for w in self.workers)
        written = [collections.Counter() for _ in slots]
        for rec in records:
            written[rec.worker][rec.kind] += 1
            written[rec.worker]["cells"] += rec.cells.size
        summaries = [
            NodeSummary(
                proc=slot,
                wires_routed=counts[COMMIT],
                finish_time_s=0.0,
                route_units=0.0,
                commit_units=0.0,
                assemble_units=0.0,
                incorporate_units=0.0,
                messages_sent=stats.get("messages_sent", 0),
                messages_received=stats.get("messages_received", 0),
                blocked_time_s=stats.get("blocked_time_s", 0.0),
            )
            for slot, (stats, counts) in enumerate(zip(slots, written))
        ]
        meta = {
            "circuit": self.circuit.name,
            "n_procs": self.n_procs,
            "iterations": self.iterations,
            "start_method": self.ctx.get_start_method(),
            "kernel_mode": self.kernel_mode,
            **meta,
            "workers": [
                {
                    "incarnations": incarnations[slot],
                    "grabs": stats["grabs"],
                    "ripups": counts[RIPUP],
                    "cells_written": counts["cells"],
                    "bytes_sent": stats.get("bytes_sent", 0),
                }
                for slot, (stats, counts) in enumerate(zip(slots, written))
            ],
            **ledger.verification_meta(),
        }
        result = ParallelRunResult(
            paradigm=_PARADIGMS[self.name],
            quality=quality,
            exec_time_s=routing_wall_s,
            paths=ledger.paths,
            wire_router=ledger.wire_router,
            node_summaries=summaries,
            truth=ledger.truth,
            meta=meta,
        )
        wall = time.perf_counter() - self._wall0
        meta["wall_s"] = wall
        obs.record_span(f"live.{self.name}", wall, time.process_time() - self._cpu0)
        obs.incr(f"live.{self.name}.runs")
        if not meta["verification"]["ok"]:
            obs.incr(f"live.{self.name}.replay_failures")
        return result
