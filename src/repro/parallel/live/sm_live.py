"""The live shared-memory LocusRoute: real worker processes, one real grid.

The real-core twin of :func:`repro.parallel.sm_sim.run_shared_memory`.
Both run one worker step, :func:`~repro.parallel.sm_sim.sm_step` (grab,
rip-up, lock-free evaluation, commit).  This module keeps the live side
of that step, :class:`_LiveServices`, and the parent's iterations,
resumes, requeues and respawns:

- the cost array lives in one ``multiprocessing.shared_memory`` segment
  that every worker wraps with :meth:`CostArray.wrap
  <repro.grid.cost_array.CostArray.wrap>`, and evaluation reads it
  **without a lock**: a worker sees whatever mix of committed and
  in-flight wires is in memory, the stale reads the paper tolerates (§1);
- a grab advances a shared **distributed loop** counter under a short
  grab lock, requeued wires first, like
  :class:`~repro.assign.distributed_loop.DistributedLoop`;
- the rip-up and the commit each write the array inside a short
  commit-lock critical section that also draws a global sequence ticket
  and appends a durable record to the worker's commit log, so replaying
  the logs in ticket order reproduces the final array **bit-exactly**
  (racing unlocked ``+=`` scatter-adds would lose updates).

Crashes are fail-stop at safe points, with real SIGKILLs.  The parent
watches every worker's process sentinel; a dead worker's in-flight wire,
published in a shared ``inflight`` slot at grab time with an "old path
already ripped" flag set under the commit lock, goes back into the
loop's requeue for the next idle survivor, and the slot can be respawned
with a fresh log incarnation.  Log appends are unbuffered single writes
inside the critical section, so a killed worker's completed commits are
never lost or half-applied.  A worker dying *inside* a lock would hang
the run; ``timeout_s`` turns that into an error.

Processes, logs, the deadline and the replay are
:class:`~repro.parallel.live.driver.LiveFleet`'s: the logs replay into the
ground-truth ledger the simulators use, and this router adds one check to
it — the replayed array must equal the shared segment bit for bit
(``replay-shared-segment``).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import shared_memory, sharedctypes
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ...circuits.model import Circuit
from ...errors import SimulationError
from ...grid.cost_array import CostArray
from ...obs import telemetry as obs
from ..ledger import GroundTruthLedger
from ..results import ParallelRunResult
from ..sm_sim import sm_step
from .commitlog import COMMIT, RIPUP, CommitLogWriter, read_logs
from .driver import LiveFleet, LiveWorker

__all__ = ["run_live_shared_memory", "KillPlanEntry", "KILL_POINTS"]

#: Shared control-word indices (int64 RawArray).
_NEXT = 0  #: distributed-loop position in the wire order
_REQ_N = 1  #: number of entries in the requeue stack
_SEQ = 2  #: next global write-sequence ticket
_CTRL_WORDS = 3

#: Safe self-kill points for the crash stress plan (never inside a lock).
KILL_POINTS = ("after_grab", "after_ripup", "after_commit")


@dataclass(frozen=True)
class KillPlanEntry:
    """Self-SIGKILL instruction for one worker slot (stress testing).

    The worker kills itself (``SIGKILL``, no cleanup) once it has
    committed ``after_commits`` wires and reaches ``point`` — one of
    :data:`KILL_POINTS`, all outside the critical sections so the locks
    are never orphaned (the fail-stop-at-safe-points model).

    Firing is deterministic even on one core: the distributed loop
    reserves the tail of each iteration's wire order for workers with an
    unfired kill, so an armed worker that the OS scheduler starves still
    gets the grabs it needs to reach its threshold (otherwise a fast
    sibling could drain the loop every iteration and the plan would
    silently never fire).
    """

    slot: int
    after_commits: int
    point: str = "after_ripup"

    def __post_init__(self) -> None:
        if self.point not in KILL_POINTS:
            raise SimulationError(
                f"kill point {self.point!r} not in {KILL_POINTS}"
            )
        if self.after_commits < 0:
            raise SimulationError("after_commits must be >= 0")


def _attach_shared_array(name: str, shape: Tuple[int, int]):
    """Attach the parent's segment as an int32 grid view.

    On Python < 3.13 attaching re-registers the segment with the
    resource tracker, but multiprocessing children share the parent's
    tracker (the fd travels in the spawn preparation data), whose
    registry is a set — the re-registration is idempotent and the
    parent's ``unlink`` balances it.  Children must *not* unregister:
    that would delete the parent's claim and make the final unlink
    double-unregister.
    """
    shm = shared_memory.SharedMemory(name=name)
    data = np.ndarray(shape, dtype=np.int32, buffer=shm.buf)
    return shm, data


class _LiveServices:
    """A worker process's side of :func:`~repro.parallel.sm_sim.sm_step`.

    The grab takes the distributed loop under the grab lock; the rip-up
    and the commit each write the shared array, draw a sequence ticket
    and append a log record under the commit lock.  The slot's kill plan
    fires at the safe points between them, outside both locks.
    """

    def __init__(
        self, slot, log, view, kill, order, ctrl, requeue, inflight, armed, grab_lock, commit_lock
    ) -> None:
        self.slot, self.log, self.view = slot, log, view
        self.order, self.ctrl, self.requeue, self.inflight = order, ctrl, requeue, inflight
        self.armed, self.grab_lock, self.commit_lock = armed, grab_lock, commit_lock
        self.kill_after, self.kill_point = kill if kill is not None else (-1, "")
        self.grabs = self.commits = self.iteration = 0
        self.prev_cells: Dict[int, np.ndarray] = {}
        #: The grabbed wire's old path already left the shared array.
        self.ripped = False

    def _maybe_kill(self, point: str) -> None:
        if self.kill_after >= 0 and point == self.kill_point and self.commits >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def grab(self) -> Optional[int]:
        """Take the next wire from the shared distributed loop.

        Requeued wires (a dead worker's in-flight work) go first, like
        ``DistributedLoop.next_wire``.  The grab also publishes the wire
        in this worker's inflight slot so the parent can recover it if
        *this* worker dies before committing.

        The last ``sum(armed)`` undistributed wires are reserved for
        workers whose kill plan has not fired yet: a worker with no
        remaining armed budget leaves them and goes idle, so an armed
        worker reaches its kill threshold no matter how the OS schedules
        the processes (the parent will not end the iteration while wires
        are uncommitted).
        """
        ctrl, armed, slot, n = self.ctrl, self.armed, self.slot, len(self.order)
        with self.grab_lock:
            req_n, pos = ctrl[_REQ_N], ctrl[_NEXT]
            if req_n == 0 and (pos >= n or (armed[slot] == 0 and n - pos <= sum(armed))):
                return None  # drained, or the rest is reserved for armed workers
            if armed[slot] > 0:
                armed[slot] -= 1
            if req_n > 0:
                ctrl[_REQ_N] = req_n - 1
                wire = int(self.requeue[2 * req_n - 2])
                self.ripped = bool(self.requeue[2 * req_n - 1])
            else:
                ctrl[_NEXT] = pos + 1
                wire, self.ripped = int(self.order[pos]), False
            self.inflight[2 * slot] = wire
            self.inflight[2 * slot + 1] = int(self.ripped)
        self.grabs += 1
        self._maybe_kill("after_grab")
        return wire

    def standing(self, wire_idx: int) -> Optional[np.ndarray]:
        return None if self.ripped else self.prev_cells.get(wire_idx)

    def ripup(self, wire_idx: int, old: np.ndarray) -> None:
        with self.commit_lock:
            seq = self.ctrl[_SEQ]
            self.ctrl[_SEQ] = seq + 1
            self.view.remove_path(old, strict=True)
            self.log.append(RIPUP, self.iteration, wire_idx, seq, old)
            self.inflight[2 * self.slot + 1] = 1

    def commit(self, wire_idx: int, result) -> None:
        # The evaluation wrote nothing: dying here is dying after the
        # rip-up, with the old path gone and the new one not yet in.
        self._maybe_kill("after_ripup")
        cells = result.path.flat_cells
        with self.commit_lock:
            seq = self.ctrl[_SEQ]
            self.ctrl[_SEQ] = seq + 1
            price = self.view.path_cost(cells)
            self.view.apply_path(cells)
            self.log.append(COMMIT, self.iteration, wire_idx, seq, cells, price)
            self.inflight[2 * self.slot] = -1
            self.inflight[2 * self.slot + 1] = 0
        self.commits += 1
        self._maybe_kill("after_commit")


def _sm_worker(
    slot: int, log: CommitLogWriter, conn, circuit: Circuit, shm_name: str, kill, *shared
) -> None:
    """Worker process body (module-level: picklable under spawn).

    *kill* is the slot's ``(after_commits, point)`` crash instruction, or
    ``None``; *shared* is the loop's and the slots' shared state and the
    two locks, in :class:`_LiveServices` order.
    """
    shm, data = _attach_shared_array(shm_name, (circuit.n_channels, circuit.n_grids))
    view = CostArray.wrap(data)
    services = _LiveServices(slot, log, view, kill, *shared)
    try:
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            if msg[0] == "iter":
                services.iteration, services.prev_cells = msg[1], dict(msg[2])
            # "resume" keeps the current iteration: the parent requeued a
            # dead worker's wire after this worker went idle.
            while sm_step(services, view, circuit, services.iteration):
                pass
            conn.send(("idle", services.grabs))
    finally:
        shm.close()


def run_live_shared_memory(
    circuit: Circuit,
    n_procs: int = 2,
    iterations: int = 3,
    seed: Optional[int] = None,
    start_method: Optional[str] = None,
    kill_plan: Sequence[KillPlanEntry] = (),
    respawn: bool = True,
    timeout_s: float = 120.0,
) -> ParallelRunResult:
    """Route *circuit* on real cores with the shared-memory design.

    Parameters
    ----------
    circuit, n_procs, iterations:
        As for the simulator; ``n_procs`` here is real worker processes.
    seed:
        ``None`` keeps the natural wire order (matching the simulator's
        distributed loop); an int shuffles it deterministically.
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; defaults to the
        :data:`repro.harness.pool.START_METHOD_ENV` environment override
        or the platform default.
    kill_plan:
        :class:`KillPlanEntry` crash instructions for the stress tests.
    respawn:
        Replace dead workers (new process, same slot, fresh log
        incarnation).  With ``respawn=False`` the survivors absorb the
        requeued work; at least one worker must survive.
    timeout_s:
        Hard wall-clock bound on the whole run; on expiry the children
        are killed and :class:`~repro.errors.SimulationError` is raised
        (the escape hatch for a worker dying inside a critical section,
        which the fail-stop-at-safe-points model does not cover).
    """
    fleet = LiveFleet("sm", circuit, n_procs, iterations, start_method, timeout_s)
    kill_plan = tuple(kill_plan)
    bad = [k.slot for k in kill_plan if not (0 <= k.slot < n_procs)]
    if bad:
        raise SimulationError(f"kill plan names unknown worker slots {bad}")
    if len({k.slot for k in kill_plan}) != len(kill_plan):
        raise SimulationError("kill plan names a worker slot twice")
    if len(kill_plan) >= n_procs and not respawn:
        raise SimulationError("at least one worker must survive the kill plan")

    n_wires = circuit.n_wires
    order_list = list(range(n_wires))
    if seed is not None:
        order_list = [int(w) for w in np.random.default_rng(seed).permutation(n_wires)]

    # Shared state: wire order, control words, requeue stack and per-slot
    # inflight pairs.  RawArrays ride to spawn children via fd-backed
    # arenas; the locks must come from the chosen context.
    order = sharedctypes.RawArray("q", order_list)
    ctrl = sharedctypes.RawArray("q", _CTRL_WORDS)
    requeue = sharedctypes.RawArray("q", max(2, 2 * n_wires))
    inflight = sharedctypes.RawArray("q", [-1, 0] * n_procs)
    grab_lock = fleet.ctx.Lock()
    commit_lock = fleet.ctx.Lock()

    kill_by_slot = {k.slot: (k.after_commits, k.point) for k in kill_plan}
    # Per-slot grab budget reserved for unfired kill plans: enough grabs
    # to reach the threshold at any kill point (after_commits commits
    # plus the one further grab the after_grab/after_ripup points need).
    # Zeroed by on_death once the plan fires.
    armed = sharedctypes.RawArray(
        "q", [kill_by_slot[s][0] + 1 if s in kill_by_slot else 0 for s in range(n_procs)]
    )
    crash_meta = dict(planned=len(kill_plan), confirmed=[], requeued_wires=0, respawned=0)
    ready: Set[LiveWorker] = set()  #: sent "ready"
    idle: Set[LiveWorker] = set()  #: sent "idle" since its last "iter" / "resume"
    grabs: Dict[LiveWorker, int] = {}  #: grabs reported in the last "idle"

    def start(slot: int, kill: Optional[Tuple[int, str]] = None) -> None:
        fleet.start(
            _sm_worker, slot, circuit, shm.name, kill,
            order, ctrl, requeue, inflight, armed, grab_lock, commit_lock,
        )

    def send(worker: LiveWorker, message: Tuple) -> None:
        worker.conn.send(message)
        idle.discard(worker)

    def on_death(worker: LiveWorker) -> None:
        """Recover a dead worker: requeue its in-flight wire, respawn."""
        crash_meta["confirmed"].append([worker.slot, worker.incarnation])
        armed[worker.slot] = 0  # the plan fired (or died with it): unreserve
        slot2 = 2 * worker.slot
        wire = int(inflight[slot2])
        flag = int(inflight[slot2 + 1])
        if wire >= 0:
            # Push the orphaned wire back into the distributed loop; the
            # flag says whether its old path already left the array.
            with grab_lock:
                pos = int(ctrl[_REQ_N])
                requeue[2 * pos] = wire
                requeue[2 * pos + 1] = flag
                ctrl[_REQ_N] = pos + 1
            inflight[slot2] = -1
            inflight[slot2 + 1] = 0
            crash_meta["requeued_wires"] += 1
        if respawn:
            # A respawned worker never re-arms the kill switch, so the
            # stress plan terminates.
            crash_meta["respawned"] += 1
            start(worker.slot)
        # Idle survivors must wake up to absorb the requeued work.
        for other in fleet.live:
            if other in idle:
                send(other, ("resume",))

    def pump_events(current_prev) -> None:
        """Service one round of worker messages and death notices.

        ``current_prev`` is the in-progress iteration's ``(iteration,
        prev_paths)`` payload, handed to workers that become ready
        mid-iteration (respawns); ``None`` during the startup handshake,
        when the main loop will send the first ``iter`` itself.
        """
        for worker, msg in fleet.wait():
            if msg is None:
                on_death(worker)
            elif msg[0] == "ready":
                ready.add(worker)
                if current_prev is not None:
                    send(worker, ("iter",) + current_prev)
            elif msg[0] == "idle":
                idle.add(worker)
                grabs[worker] = msg[1]
            else:
                raise SimulationError(f"worker {worker.slot} sent {msg[0]!r}")

    def committed_this_iteration(iteration: int) -> Dict[int, np.ndarray]:
        """Wire -> cells committed in *iteration*, from the durable logs.

        Only called when no worker is mid-write (all live workers idle,
        dead ones dead), so the logs are quiescent.
        """
        cells: Dict[int, np.ndarray] = {}
        for rec in read_logs(fleet.log_paths):
            if rec.kind == COMMIT and rec.iteration == iteration:
                if rec.wire in cells:
                    raise SimulationError(
                        f"wire {rec.wire} committed twice in iteration "
                        f"{iteration} — requeue accounting bug"
                    )
                cells[rec.wire] = rec.cells
        return cells

    def check_segment(ledger: GroundTruthLedger) -> None:
        # Imported here: every worker process imports this module, none needs it.
        from ...verify.invariants import first_differing_cell

        diff = first_differing_cell(final_data, ledger.truth.data)
        where = {} if diff is None else dict(cell=diff[:2], expected=diff[2], actual=diff[3])
        ledger.report.check(
            "replay-shared-segment",
            diff is None,
            "the replayed truth differs from the final shared segment",
            **where,
        )

    committed: Dict[int, np.ndarray] = {}
    shm = shared_memory.SharedMemory(
        create=True, size=circuit.n_channels * circuit.n_grids * 4
    )
    try:
        with fleet:
            for slot in range(n_procs):
                start(slot, kill_by_slot.get(slot))

            # Handshake before the clock starts: process startup (fork vs
            # spawn, interpreter boot) is setup cost, not routing time.
            while not ready.issuperset(fleet.live):
                pump_events(None)

            routing_t0 = time.perf_counter()
            for iteration in range(iterations):
                ctrl[_NEXT] = 0
                ctrl[_REQ_N] = 0
                prev_payload = (iteration, sorted(committed.items()))
                for worker in fleet.live:
                    if worker in ready:
                        send(worker, ("iter",) + prev_payload)
                while True:
                    live = fleet.live
                    if live and idle.issuperset(live):
                        iter_commits = committed_this_iteration(iteration)
                        if len(iter_commits) == n_wires:
                            committed = iter_commits
                            break
                        if int(ctrl[_REQ_N]) > 0 or int(ctrl[_NEXT]) < n_wires:
                            for worker in live:
                                send(worker, ("resume",))
                            continue
                        raise SimulationError(
                            f"iteration {iteration} stalled with "
                            f"{n_wires - len(iter_commits)} wires uncommitted "
                            "and an empty loop — in-flight recovery failed"
                        )
                    pump_events(prev_payload)
            routing_wall = time.perf_counter() - routing_t0

            fleet.dismiss(("stop",))
            final_data = np.ndarray(
                (circuit.n_channels, circuit.n_grids), dtype=np.int32, buffer=shm.buf
            ).copy()
            slots = [{"grabs": 0} for _ in range(n_procs)]
            for worker, n in grabs.items():
                slots[worker.slot]["grabs"] += n
            result = fleet.finish(routing_wall, slots, {"order_seed": seed}, check_segment)
    finally:
        shm.close()
        shm.unlink()
        # Under spawn each lock is a named semaphore in /dev/shm that lasts
        # as long as the lock object, and an aborted run's traceback keeps
        # this frame alive.
        del grab_lock, commit_lock

    commits = sum(summary.wires_routed for summary in result.node_summaries)
    # Nothing a dead worker committed is ever dropped (durable logs), so
    # the only crash casualties are in-flight routes, which are re-run via
    # the requeue.  Asserted by the stress tests.
    result.meta["crash"] = dict(
        crash_meta,
        crash_dropped_commits=n_wires * iterations - commits,
        crash_dropped_inflight=crash_meta["requeued_wires"],
    )
    obs.incr("live.sm.commits", commits)
    obs.incr("live.sm.requeued_wires", crash_meta["requeued_wires"])
    return result
