"""The live shared-memory LocusRoute: real worker processes, one real grid.

This is the real-core twin of :func:`repro.parallel.sm_sim.run_shared_memory`
(which replays the design in virtual time through a Tango-style trace).
Here the paper's §3 architecture actually executes:

- the cost array lives in one ``multiprocessing.shared_memory`` segment;
  every worker process wraps the same buffer with
  :meth:`CostArray.wrap <repro.grid.cost_array.CostArray.wrap>`;
- wires are self-scheduled from a **distributed loop** — a shared counter
  advanced under a short grab lock, mirroring the
  :class:`~repro.assign.distributed_loop.DistributedLoop` API (grab /
  push-back / reset) across process boundaries;
- candidate evaluation reads the shared array **without any lock**: a
  worker sees whatever mix of committed and in-flight wires happens to be
  in memory, exactly the stale-read tolerance the paper relies on ("the
  processors do not know about the work other processors are doing
  simultaneously", §1);
- the two *writes* per wire (rip-up, commit) each happen inside a short
  commit-lock critical section that also takes a global sequence ticket
  and appends a durable record to the worker's commit log.  Serialised
  writes cost a little concurrency but buy the property the verifier
  needs: replaying the logs in ticket order reproduces the final shared
  array **bit-exactly** (racing unlocked ``+=`` scatter-adds would lose
  updates and break both replay and the non-negativity canary).

Crash tolerance (the PR 6 fail-stop model, now with real SIGKILLs): the
parent watches every worker's process sentinel.  When a worker dies, its
in-flight wire — published in a shared ``inflight`` slot at grab time,
with an "old path already ripped" flag maintained under the commit lock —
is pushed back into the loop's requeue for the next idle survivor, and
the slot can be respawned with a fresh log incarnation.  Because log
appends are unbuffered single writes performed inside the commit
critical section, a SIGKILLed worker's completed commits are never lost
and never half-applied (kills happen at safe points between critical
sections; a worker dying *inside* a lock would hang the run, which the
parent converts into an error via ``timeout_s``).

After the run the logs replay into the ground-truth ledger the simulators
use (:func:`~repro.parallel.live.commitlog.replay_records`), so one ledger
judges all four engines: the :class:`~repro.parallel.results.ParallelRunResult`
takes truth, paths and quality from it, and the replayed array must equal
the shared segment bit for bit (``replay-shared-segment``).
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import shared_memory, sharedctypes
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...circuits.model import Circuit
from ...errors import SimulationError
from ...grid.cost_array import CostArray
from ...kernels import active_kernels, set_kernels
from ...obs import telemetry as obs
from ...route.twobend import route_wire
from ..results import ParallelRunResult
from .commitlog import (
    COMMIT,
    RIPUP,
    CommitLogWriter,
    live_result,
    read_logs,
    replay_records,
)

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


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker needs, picklable for the spawn start method."""

    circuit: Circuit
    slot: int
    incarnation: int
    n_workers: int
    shm_name: str
    log_path: str
    kernel_mode: str
    kill: Optional[Tuple[int, str]]  #: (after_commits, point) or None


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


def _sm_worker(
    cfg: _WorkerConfig,
    conn,
    order,
    ctrl,
    requeue,
    inflight,
    armed,
    grab_lock,
    commit_lock,
) -> None:
    """Worker process body (module-level: picklable under spawn)."""
    set_kernels(cfg.kernel_mode)
    shm, data = _attach_shared_array(
        cfg.shm_name, (cfg.circuit.n_channels, cfg.circuit.n_grids)
    )
    view = CostArray.wrap(data)
    log = CommitLogWriter(cfg.log_path, cfg.slot)
    circuit = cfg.circuit
    n_wires = circuit.n_wires
    slot2 = 2 * cfg.slot
    stats = {"grabs": 0, "commits": 0, "ripups": 0, "cells_written": 0}
    commits_done = 0

    kill_after, kill_point = cfg.kill if cfg.kill is not None else (-1, "")

    def maybe_kill(point: str) -> None:
        if kill_after >= 0 and point == kill_point and commits_done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def grab() -> Optional[Tuple[int, bool]]:
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
        with grab_lock:
            req_n = ctrl[_REQ_N]
            if req_n > 0:
                ctrl[_REQ_N] = req_n - 1
                wire = int(requeue[2 * (req_n - 1)])
                skip_ripup = bool(requeue[2 * (req_n - 1) + 1])
                if armed[cfg.slot] > 0:
                    armed[cfg.slot] -= 1
                inflight[slot2] = wire
                inflight[slot2 + 1] = 1 if skip_ripup else 0
                return wire, skip_ripup
            pos = ctrl[_NEXT]
            if pos >= n_wires:
                return None
            if armed[cfg.slot] > 0:
                armed[cfg.slot] -= 1
            elif n_wires - pos <= sum(armed):
                return None
            ctrl[_NEXT] = pos + 1
            wire = int(order[pos])
            inflight[slot2] = wire
            inflight[slot2 + 1] = 0
            return wire, False

    def route_one(iteration: int, prev_cells: Dict[int, np.ndarray]) -> bool:
        nonlocal commits_done
        got = grab()
        if got is None:
            return False
        wire_idx, skip_ripup = got
        stats["grabs"] += 1
        maybe_kill("after_grab")

        old = None if skip_ripup else prev_cells.get(wire_idx)
        if old is not None:
            # Rip-up is visible to everyone immediately (paper §3): the
            # wire's old path leaves the shared array before re-routing.
            with commit_lock:
                seq = ctrl[_SEQ]
                ctrl[_SEQ] = seq + 1
                view.remove_path(old, strict=True)
                log.append(RIPUP, iteration, wire_idx, seq, old)
                inflight[slot2 + 1] = 1
            stats["ripups"] += 1
            stats["cells_written"] += int(old.size)
        else:
            # Nothing to rip (first iteration, or a previous owner of
            # this requeued wire already did it): an adopter after a
            # crash here must not rip either.
            inflight[slot2 + 1] = 1
        maybe_kill("after_ripup")

        # Lock-free evaluation against whatever the shared array holds
        # right now — concurrent in-flight wires are simply not seen.
        result = route_wire(view, circuit.wire(wire_idx), tie_break=iteration % 2)
        cells = result.path.flat_cells

        with commit_lock:
            seq = ctrl[_SEQ]
            ctrl[_SEQ] = seq + 1
            price = view.path_cost(cells)
            view.apply_path(cells)
            log.append(COMMIT, iteration, wire_idx, seq, cells, price)
            inflight[slot2] = -1
            inflight[slot2 + 1] = 0
        stats["commits"] += 1
        stats["cells_written"] += int(cells.size)
        commits_done += 1
        maybe_kill("after_commit")
        return True

    try:
        conn.send(("ready", cfg.slot, cfg.incarnation))
        iteration = 0
        prev_cells: Dict[int, np.ndarray] = {}
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            if msg[0] == "iter":
                iteration = msg[1]
                prev_cells = dict(msg[2])
            # "resume" keeps the current iteration: the parent requeued a
            # dead worker's wire after this worker went idle.
            while route_one(iteration, prev_cells):
                pass
            conn.send(("idle", iteration, dict(stats)))
    finally:
        log.close()
        shm.close()


class _Handle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, slot, incarnation, proc, conn, log_path):
        self.slot = slot
        self.incarnation = incarnation
        self.proc = proc
        self.conn = conn
        self.log_path = log_path
        self.ready = False
        self.idle = False
        self.dead = False
        self.last_stats: Dict[str, int] = {}


def run_live_shared_memory(
    circuit: Circuit,
    n_procs: int = 2,
    iterations: int = 3,
    seed: Optional[int] = None,
    kernel_mode: Optional[str] = None,
    start_method: Optional[str] = None,
    kill_plan: Sequence[KillPlanEntry] = (),
    respawn: bool = True,
    timeout_s: float = 120.0,
    keep_logs_dir: Optional[str] = None,
) -> ParallelRunResult:
    """Route *circuit* on real cores with the shared-memory design.

    Parameters
    ----------
    circuit, n_procs, iterations:
        As for the simulator; ``n_procs`` here is real worker processes.
    seed:
        ``None`` keeps the natural wire order (matching the simulator's
        distributed loop); an int shuffles it deterministically.
    kernel_mode:
        Routing kernels for the workers (defaults to the caller's
        :func:`~repro.kernels.active_kernels` — explicitly forwarded
        because spawn-started children do not inherit the global).
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
    keep_logs_dir:
        Write commit logs into this directory (kept) instead of a
        temporary one (deleted after replay).
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if n_procs < 1:
        raise SimulationError("need at least one worker process")
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    kill_plan = tuple(kill_plan)
    bad = [k.slot for k in kill_plan if not (0 <= k.slot < n_procs)]
    if bad:
        raise SimulationError(f"kill plan names unknown worker slots {bad}")
    if len({k.slot for k in kill_plan}) != len(kill_plan):
        raise SimulationError("kill plan names a worker slot twice")
    if len(kill_plan) >= n_procs and not respawn:
        raise SimulationError("at least one worker must survive the kill plan")
    kernel_mode = kernel_mode or active_kernels()

    from ...harness.pool import mp_context

    ctx = mp_context(start_method)
    n_wires = circuit.n_wires
    order_list = list(range(n_wires))
    if seed is not None:
        order_list = [int(w) for w in np.random.default_rng(seed).permutation(n_wires)]

    shm = shared_memory.SharedMemory(
        create=True, size=circuit.n_channels * circuit.n_grids * 4
    )
    final_data: Optional[np.ndarray] = None
    tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if keep_logs_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="locusroute-live-")
        log_dir = tmpdir.name
    else:
        os.makedirs(keep_logs_dir, exist_ok=True)
        log_dir = keep_logs_dir

    # Shared state: wire order, control words, requeue stack and per-slot
    # inflight pairs.  RawArrays ride to spawn children via fd-backed
    # arenas; the locks must come from the chosen context.
    order = sharedctypes.RawArray("q", order_list)
    ctrl = sharedctypes.RawArray("q", _CTRL_WORDS)
    requeue = sharedctypes.RawArray("q", max(2, 2 * n_wires))
    inflight = sharedctypes.RawArray("q", [-1, 0] * n_procs)
    grab_lock = ctx.Lock()
    commit_lock = ctx.Lock()

    kill_by_slot = {k.slot: (k.after_commits, k.point) for k in kill_plan}
    # Per-slot grab budget reserved for unfired kill plans: enough grabs
    # to reach the threshold at any kill point (after_commits commits
    # plus the one further grab the after_grab/after_ripup points need).
    # Zeroed by on_death once the plan fires.
    armed = sharedctypes.RawArray(
        "q",
        [
            kill_by_slot[s][0] + 1 if s in kill_by_slot else 0
            for s in range(n_procs)
        ],
    )
    handles: List[_Handle] = []
    all_log_paths: List[str] = []
    crash_meta = {
        "planned": len(kill_plan),
        "confirmed": [],
        "requeued_wires": 0,
        "respawned": 0,
    }

    def spawn_worker(slot: int, incarnation: int) -> _Handle:
        log_path = os.path.join(log_dir, f"worker{slot}_{incarnation}.log")
        all_log_paths.append(log_path)
        cfg = _WorkerConfig(
            circuit=circuit,
            slot=slot,
            incarnation=incarnation,
            n_workers=n_procs,
            shm_name=shm.name,
            log_path=log_path,
            kernel_mode=kernel_mode,
            # A respawned worker never re-arms the kill switch, so the
            # stress plan terminates.
            kill=kill_by_slot.get(slot) if incarnation == 0 else None,
        )
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_sm_worker,
            args=(
                cfg,
                child_conn,
                order,
                ctrl,
                requeue,
                inflight,
                armed,
                grab_lock,
                commit_lock,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = _Handle(slot, incarnation, proc, parent_conn, log_path)
        handles.append(handle)
        return handle

    def live_handles() -> List[_Handle]:
        return [h for h in handles if not h.dead]

    deadline = time.monotonic() + timeout_s

    def check_deadline() -> None:
        if time.monotonic() > deadline:
            raise SimulationError(
                f"live shared-memory run exceeded {timeout_s}s — a worker "
                "likely died inside a critical section or deadlocked"
            )

    def on_death(handle: _Handle) -> None:
        """Recover a dead worker: requeue its in-flight wire, respawn."""
        if handle.dead:
            return
        handle.dead = True
        handle.conn.close()
        crash_meta["confirmed"].append([handle.slot, handle.incarnation])
        armed[handle.slot] = 0  # the plan fired (or died with it): unreserve
        slot2 = 2 * handle.slot
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
            crash_meta["respawned"] += 1
            spawn_worker(handle.slot, handle.incarnation + 1)
        # Idle survivors must wake up to absorb the requeued work.
        for other in live_handles():
            if other.ready and other.idle:
                other.conn.send(("resume",))
                other.idle = False

    def pump_events(current_prev, poll_s: float = 0.05) -> None:
        """Service one round of worker messages and death notices.

        ``current_prev`` is the in-progress iteration's ``(iteration,
        prev_paths)`` payload, handed to workers that become ready
        mid-iteration (respawns); ``None`` during the startup handshake,
        when the main loop will send the first ``iter`` itself.
        """
        check_deadline()
        live = live_handles()
        waitables: Dict[object, Tuple[str, _Handle]] = {}
        for h in live:
            waitables[h.conn] = ("conn", h)
            waitables[h.proc.sentinel] = ("sentinel", h)
        if not waitables:
            raise SimulationError("all live workers died and respawn is off")
        for obj in conn_wait(list(waitables), timeout=poll_s):
            kind, h = waitables[obj]
            if h.dead:
                continue
            if kind == "sentinel":
                on_death(h)
                continue
            try:
                msg = h.conn.recv()
            except (EOFError, OSError):
                on_death(h)
                continue
            if msg[0] == "ready":
                h.ready = True
                if current_prev is not None:
                    h.conn.send(("iter",) + current_prev)
            elif msg[0] == "idle":
                h.idle = True
                h.last_stats = msg[2]
            elif msg[0] == "fatal":  # pragma: no cover - defensive
                raise SimulationError(f"worker {h.slot} failed: {msg[1]}")

    def committed_this_iteration(iteration: int) -> Dict[int, np.ndarray]:
        """Wire -> cells committed in *iteration*, from the durable logs.

        Only called when no worker is mid-write (all live workers idle,
        dead ones dead), so the logs are quiescent.
        """
        cells: Dict[int, np.ndarray] = {}
        count = 0
        for rec in read_logs(all_log_paths):
            if rec.kind == COMMIT and rec.iteration == iteration:
                if rec.wire in cells:
                    raise SimulationError(
                        f"wire {rec.wire} committed twice in iteration "
                        f"{iteration} — requeue accounting bug"
                    )
                cells[rec.wire] = rec.cells
                count += 1
        assert count == len(cells)
        return cells

    committed: Dict[int, np.ndarray] = {}
    routing_wall = 0.0
    try:
        for slot in range(n_procs):
            spawn_worker(slot, 0)

        # Handshake before the clock starts: process startup (fork vs
        # spawn, interpreter boot) is setup cost, not routing time.
        while not live_handles() or not all(h.ready for h in live_handles()):
            pump_events(None)

        routing_t0 = time.perf_counter()
        for iteration in range(iterations):
            ctrl[_NEXT] = 0
            ctrl[_REQ_N] = 0
            prev_payload = (
                iteration,
                [(w, c) for w, c in sorted(committed.items())],
            )
            for h in live_handles():
                if h.ready:
                    h.conn.send(("iter",) + prev_payload)
                    h.idle = False
            while True:
                live = live_handles()
                if live and all(h.idle for h in live if h.ready) and all(
                    h.ready for h in live
                ):
                    iter_commits = committed_this_iteration(iteration)
                    if len(iter_commits) == n_wires:
                        committed = iter_commits
                        break
                    if int(ctrl[_REQ_N]) > 0 or int(ctrl[_NEXT]) < n_wires:
                        for h in live:
                            if h.idle:
                                h.conn.send(("resume",))
                                h.idle = False
                        continue
                    raise SimulationError(
                        f"iteration {iteration} stalled with "
                        f"{n_wires - len(iter_commits)} wires uncommitted "
                        "and an empty loop — in-flight recovery failed"
                    )
                pump_events(prev_payload)
        routing_wall = time.perf_counter() - routing_t0

        for h in live_handles():
            h.conn.send(("stop",))
        for h in live_handles():
            h.proc.join(timeout=10.0)
            if h.proc.is_alive():  # pragma: no cover - defensive
                h.proc.kill()
        final_data = np.ndarray(
            (circuit.n_channels, circuit.n_grids), dtype=np.int32, buffer=shm.buf
        ).copy()
    finally:
        for h in handles:
            if h.proc.is_alive():
                h.proc.kill()
                h.proc.join(timeout=5.0)
            try:
                h.conn.close()
            except OSError:
                pass
        shm.close()
        shm.unlink()

    records = read_logs(all_log_paths)
    if tmpdir is not None:
        tmpdir.cleanup()
    ledger = replay_records(records, circuit, iterations)
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
    commits = sum(rec.kind == COMMIT for rec in records)
    slots = [{"incarnations": 0, "grabs": 0} for _ in range(n_procs)]
    for h in handles:
        slots[h.slot]["incarnations"] += 1
        slots[h.slot]["grabs"] += int(h.last_stats.get("grabs", 0))
    meta: Dict[str, object] = {
        "circuit": circuit.name,
        "n_procs": n_procs,
        "iterations": iterations,
        "start_method": ctx.get_start_method(),
        "kernel_mode": kernel_mode,
        "order_seed": seed,
        # Nothing a dead worker committed is ever dropped (durable logs),
        # so the only crash casualties are in-flight routes, which are
        # re-run via the requeue.  Asserted by the stress tests.
        "crash": dict(
            crash_meta,
            crash_dropped_commits=n_wires * iterations - commits,
            crash_dropped_inflight=crash_meta["requeued_wires"],
        ),
    }
    result = live_result(
        "shared_memory_live", ledger, records, routing_wall, slots, meta
    )

    wall = time.perf_counter() - wall0
    meta["wall_s"] = wall
    obs.record_span("live.sm", wall, time.process_time() - cpu0)
    obs.incr("live.sm.runs")
    obs.incr("live.sm.commits", commits)
    obs.incr("live.sm.requeued_wires", crash_meta["requeued_wires"])
    if not meta["verification"]["ok"]:
        obs.incr("live.sm.replay_failures")
    return result
