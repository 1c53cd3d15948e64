"""The five workloads: inputs built from the seed, one pass = a list of slots.

A *slot* is one call of a public entry point (one simulator run, one
routing, one service job) and is the unit that is timed.  A *pass* runs
every slot once, in order; the timed window repeats passes.  Every slot
returns an :class:`Outcome` whose ``stats`` are simulated (exact,
host-independent) quantities: they must repeat bit for bit on every pass
and their hash is the workload's ``sim_digest``.

Each slot gets its own circuit seed.  One bnrE-like circuit's routing
work varies by about 12% (inter-quartile) from seed to seed; a pass over
a dozen independent circuits varies by about 4%, so a run is comparable
across seeds without pinning the circuits.

The program under test receives only what is built here (circuits,
schedules, fault plans, job parameters); nothing is passed a workload's
name.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    RegionMap,
    SequentialRouter,
    ThresholdCostAssigner,
    UpdateSchedule,
    bnre_like,
    mdc_like,
    run_message_passing,
    run_shared_memory,
)
from repro.circuits.generate import generate_scaled
from repro.faults import FaultPlan, random_crashes
from repro.kernels import use_kernels
from repro.obs import telemetry as obs
from repro.service import ServiceClient, serve

import measure

__all__ = ["WORKLOADS", "Outcome", "Slot", "Workload", "build"]

ITERATIONS = 3
#: Simulated makespan of a fault-free bnrE-like run at 16 processors
#: (measured 1.8-2.6 s over the schedules used); crash times are placed
#: at fractions of it so that every crash lands inside the run.
NOMINAL_EXEC_TIME_S = 2.0
#: Wires of the scaled circuit compared against the ``reference`` kernels.
REFERENCE_PREFIX_WIRES = 2000

#: obs counters read as a delta around every slot -> per-layer count name.
OBS_COUNTS = {
    "sim.events": "events.events",
    "sim.mp.runs": "parallel.sim_runs",
    "sim.sm.runs": "parallel.sim_runs",
    "sim.mp.messages_sent": "netsim.messages",
    "sim.sm.trace_references": "memsim.refs",
    "sim.mp.faults.send_attempts": "faults.send_attempts",
    "sim.mp.faults.dropped": "faults.dropped",
    "sim.mp.faults.retries_sent": "faults.retries_sent",
    "sim.mp.faults.requests_abandoned": "faults.requests_abandoned",
    "cache.sim.hits": "harness.cache_hits",
    "cache.experiment.hits": "harness.cache_hits",
    "cache.sim.misses": "harness.cache_misses",
    "cache.experiment.misses": "harness.cache_misses",
    "service.jobs.executed": "service.executed",
    "service.jobs.repo_hits": "service.repo_hits",
    "service.jobs.dedup_hits": "service.dedup_hits",
}


@dataclass
class Outcome:
    """What one slot produced."""

    stats: object  #: simulated statistics, identical on every pass
    wires: int  #: wire-routings delivered (wires x iterations)
    counts: Dict[str, float] = field(default_factory=dict)  #: exact per-layer work
    problems: List[str] = field(default_factory=list)  #: failed checks: a failed operation
    klass: str = "run"  #: service job class: new / repeat / force


@dataclass
class Slot:
    name: str
    run: Callable[[bool], Outcome]  #: run(check) -> Outcome


@dataclass
class Workload:
    name: str
    slots: List[Slot]
    begin_pass: Callable[[], None] = lambda: None
    end_pass: Callable[[], None] = lambda: None
    close: Callable[[], None] = lambda: None


def _seeds(seed: int, stream: int, n: int) -> List[int]:
    """*n* independent 31-bit seeds for one workload's slots."""
    state = np.random.SeedSequence([seed, stream]).generate_state(n)
    return [int(s) & 0x7FFFFFFF for s in state]


def obs_counters() -> Dict[str, float]:
    return dict(obs.get_telemetry().counters)


def obs_delta(before: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counts from the obs counters that moved since *before*."""
    out: Dict[str, float] = {}
    for name, value in obs.get_telemetry().counters.items():
        layer_name = OBS_COUNTS.get(name)
        moved = value - before.get(name, 0)
        if layer_name is not None and moved:
            out[layer_name] = out.get(layer_name, 0) + moved
    return out


# ----------------------------------------------------------------------
# simulator slots
# ----------------------------------------------------------------------
def _violations(result) -> int:
    report = result.meta.get("verification")
    return int(report["total_violations"]) if report else 0


def _sim_outcome(result, circuit, iterations: int) -> Outcome:
    """Stats and exact counts of one direct simulator run."""
    quality = result.quality
    by_line = result.meta.get("coherence_by_line_size") or {}
    bus_bytes = sum(int(s["total_bytes"]) for s in by_line.values())
    net = result.network
    stats = [
        quality.circuit_height,
        quality.occupancy_factor,
        quality.total_wire_cells,
        net.total_bytes if net is not None else bus_bytes,
        result.exec_time_s,
        net.n_messages if net is not None else 0,
        int(result.meta.get("trace_references", 0)),
    ]
    counts: Dict[str, float] = {
        "route.wires_routed": circuit.n_wires * iterations,
        "route.work_cells": sum(s.route_units for s in result.node_summaries),
        "parallel.sim_exec_time_s": result.exec_time_s,
        "parallel.blocked_sim_s": sum(s.blocked_time_s for s in result.node_summaries),
    }
    if net is not None:
        counts["updates.packets"] = sum(s.messages_sent for s in result.node_summaries)
        counts["updates.bytes"] = net.total_bytes
        counts["netsim.hop_bytes"] = net.total_hop_bytes
    else:
        counts["memsim.bus_bytes"] = bus_bytes
    faults = result.meta.get("faults")
    if faults is not None:
        counts["faults.crashes"] = faults["injected"]["nodes_crashed"]
    return Outcome(stats=stats, wires=circuit.n_wires * iterations, counts=counts)


def _mp_slot(name: str, circuit, schedule, n_procs: int, faults=None) -> Slot:
    def run(check: bool) -> Outcome:
        result = run_message_passing(
            circuit,
            schedule,
            n_procs=n_procs,
            iterations=ITERATIONS,
            faults=faults,
            check_invariants=check,
        )
        outcome = _sim_outcome(result, circuit, ITERATIONS)
        if check and _violations(result):
            outcome.problems.append(f"{name}: {_violations(result)} invariant violations")
        return outcome

    return Slot(name, run)


def _sm_slot(
    name: str,
    circuit,
    n_procs: int,
    *,
    threshold: Optional[float] = None,
    invariants: bool = False,
    **kwargs,
) -> Slot:
    def simulate(**extra):
        assignment = None
        if threshold is not None:
            regions = RegionMap(circuit.n_channels, circuit.n_grids, n_procs)
            assignment = ThresholdCostAssigner(circuit, regions, threshold).assign()
        return run_shared_memory(
            circuit, n_procs=n_procs, iterations=ITERATIONS, assignment=assignment, **extra
        )

    def run(check: bool) -> Outcome:
        result = simulate(**kwargs)
        outcome = _sim_outcome(result, circuit, ITERATIONS)
        if check and invariants:
            # The per-access MSI checker replays every reference through
            # the scalar state machine (4.5 s with five line sizes), so the
            # checked run keeps the default line size only and must agree
            # with the timed run on everything that does not depend on it.
            checked_kwargs = {k: v for k, v in kwargs.items() if k != "extra_line_sizes"}
            checked = simulate(check_invariants=True, **checked_kwargs)
            same = (
                checked.quality == result.quality
                and checked.exec_time_s == result.exec_time_s
                and checked.coherence.total_bytes == result.coherence.total_bytes
            )
            if _violations(checked) or not same:
                outcome.problems.append(
                    f"{name}: {_violations(checked)} invariant violations, "
                    f"checked run {'matches' if same else 'differs from'} the timed run"
                )
        return outcome

    return Slot(name, run)


def build_mp_sweep(seed: int, smoke: bool, work_dir: str) -> Workload:
    S = UpdateSchedule
    bnre_schedules = [
        ("sender(2,10)", S.sender_initiated(2, 10)),
        ("receiver(1,5)", S.receiver_initiated(1, 5)),
        ("mixed", S.mixed_example()),
        ("sender(10,50)", S.sender_initiated(10, 50)),
        ("receiver(1,5)blocking", S.receiver_initiated(1, 5, blocking=True)),
    ]
    mdc_procs = [64, 4]
    if smoke:
        bnre_schedules, mdc_procs = bnre_schedules[:2], mdc_procs[:1]
    seeds = _seeds(seed, 1, len(bnre_schedules) + len(mdc_procs))
    slots = [
        _mp_slot(f"bnrE/16/{label}", bnre_like(seeds[i]), schedule, 16)
        for i, (label, schedule) in enumerate(bnre_schedules)
    ]
    for j, procs in enumerate(mdc_procs):
        circuit = mdc_like(seeds[len(bnre_schedules) + j])
        slots.append(_mp_slot(f"MDC/{procs}/sender(2,10)", circuit, S.sender_initiated(2, 10), procs))
    return Workload("mp_sweep", slots)


def build_mp_faults(seed: int, smoke: bool, work_dir: str) -> Workload:
    S = UpdateSchedule
    mixed = ("mixed", S.mixed_example())
    blocking = ("receiver(1,5)blocking", S.receiver_initiated(1, 5, blocking=True))
    sender = ("sender(2,10)", S.sender_initiated(2, 10))
    fault_seed = _seeds(seed, 20, 1)[0]
    t = NOMINAL_EXEC_TIME_S
    lossy = FaultPlan(
        seed=fault_seed, drop_prob=0.05, duplicate_prob=0.02, delay_prob=0.05, reorder_prob=0.05
    )
    drop20 = FaultPlan(seed=fault_seed, drop_prob=0.2)
    crash2 = FaultPlan(seed=fault_seed, node_crashes=random_crashes(16, 2, 0.3 * t, fault_seed))
    drop_crash4 = FaultPlan(
        seed=fault_seed, drop_prob=0.1, node_crashes=random_crashes(16, 4, 0.5 * t, fault_seed)
    )
    pairs = [
        ("lossy", lossy, mixed),
        ("drop20", drop20, blocking),
        ("crash2", crash2, mixed),
        ("drop10+crash4", drop_crash4, blocking),
        ("drop20", drop20, sender),
        ("crash2", crash2, sender),
    ]
    if smoke:
        pairs = pairs[1:4]
    seeds = _seeds(seed, 2, len(pairs))
    slots = [
        _mp_slot(f"bnrE/16/{plan_name}/{label}", bnre_like(seeds[i]), schedule, 16, faults=plan)
        for i, (plan_name, plan, (label, schedule)) in enumerate(pairs)
    ]
    return Workload("mp_faults", slots)


def build_sm_sweep(seed: int, smoke: bool, work_dir: str) -> Workload:
    seeds = _seeds(seed, 3, 5)
    slots = [
        _sm_slot(
            "bnrE/16/loop/lines(4,8,16,32,64)",
            bnre_like(seeds[0]),
            16,
            invariants=True,
            extra_line_sizes=(4, 16, 32, 64),
        ),
        _sm_slot("bnrE/4/threshold1000", bnre_like(seeds[1]), 4, threshold=1000.0, invariants=True),
        _sm_slot("MDC/4/loop", mdc_like(seeds[2]), 4),
        _sm_slot("bnrE/16/threshold1000", bnre_like(seeds[3]), 16, threshold=1000.0),
        _sm_slot("bnrE/16/loop/update", bnre_like(seeds[4]), 16, protocol="update"),
    ]
    if smoke:
        slots = slots[:2]
    return Workload("sm_sweep", slots)


# ----------------------------------------------------------------------
# scaled sequential routing
# ----------------------------------------------------------------------
def build_route_scaled(seed: int, smoke: bool, work_dir: str) -> Workload:
    n_wires = 3000 if smoke else 15000
    iterations = 2
    circuit_seed = _seeds(seed, 4, 1)[0]

    def run(check: bool) -> Outcome:
        # Generated inside the slot: per-wire geometry and wave plans are
        # cached on the circuit's wires, so a fresh circuit is what makes
        # every pass pay them, as a `locusroute route --name scaled` does.
        circuit = generate_scaled(n_wires, seed=circuit_seed)
        result = SequentialRouter(circuit, iterations).run()
        quality = result.quality
        outcome = Outcome(
            stats=[
                quality.circuit_height,
                quality.occupancy_factor,
                quality.total_wire_cells,
                result.work_cells,
                list(result.per_iteration_height),
            ],
            wires=n_wires * iterations,
            counts={
                "route.wires_routed": n_wires * iterations,
                "route.work_cells": result.work_cells,
            },
        )
        path_cells = sum(p.n_cells for p in result.paths.values())
        if len(result.paths) != n_wires or path_cells != quality.total_wire_cells:
            outcome.problems.append(
                f"routed {len(result.paths)}/{n_wires} wires, paths hold {path_cells} "
                f"cells, array holds {quality.total_wire_cells}"
            )
        if check:
            prefix = circuit.with_wires(circuit.wires[: min(REFERENCE_PREFIX_WIRES, n_wires)])
            fast = SequentialRouter(prefix, iterations).run()
            with use_kernels("reference"):
                slow = SequentialRouter(prefix, iterations).run()
            same = (
                fast.quality == slow.quality
                and fast.work_cells == slow.work_cells
                and all(
                    np.array_equal(fast.paths[i].flat_cells, slow.paths[i].flat_cells)
                    for i in range(prefix.n_wires)
                )
            )
            if not same:
                outcome.problems.append("vectorized and reference kernels disagree on the prefix circuit")
        return outcome

    return Workload("route_scaled", [Slot(f"scaled/{n_wires}", run)])


# ----------------------------------------------------------------------
# service mix
# ----------------------------------------------------------------------
def _job_list(seed: int, n_jobs: int) -> List[Tuple[str, str, dict, int]]:
    """(class, kind, params, fingerprint id) in submission order.

    Exact class shares — 25% new, 60% repeat, 15% force — and an evenly
    spread ``n_wires`` ladder, shuffled by the seed: the mix is the same
    for every seed, only the order and the pairing change, so passes of
    different seeds do the same amount of work.
    """
    rng = np.random.default_rng([seed, 5])
    n_new = max(3, n_jobs // 4)
    n_force = max(1, (n_jobs * 15) // 100)
    classes = ["new"] * (n_new - 1) + ["repeat"] * (n_jobs - n_new - n_force) + ["force"] * n_force
    rng.shuffle(classes)
    classes = ["new"] + classes  # a repeat needs something to repeat
    wires = np.linspace(40, 99, n_new).round().astype(int)
    rng.shuffle(wires)
    kinds = ["route", "mp", "sm"]
    specs: List[Tuple[str, dict]] = []
    for i in range(n_new):
        kind = kinds[i % 3]
        params = {
            "which": "bnrE" if int(rng.integers(2)) else "MDC",
            "n_wires": int(wires[i]),
            "iterations": 2,
        }
        if kind != "route":
            params["n_procs"] = 4
        if kind == "mp":
            params.update(send_rmt=2, send_loc=10)
        if kind == "sm":
            params["line_size"] = int(rng.choice([4, 8, 16, 32]))
        specs.append((kind, params))
    jobs = []
    seen = 0
    forced = 0
    for klass in classes:
        if klass == "new":
            fid = seen
            seen += 1
        elif klass == "force":
            # Forced jobs cycle through the kinds: a forced `route` runs
            # again (~40 ms) while a forced `mp`/`sm` is answered by the file
            # cache (~5 ms), so a free draw would move their median by the
            # seed's luck alone.
            wanted = [f for f in range(seen) if f % 3 == forced % 3]
            fid = int(rng.choice(wanted)) if wanted else int(rng.integers(seen))
            forced += 1
        else:
            fid = int(rng.integers(seen))
        kind, params = specs[fid]
        jobs.append((klass, kind, params, fid))
    return jobs


class _Service:
    """One in-process daemon on a fresh database and cache directory."""

    def __init__(self, root: str) -> None:
        self.dir = tempfile.mkdtemp(prefix="svc-", dir=root)
        self.server = serve(
            port=0,
            db=os.path.join(self.dir, "service.sqlite"),
            cache_dir=os.path.join(self.dir, "cache"),
            jobs=1,
        )
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.server_address[1]}")
        self.client.wait_healthy(timeout_s=30.0, poll_s=0.01)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=30.0)
        self.server.service.stop()
        self.server.service.repository.close()
        self.server.server_close()
        shutil.rmtree(self.dir, ignore_errors=True)


def build_service_mix(seed: int, smoke: bool, work_dir: str) -> Workload:
    jobs = _job_list(seed, 24 if smoke else 150)
    root = tempfile.mkdtemp(prefix="service-", dir=work_dir)
    state: Dict[str, object] = {"service": _Service(root), "first": {}}

    def begin_pass() -> None:
        # Every pass meets an empty repository and cache, so every pass
        # does the same executions, repository hits and overwrites.
        if state["service"] is None:
            state["service"] = _Service(root)
        state["first"] = {}

    def end_pass() -> None:
        if state["service"] is not None:
            state["service"].close()
            state["service"] = None

    def close() -> None:
        end_pass()
        shutil.rmtree(root, ignore_errors=True)

    def make(index: int, klass: str, kind: str, params: dict, fid: int) -> Slot:
        def run(check: bool) -> Outcome:
            client: ServiceClient = state["service"].client
            record = client.submit(kind, params, force=klass == "force")
            if record["status"] != "done":
                record = client.wait(record["job_id"], timeout_s=120.0, poll_s=0.002)
            payload = client.result(record["job_id"])["payload"] if record["status"] == "done" else None
            # Only a new fingerprint delivers wire-routings nobody had yet.
            wires = int(params["n_wires"]) * int(params["iterations"]) if klass == "new" else 0
            outcome = Outcome(stats=[fid, measure.digest(payload)], wires=wires, klass=klass)
            first = state["first"].setdefault(fid, payload)
            if record["status"] != "done":
                outcome.problems.append(f"job {index} ({kind}) ended {record['status']}: {record.get('error')}")
            elif payload != first:
                outcome.problems.append(f"job {index} ({klass} {kind}) payload differs from the first for its fingerprint")
            return outcome

        return Slot(f"{index}/{klass}/{kind}", run)

    slots = [make(i, *job) for i, job in enumerate(jobs)]
    return Workload("service_mix", slots, begin_pass=begin_pass, end_pass=end_pass, close=close)


#: name -> builder(seed, smoke, work_dir); *work_dir* is where a workload
#: may keep files (the service's databases) and lies inside the checkout.
WORKLOADS: Dict[str, Callable[[int, bool, str], Workload]] = {
    "mp_sweep": build_mp_sweep,
    "mp_faults": build_mp_faults,
    "sm_sweep": build_sm_sweep,
    "route_scaled": build_route_scaled,
    "service_mix": build_service_mix,
}


def build(name: str, seed: int, smoke: bool, work_dir: str) -> Workload:
    return WORKLOADS[name](seed, smoke, work_dir)
