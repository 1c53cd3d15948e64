"""Span tracer for the per-layer run: wraps layer functions from outside.

Nothing under ``src/`` knows about this file.  Each seam in :data:`SEAMS`
names a *consumer binding* — the module attribute (or class attribute)
through which callers reach a layer function, e.g.
``repro.parallel.node.route_wire`` and not only
``repro.route.twobend.route_wire`` — and :meth:`Tracer.install` replaces
that binding with a wrapper that records one span per call.  A span is
``(bucket, start, end, parent span, run id)``; spans stay in memory and
:meth:`Tracer.dump` writes them out at exit.

A bucket's **self time** is the sum of its spans' durations minus the
durations of their direct child spans, so the self times of one thread's
span tree add up to the durations of its root spans.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SEAMS", "LAYERS", "Tracer", "SlotTrace", "resolve", "layer_metrics", "layer_calls"]

#: The layers, named after the packages under ``src/repro/``.
LAYERS = (
    "circuits",
    "assign",
    "route",
    "grid",
    "updates",
    "netsim",
    "events",
    "parallel",
    "memsim",
    "faults",
    "harness",
    "service",
)


def _n_cells(args: tuple, kwargs: dict) -> int:
    """``CostArray.apply_path(self, flat_cells, ...)`` -> cells touched."""
    return int(args[1].size)


def _n_wires_arg(args: tuple, kwargs: dict) -> int:
    """``generate_scaled(n)`` / ``bnre_like(n_wires=n)`` -> wires generated."""
    if args:
        return int(args[0] or 0)
    return int(kwargs.get("n_wires") or 0)


#: (bucket, module, dotted attribute, optional work counter).  The bucket's
#: first component is the layer.  ``workloads`` is this benchmark's own
#: module: the entry points it calls are seams like any other.
SEAMS: Tuple[Tuple[str, str, str, Optional[Callable[[tuple, dict], int]]], ...] = (
    # circuits ----------------------------------------------------------
    ("circuits.generate", "workloads", "generate_scaled", _n_wires_arg),
    ("circuits.generate", "repro.harness.simjobs", "bnre_like", _n_wires_arg),
    ("circuits.generate", "repro.harness.simjobs", "mdc_like", _n_wires_arg),
    # assign ------------------------------------------------------------
    ("assign.assign", "repro.assign.threshold", "ThresholdCostAssigner.assign", None),
    ("assign.assign", "repro.assign.distributed_loop", "DistributedLoop.next_wire", None),
    ("assign.assign", "repro.assign.distributed_loop", "DistributedLoop.reset", None),
    # route -------------------------------------------------------------
    ("route.run", "repro.route.engine", "SequentialRouter.run", None),
    ("route.iteration", "repro.route.engine", "route_iteration_wavefront", None),
    ("route.wire", "repro.route.engine", "route_wire", None),
    ("route.wire", "repro.parallel.node", "route_wire", None),
    ("route.wire", "repro.parallel.sm_sim", "route_wire", None),
    ("route.plan_waves", "repro.route.wavefront", "plan_waves", None),
    ("route.geometry", "repro.route.wavefront", "wire_geometry", None),
    # grid --------------------------------------------------------------
    ("grid.cost_array", "repro.grid.cost_array", "CostArray.apply_path", _n_cells),
    ("grid.cost_array", "repro.grid.cost_array", "CostArray.remove_path", _n_cells),
    ("grid.cost_array", "repro.grid.cost_array", "CostArray.path_cost", None),
    ("grid.cost_array", "repro.grid.cost_array", "CostArray.replace", None),
    ("grid.cost_array", "repro.grid.cost_array", "CostArray.accumulate", None),
    ("grid.delta", "repro.grid.delta", "DeltaArray.record_path", None),
    ("grid.delta", "repro.grid.delta", "DeltaArray.region_dirty_bbox", None),
    ("grid.delta", "repro.grid.delta", "DeltaArray.dirty_bboxes_by_owner", None),
    ("grid.delta", "repro.grid.delta", "DeltaArray.accumulate", None),
    ("grid.regions", "repro.grid.regions", "RegionMap.regions_touched", None),
    ("grid.regions", "repro.grid.regions", "RegionMap.owners_of_cells", None),
    ("grid.regions", "repro.grid.ownership", "OwnershipMap.mark_dead", None),
    ("grid.regions", "repro.grid.ownership", "OwnershipMap.wire_owner", None),
    ("grid.regions", "repro.grid.ownership", "OwnershipMap.regions_owned_by", None),
    # updates -----------------------------------------------------------
    ("updates.encode", "repro.parallel.node", "UpdatePacket", None),
    ("updates.encode", "repro.parallel.node", "build_loc_data", None),
    ("updates.encode", "repro.parallel.node", "build_rmt_data", None),
    ("updates.encode", "repro.parallel.node", "build_request", None),
    ("updates.encode", "repro.parallel.node", "build_response", None),
    ("updates.encode", "repro.parallel.node", "build_control", None),
    # netsim ------------------------------------------------------------
    ("netsim.send", "repro.netsim.wormhole", "WormholeNetwork.send", None),
    ("netsim.send", "repro.netsim.wormhole", "WormholeNetwork._deliver", None),
    # faults ------------------------------------------------------------
    ("faults.inject", "repro.faults.injector", "FaultInjector.on_send", None),
    # events ------------------------------------------------------------
    ("events.run", "repro.events.sim", "Simulator.run", None),
    # parallel ----------------------------------------------------------
    ("parallel.mp.driver", "workloads", "run_message_passing", None),
    ("parallel.mp.driver", "repro.harness.simjobs", "run_message_passing", None),
    ("parallel.sm.driver", "workloads", "run_shared_memory", None),
    ("parallel.sm.driver", "repro.harness.simjobs", "run_shared_memory", None),
    # The MPNode methods the event kernel and the network call back into.
    ("parallel.protocol", "repro.parallel.node", "MPNode.start", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode.crash", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode.adopt_wires", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode.probe_peer", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode._activate", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode._finish_wire", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode._watchdog_fire", None),
    ("parallel.protocol", "repro.parallel.node", "MPNode._probe_fire", None),
    # memsim ------------------------------------------------------------
    ("memsim.collect", "repro.memsim.tango", "TangoCollector.record_evaluation", None),
    ("memsim.collect", "repro.memsim.tango", "TangoCollector.record_commit", None),
    ("memsim.collect", "repro.memsim.tango", "TangoCollector.record_ripup", None),
    ("memsim.collect", "repro.memsim.tango", "TangoCollector.record_loop_grab", None),
    ("memsim.replay", "repro.memsim.columnar", "ColumnarTrace.from_trace", None),
    ("memsim.replay", "repro.memsim.columnar", "ColumnarTrace.replay", None),
    ("memsim.replay", "repro.parallel.sm_sim", "simulate_trace", None),
    ("memsim.replay", "repro.parallel.sm_sim", "simulate_trace_write_update", None),
    # harness -----------------------------------------------------------
    ("harness.fingerprint", "repro.service.jobs", "sim_fingerprint", None),
    ("harness.fingerprint", "repro.service.jobs", "sim_key", None),
    ("harness.fingerprint", "repro.service.jobs", "stable_hash", None),
    ("harness.fingerprint", "repro.service.jobs", "code_fingerprint", None),
    ("harness.fingerprint", "repro.harness.simjobs", "sim_key", None),
    ("harness.fingerprint", "repro.harness.simjobs", "circuit_fingerprint", None),
    ("harness.cache_get", "repro.harness.cache", "ResultCache.get_sim", None),
    ("harness.cache_get", "repro.harness.cache", "ResultCache.get_experiment", None),
    ("harness.cache_put", "repro.harness.cache", "ResultCache.put_sim", None),
    ("harness.cache_put", "repro.harness.cache", "ResultCache.put_experiment", None),
    ("harness.pool", "repro.harness.simjobs", "run_sim_configs", None),
    ("harness.pool", "repro.harness.simjobs", "pool_map", None),
    ("harness.pool", "repro.service.daemon", "pool_map_salvage", None),
    # service -----------------------------------------------------------
    ("service.client.submit", "repro.service.client", "ServiceClient.submit", None),
    ("service.client.wait", "repro.service.client", "ServiceClient.wait", None),
    ("service.client.result", "repro.service.client", "ServiceClient.result", None),
    ("service.http", "repro.service.daemon", "_Handler.do_GET", None),
    ("service.http", "repro.service.daemon", "_Handler.do_POST", None),
    ("service.execute", "repro.service.daemon", "RoutingService.submit", None),
    ("service.execute", "repro.service.daemon", "RoutingService._run_batch", None),
    ("service.execute", "repro.service.daemon", "execute_job_in_worker", None),
    ("service.repo_read", "repro.service.repository", "Repository.get_result", None),
    ("service.repo_read", "repro.service.repository", "Repository.get_job", None),
    ("service.repo_write", "repro.service.repository", "Repository.add_job", None),
    ("service.repo_write", "repro.service.repository", "Repository.set_status", None),
    ("service.repo_write", "repro.service.repository", "Repository.record_result", None),
)

#: ``Simulator.run`` under the shared memory driver executes sm_sim's own
#: closures (``proc_step``, ``commit``), which no outside wrapper can
#: reach, so its self time there is protocol logic with a ~1% kernel
#: share folded in; under the message passing driver every callback is a
#: wrapped ``MPNode`` / ``WormholeNetwork`` method and the self time is
#: the event kernel's.
_REBUCKET = {("events.run", "parallel.sm.driver"): "parallel.protocol"}


def resolve(module_name: str, dotted: str) -> Tuple[object, str]:
    """The object holding a seam's binding, and the attribute's name."""
    owner: object = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class SlotTrace:
    """What one traced slot produced, per bucket."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}  #: self seconds
        self.calls: Dict[str, int] = {}  #: spans recorded
        self.work: Dict[str, int] = {}  #: what the seams' work counters summed
        self.root_s = 0.0  #: durations of the collecting thread's root spans
        self.spans = 0


class _ThreadSpans:
    """One thread's spans as columns (scalars only: nothing for the garbage
    collector to track, which a list per span was measured to double)."""

    def __init__(self) -> None:
        self.bucket: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []  #: index into this thread's columns, -1 = root
        self.stack: List[int] = [-1]
        # What the wrapper needs, fetched with one attribute load.
        self.fast = (
            self.bucket.append,
            self.parent.append,
            self.end.append,
            self.start.append,
            self.start,
            self.end,
            self.stack,
        )


class Tracer:
    """Installs the wrappers, collects spans, aggregates them per slot.

    Create it on the thread that runs the slots: that thread's root spans
    are the ones :attr:`SlotTrace.root_s` adds up.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self.buckets: List[str] = sorted({seam[0] for seam in SEAMS})
        ids = self._bucket_id = {name: i for i, name in enumerate(self.buckets)}
        self._rebucket = {(ids[b], ids[p]): name for (b, p), name in _REBUCKET.items()}
        self._work = [0] * len(self.buckets)
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._main = self._new_thread()
        self._kept: List[list] = []  #: [bucket name, start, end, parent row, run id]
        self._installed: List[Tuple[object, str, object]] = []
        self.run_id = 0  #: stamped on the spans of the next collect()

    def _new_thread(self) -> _ThreadSpans:
        spans = self._local.spans = _ThreadSpans()
        with self._threads_lock:
            self._threads.append(spans)
        return spans

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, bucket: int, counter) -> Callable:
        local = self._local
        new_thread = self._new_thread
        clock = time.perf_counter
        work = self._work

        def traced(*args, **kwargs):
            try:
                fast = local.spans.fast
            except AttributeError:  # first span on this thread
                fast = new_thread().fast
            add_bucket, add_parent, add_end, add_start, starts, ends, stack = fast
            index = len(starts)
            add_bucket(bucket)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if counter is not None:
                    work[bucket] += counter(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every seam's binding with its wrapper (idempotent)."""
        if self._installed:
            return
        for bucket, module_name, dotted, counter in SEAMS:
            owner, attr = resolve(module_name, dotted)
            original = vars(owner)[attr]
            bucket_id = self._bucket_id[bucket]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrap(original.__func__, bucket_id, counter))
            else:
                wrapper = self._wrap(original, bucket_id, counter)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation -----------------------------------------------------
    def collect(self) -> SlotTrace:
        """Aggregate the spans recorded since the last call, and drop them.

        A thread that is inside a span right now (the daemon's dispatcher
        can still be returning from a batch when the client already has
        its result) keeps its columns for the next call.
        """
        out = SlotTrace()
        names, rebucket = self.buckets, self._rebucket
        self_s, calls = out.self_s, out.calls
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            if len(thread.stack) > 1 or not thread.start:
                continue
            buckets, starts, ends, parents = thread.bucket, thread.start, thread.end, thread.parent
            base = len(self._kept)
            for i, bucket in enumerate(buckets):
                duration = ends[i] - starts[i]
                parent = parents[i]
                if parent < 0:
                    name = names[bucket]
                    if thread is self._main:
                        out.root_s += duration
                else:
                    parent_bucket = buckets[parent]
                    name = rebucket.get((bucket, parent_bucket)) or names[bucket]
                    grand = parents[parent]
                    parent_name = (
                        rebucket.get((parent_bucket, buckets[grand])) if grand >= 0 else None
                    ) or names[parent_bucket]
                    self_s[parent_name] = self_s.get(parent_name, 0.0) - duration
                self_s[name] = self_s.get(name, 0.0) + duration
                plain = names[bucket]
                calls[plain] = calls.get(plain, 0) + 1
                if self.keep_spans:
                    self._kept.append(
                        [plain, starts[i], ends[i], base + parent if parent >= 0 else -1, self.run_id]
                    )
            out.spans += len(buckets)
            del buckets[:], starts[:], ends[:], parents[:]
        for i, amount in enumerate(self._work):
            if amount:
                out.work[names[i]] = amount
                self._work[i] = 0
        return out

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the kept spans to *path*, one JSON row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"columns":["name","start","end","parent","run"],"spans":[\n')
            for i, row in enumerate(self._kept):
                handle.write(("," if i else "") + json.dumps(row) + "\n")
            handle.write("]}\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(
    self_s: Dict[str, float], counts: Dict[str, float], calls: Dict[str, int], work: Dict[str, int]
) -> Dict[str, Tuple[float, str]]:
    """One pass's per-layer metrics as ``name -> (value, unit)``.

    *self_s* are bucket self seconds, *counts* the exact counts the slots
    reported (results, obs counters), *calls* and *work* the tracer's own
    span counts and work counters.  A layer that was idle reads 0.
    """
    t = lambda *names: sum(self_s.get(n, 0.0) for n in names)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    route_s = t("route.run", "route.iteration", "route.wire", "route.plan_waves", "route.geometry")
    grid_s = t("grid.cost_array", "grid.delta", "grid.regions")
    memsim_s = t("memsim.collect", "memsim.replay")
    cell_updates = work.get("grid.cost_array", 0)
    attempts = c("faults.send_attempts")
    m: Dict[str, Tuple[float, str]] = {
        "circuits.generate_s": (t("circuits.generate"), "s"),
        "circuits.wires": (work.get("circuits.generate", 0), "count"),
        "assign.assign_s": (t("assign.assign"), "s"),
        "route.self_s": (route_s, "s"),
        "route.plan_waves_s": (t("route.plan_waves"), "s"),
        "route.geometry_s": (t("route.geometry"), "s"),
        "route.wires_routed": (c("route.wires_routed"), "count"),
        "route.work_cells": (c("route.work_cells"), "count"),
        "route.wires_per_s": (_rate(c("route.wires_routed"), route_s), "1/s"),
        "grid.cost_array_s": (t("grid.cost_array"), "s"),
        "grid.delta_s": (t("grid.delta"), "s"),
        "grid.regions_s": (t("grid.regions"), "s"),
        "grid.cell_updates": (cell_updates, "count"),
        "grid.cell_updates_per_s": (_rate(cell_updates, grid_s), "1/s"),
        "updates.encode_s": (t("updates.encode"), "s"),
        "updates.packets": (c("updates.packets"), "count"),
        "updates.bytes": (c("updates.bytes"), "bytes"),
        "updates.packets_per_s": (_rate(c("updates.packets"), t("updates.encode")), "1/s"),
        "netsim.send_s": (t("netsim.send"), "s"),
        "netsim.messages": (c("netsim.messages"), "count"),
        "netsim.hop_bytes": (c("netsim.hop_bytes"), "bytes"),
        "netsim.messages_per_s": (_rate(c("netsim.messages"), t("netsim.send")), "1/s"),
        "events.kernel_s": (t("events.run"), "s"),
        "events.events": (c("events.events"), "count"),
        "events.events_per_s": (_rate(c("events.events"), t("events.run")), "1/s"),
        "parallel.protocol_s": (t("parallel.protocol"), "s"),
        "parallel.driver_s": (t("parallel.mp.driver", "parallel.sm.driver"), "s"),
        "parallel.sim_runs": (c("parallel.sim_runs"), "count"),
        "parallel.sim_exec_time_s": (c("parallel.sim_exec_time_s"), "sim_s"),
        "parallel.blocked_sim_s": (c("parallel.blocked_sim_s"), "sim_s"),
        "memsim.collect_s": (t("memsim.collect"), "s"),
        "memsim.replay_s": (t("memsim.replay"), "s"),
        "memsim.refs": (c("memsim.refs"), "count"),
        "memsim.refs_per_s": (_rate(c("memsim.refs"), memsim_s), "1/s"),
        "memsim.bus_bytes": (c("memsim.bus_bytes"), "bytes"),
        "faults.inject_s": (t("faults.inject"), "s"),
        "faults.send_attempts": (attempts, "count"),
        "faults.dropped": (c("faults.dropped"), "count"),
        "faults.retries_sent": (c("faults.retries_sent"), "count"),
        "faults.requests_abandoned": (c("faults.requests_abandoned"), "count"),
        "faults.crashes": (c("faults.crashes"), "count"),
        "faults.useful_frac": (_rate(attempts - c("faults.dropped"), attempts), "ratio"),
        "harness.fingerprint_s": (t("harness.fingerprint"), "s"),
        "harness.cache_get_s": (t("harness.cache_get"), "s"),
        "harness.cache_put_s": (t("harness.cache_put"), "s"),
        "harness.cache_hits": (c("harness.cache_hits"), "count"),
        "harness.cache_misses": (c("harness.cache_misses"), "count"),
        "harness.pool_s": (t("harness.pool"), "s"),
        "service.submit_s": (t("service.client.submit"), "s"),
        "service.wait_s": (t("service.client.wait"), "s"),
        "service.result_s": (t("service.client.result"), "s"),
        "service.execute_s": (t("service.execute", "service.http"), "s"),
        "service.repo_read_s": (t("service.repo_read"), "s"),
        "service.repo_write_s": (t("service.repo_write"), "s"),
        "service.http_requests": (calls.get("service.http", 0), "count"),
        "service.executed": (c("service.executed"), "count"),
        "service.repo_hits": (c("service.repo_hits"), "count"),
        "service.dedup_hits": (c("service.dedup_hits"), "count"),
    }
    return m


def layer_calls(calls: Dict[str, int]) -> Dict[str, int]:
    """Spans recorded per layer (the bucket's first component)."""
    out = {layer: 0 for layer in LAYERS}
    for bucket, n in calls.items():
        out[bucket.split(".", 1)[0]] += n
    return out
