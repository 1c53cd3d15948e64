"""Process-pool fan-out over experiment ids.

:func:`run_parallel` is the ``jobs > 1`` engine behind
:func:`repro.harness.runner.run_all`:

- **Many ids** → each experiment id becomes one pool task
  (:func:`repro.harness.pool.pool_map` supplies deterministic result
  ordering, a per-task timeout, and retry-once).  Workers execute the
  same cached path as the serial runner
  (:func:`repro.harness.runner.run_one_cached`), so parallel and serial
  runs produce row-identical results and share one cache.
- **One id** → fanning out a single task would buy nothing, so the
  experiment runs in-process with its *per-row simulation configs*
  fanned out instead (:mod:`repro.harness.simjobs`); sweep tables like
  T1 (12 independent rows) parallelise this way.

Worker telemetry (events processed, cache hits, span timers) comes back
with each task and is merged into the parent's global telemetry, so
``BENCH_harness.json`` sees the whole picture regardless of where the
work ran.  Workers never nest pools: a pool worker runs its experiment's
sim rows serially.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..obs import telemetry as obs
from . import simjobs
from .cache import ResultCache
from .experiments import ExperimentResult
from .pool import in_pool_worker, pool_map
from .runner import run_one_cached

__all__ = ["run_parallel"]

_WorkerOut = Tuple[ExperimentResult, Dict[str, object], Dict[str, object]]


def _run_experiment_task(
    exp_id: str,
    quick: bool,
    cache_dir: Optional[str],
) -> _WorkerOut:
    """Pool-worker body: one experiment id, returning its telemetry.

    In a pool worker the global telemetry is reset first (fork-started
    workers inherit the parent's counters, which the parent already
    owns), so the returned snapshot is exactly this task's delta.  When
    :func:`repro.harness.pool.pool_map` retries a failed task serially
    *in the parent* (:func:`repro.harness.pool.in_pool_worker` is false),
    the telemetry already lands in the parent's live global, so an empty
    snapshot is returned instead of a double-counting copy.

    Each worker opens its own handle on the shared cache directory —
    entries are content-addressed and written atomically, so concurrent
    writers are safe (last writer wins with identical bytes).
    """
    in_worker = in_pool_worker()
    if in_worker:
        obs.reset()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    simjobs.configure(reset=True, cache=cache)
    result, record = run_one_cached(exp_id, quick, cache)
    return result, record, obs.snapshot() if in_worker else {}


def run_parallel(
    exp_ids: List[str],
    quick: bool = False,
    jobs: int = 2,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
) -> Tuple[List[ExperimentResult], List[Dict[str, object]]]:
    """Run *exp_ids* with ``jobs`` workers; results in id order.

    Returns ``(results, records)`` — the experiment results plus the
    per-experiment bench records (wall time, events/sec, cache hits)
    that :func:`repro.harness.runner.write_bench_record` consumes.
    """
    if len(exp_ids) <= 1:
        # One experiment: parallelise its sim rows instead of the id.
        simjobs.configure(
            reset=True, jobs=jobs, cache=cache, timeout_s=timeout_s
        )
        try:
            pairs = [run_one_cached(exp_id, quick, cache) for exp_id in exp_ids]
        finally:
            simjobs.configure(reset=True)
        results = [result for result, _ in pairs]
        records = [record for _, record in pairs]
        return results, records

    worker = partial(
        _run_experiment_task,
        quick=quick,
        cache_dir=str(cache.directory) if cache is not None else None,
    )
    outs: List[_WorkerOut] = pool_map(
        worker, exp_ids, jobs=jobs, timeout_s=timeout_s, label="experiment"
    )
    tel = obs.get_telemetry()
    results, records = [], []
    for result, record, tel_snapshot in outs:
        tel.merge(tel_snapshot)
        results.append(result)
        records.append(record)
    return results, records
