"""Process-pool fan-out over experiment ids.

:func:`run_parallel` is the many-ids ``jobs > 1`` engine behind
:func:`repro.harness.runner.run_all`: each experiment id becomes one
pool task (:func:`repro.harness.pool.pool_map` supplies deterministic
result ordering, a per-task timeout, retry-once, and the merge of each
worker's telemetry into the parent's, so ``BENCH_harness.json`` sees the
whole picture regardless of where the work ran).  Workers execute the
same cached path as the serial runner
(:func:`repro.harness.runner.run_one_cached`), so parallel and serial
runs produce row-identical results and share one cache.  Workers never
nest pools: a pool worker runs its experiment's sim rows serially.  (A
single id is not a pool task at all — ``run_all`` runs it in process and
fans out its *per-row simulation configs* instead.)
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from . import simjobs
from .cache import ResultCache
from .experiments import ExperimentResult
from .pool import pool_map
from .runner import run_one_cached

__all__ = ["run_parallel"]


def _run_experiment_task(
    exp_id: str,
    quick: bool,
    cache_dir: Optional[str],
) -> Tuple[ExperimentResult, Dict[str, object]]:
    """Pool task: one experiment id through the cache, sim rows serial.

    Each worker opens its own connection to the shared cache file —
    entries are content-addressed rows and SQLite serialises the writers,
    so concurrent writers are safe (last writer wins with identical
    bytes).  The strategy is scoped, so a retry of this task in the
    parent leaves the parent's own strategy as it found it.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    with simjobs.strategy(cache=cache):
        return run_one_cached(exp_id, quick, cache)


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
    worker = partial(
        _run_experiment_task,
        quick=quick,
        cache_dir=str(cache.directory) if cache is not None else None,
    )
    outs = pool_map(
        worker, exp_ids, jobs=jobs, timeout_s=timeout_s, label="experiment"
    )
    return [result for result, _ in outs], [record for _, record in outs]
