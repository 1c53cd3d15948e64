"""Deterministic process-pool mapping with per-task timeout and retry.

Both fan-out levels of the parallel harness — experiment ids in
:func:`repro.harness.runner.run_all`, and per-row simulation configs in
:mod:`repro.harness.simjobs` — need the same primitive: map a picklable
function over independent items on a ``ProcessPoolExecutor`` and get the
results back *in item order* regardless of completion order, with a
per-task timeout and one retry for robustness.

Failure policy
--------------
A task that raises in its worker, or exceeds ``timeout_s``, is retried
**once, serially, in the parent process** after the pool pass finishes.
Serial retry sidesteps a potentially broken/saturated pool and makes the
second attempt easy to debug (the traceback is the real one, not a
pickled copy).  A serial run (``jobs <= 1`` or one item) has the same
two stages: every item once, then the failures once more.  A task that
fails twice raises :class:`ExperimentError` carrying the retry's failure,
after every other item has had its attempts.

A pool whose worker *process* dies (OOM kill, segfault, a fault-injected
crash experiment taking out its host) surfaces as
``BrokenProcessPool``.  That poisons every outstanding future, so the
pool pass respawns the executor — up to :data:`MAX_POOL_RESPAWNS` times,
with exponential backoff — and resubmits only the uncollected items.
If the respawn budget runs out, the survivors' results are kept and the
stragglers fall through to the serial retry like any other failure.

:func:`pool_map_salvage` is the pass itself and never raises: it returns
a :class:`PoolReport` with a ``None`` hole and a structured
:class:`PoolFailure` record per twice-failed task, so sweep callers can
salvage the partial results (a 47/48-cell sweep is still a sweep).
:func:`pool_map` is that pass plus raising the first loss.

Telemetry
---------
This module owns what crosses the process boundary.  Every pool task is
submitted through :func:`_run_in_worker`, which zeroes the worker's
telemetry (a forked worker inherits the parent's counters, which the
parent already owns) and returns the task's result with a snapshot that
is exactly its delta; the parent merges the snapshot as it collects the
future.  A task that runs in the parent (``jobs <= 1``, a single item,
the serial retry) counts straight into the live telemetry.  Either way
the caller's counters are complete when the map returns, and task
functions neither reset nor snapshot anything.

Timeout semantics: ``timeout_s`` bounds how long the parent waits for
each task *from the moment it starts waiting on it* (tasks are awaited
in submission order, so time spent waiting on earlier tasks also counts
towards later ones — a late task only trips the timeout if it is still
unfinished ``timeout_s`` after all earlier tasks were collected).  A
timed-out worker cannot be interrupted mid-task; the pool is shut down
without waiting and the orphaned worker exits when its simulation
completes (every simulation terminates — the event kernel has a
``max_steps`` guard).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import ExperimentError
from ..kernels import active_kernels, set_kernels
from ..obs import telemetry as obs

__all__ = [
    "MAX_POOL_RESPAWNS",
    "RESPAWN_BACKOFF_S",
    "START_METHOD_ENV",
    "PoolFailure",
    "PoolReport",
    "mp_context",
    "pool_map",
    "pool_map_salvage",
    "default_jobs",
]

T = TypeVar("T")
R = TypeVar("R")

#: How many times a broken pool is rebuilt before giving up on it.
MAX_POOL_RESPAWNS = 2
#: Backoff before the first respawn; doubles on each subsequent one.
RESPAWN_BACKOFF_S = 0.25
#: Environment override for the multiprocessing start method used by every
#: process fan-out in the repo (the experiment pools and the live
#: routers): ``fork`` / ``spawn`` / ``forkserver``.  Unset or empty keeps
#: the platform default.  CI runs the suite under ``spawn`` through this.
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def mp_context(method: Optional[str] = None):
    """The multiprocessing context the repo's process fan-out uses.

    *method* overrides explicitly; otherwise :data:`START_METHOD_ENV` is
    consulted, falling back to the platform default.  Validates against
    the platform's available start methods so a typo fails loudly instead
    of silently using the default.
    """
    if method is None:
        method = os.environ.get(START_METHOD_ENV, "").strip() or None
    if method is not None and method not in multiprocessing.get_all_start_methods():
        raise ExperimentError(
            f"start method {method!r} not available on this platform "
            f"(have: {multiprocessing.get_all_start_methods()})"
        )
    return multiprocessing.get_context(method)


def _pool_worker_init(kernel_mode: str) -> None:
    """Pool-worker initializer: re-establish per-process global state.

    Under ``fork`` workers inherit the parent's globals, but under
    ``spawn``/``forkserver`` they start from a fresh interpreter — the
    :mod:`repro.kernels` mode would silently revert to its default.
    Explicitly propagating the kernel mode keeps worker behaviour
    identical across start methods.
    """
    set_kernels(kernel_mode)


def _run_in_worker(fn: Callable[[T], R], item: T) -> Tuple[R, Dict[str, Any]]:
    """Worker-side half of every pool task: ``fn(item)`` plus its telemetry.

    The worker's telemetry is zeroed first, so the snapshot is exactly
    this task's delta for the parent to merge.
    """
    obs.reset()
    result = fn(item)
    return result, obs.snapshot()


def default_jobs() -> int:
    """A sensible ``--jobs auto`` value: the machine's CPU count."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PoolFailure:
    """One task that failed both its pool pass and its serial retry."""

    index: int  #: position in the input sequence
    item: Any  #: the input item itself
    stage: str  #: where the first failure happened: worker/timeout/pool-broken/serial
    attempts: int  #: total execution attempts made
    error: str  #: repr of the final (serial-retry) exception
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)

    def describe(self, label: str = "task") -> str:
        return (
            f"{label} {self.index} ({self.item!r}) failed "
            f"{self.attempts} times (first: {self.stage}): {self.error}"
        )


@dataclass
class PoolReport:
    """Outcome of :func:`pool_map_salvage`: partial results plus losses."""

    results: List[Optional[Any]]  #: item-order results, ``None`` per failure
    failures: List[PoolFailure] = field(default_factory=list)
    respawns: int = 0  #: broken-pool rebuilds performed
    #: item-order telemetry snapshots of the tasks a pool worker ran
    #: (already merged into this process's telemetry); ``{}`` for an item
    #: that ran in this process, where the counts went in directly
    telemetry: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """Structured failure report for logs / run metadata."""
        return {
            "tasks": len(self.results),
            "salvaged": sum(1 for r in self.results if r is not None),
            "failed": len(self.failures),
            "respawns": self.respawns,
            "failures": [
                {
                    "index": f.index,
                    "item": repr(f.item),
                    "stage": f.stage,
                    "attempts": f.attempts,
                    "error": f.error,
                }
                for f in self.failures
            ],
        }


def _failure_stage(exc: BaseException) -> str:
    if isinstance(exc, FutureTimeoutError):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "pool-broken"
    return "worker"


def _pool_pass(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int,
    timeout_s: Optional[float],
) -> Tuple[
    Dict[int, R], Dict[int, Dict[str, Any]], List[Tuple[int, BaseException]], int
]:
    """One pool stage over all items, respawning on ``BrokenProcessPool``.

    Returns ``(results, telemetry, failures, respawns)`` where *telemetry*
    holds each collected task's snapshot (merged here, as it is
    collected) and *failures* pairs each uncollected index with the
    exception that sank its first attempt; :func:`pool_map_salvage`
    retries those serially.
    """
    pending = list(range(len(items)))
    results: Dict[int, R] = {}
    telemetry: Dict[int, Dict[str, Any]] = {}
    failures: List[Tuple[int, BaseException]] = []
    respawns = 0
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            mp_context=mp_context(),
            initializer=_pool_worker_init,
            initargs=(active_kernels(),),
        )
        broken: Optional[BaseException] = None
        resubmit: List[int] = []
        try:
            futures = [
                (i, executor.submit(_run_in_worker, fn, items[i])) for i in pending
            ]
        except BrokenProcessPool as exc:
            broken = exc
            futures = []
            resubmit = list(pending)
        for i, future in futures:
            if broken is not None:
                # The pool died mid-collection; every outstanding future
                # is poisoned, so resubmit rather than fail the items.
                resubmit.append(i)
                continue
            try:
                results[i], telemetry[i] = future.result(timeout=timeout_s)
            except FutureTimeoutError as exc:
                future.cancel()
                failures.append((i, exc))
            except BrokenProcessPool as exc:
                broken = exc
                resubmit.append(i)
            except Exception as exc:
                failures.append((i, exc))
            else:
                obs.get_telemetry().merge(telemetry[i])
        # Don't block on a timed-out or dead worker; pending tasks were
        # collected, recorded as failures, or queued for resubmission.
        executor.shutdown(wait=broken is None and not failures, cancel_futures=True)
        if broken is None:
            break
        respawns += 1
        if respawns > MAX_POOL_RESPAWNS:
            failures.extend((i, broken) for i in resubmit)
            break
        time.sleep(RESPAWN_BACKOFF_S * 2 ** (respawns - 1))
        pending = resubmit
    return results, telemetry, failures, respawns


def pool_map_salvage(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> PoolReport:
    """Map *fn* over *items*, trying each at most twice, never raising.

    ``jobs <= 1`` (or a single item) makes the first attempts serially in
    this process; otherwise they are one :func:`_pool_pass`.  Each first
    failure is then retried once, serially, in this process.  A task
    that fails both times leaves a ``None`` hole in ``report.results``
    and a :class:`PoolFailure` record; everything that completed is kept.
    """
    items = list(items)
    results: Dict[int, R] = {}
    telemetry: Dict[int, Dict[str, Any]] = {}
    first_failures: List[Tuple[int, str]] = []
    respawns = 0
    if jobs <= 1 or len(items) == 1:
        for i, item in enumerate(items):
            try:
                results[i] = fn(item)
            except Exception:
                first_failures.append((i, "serial"))
    else:
        results, telemetry, pool_failures, respawns = _pool_pass(
            fn, items, jobs, timeout_s
        )
        first_failures = sorted((i, _failure_stage(exc)) for i, exc in pool_failures)
    losses: List[PoolFailure] = []
    for i, stage in first_failures:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            losses.append(
                PoolFailure(
                    index=i, item=items[i], stage=stage, attempts=2,
                    error=repr(exc), exception=exc,
                )
            )
    return PoolReport(
        results=[results.get(i) for i in range(len(items))],
        failures=losses,
        respawns=respawns,
        telemetry=[telemetry.get(i, {}) for i in range(len(items))],
    )


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    label: str = "task",
) -> List[R]:
    """Map *fn* over *items*, results in item order (see module docstring).

    The :func:`pool_map_salvage` pass, with the first loss (in item
    order) raised as :class:`ExperimentError` from the retry's exception.
    """
    report = pool_map_salvage(fn, items, jobs, timeout_s)
    if report.failures:
        loss = report.failures[0]
        raise ExperimentError(
            f"{label} {loss.index} ({loss.item!r}) failed twice "
            f"(first: {loss.stage}): {loss.exception}"
        ) from loss.exception
    return report.results
