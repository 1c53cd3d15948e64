"""Run experiments and persist their results.

:func:`run_all` executes the selected experiments (default: all, in
registry order), prints the rendered tables, and optionally writes a
JSON record per experiment — the file EXPERIMENTS.md's numbers come
from.

Three orthogonal capabilities wrap the plain drivers:

- **Parallel fan-out** (``jobs > 1``): experiment ids run across a
  process pool (:mod:`repro.harness.parallel_runner`); a single id
  instead fans out its per-row simulation configs
  (:mod:`repro.harness.simjobs`).  Results are returned in id order and
  are row-identical to a serial run.
- **Result caching** (``cache_dir``): experiments and individual
  simulation rows are content-addressed
  (:mod:`repro.harness.cache`) so warm re-runs and overlapping sweeps
  skip already-computed work.  Pass ``use_cache=False`` (CLI
  ``--no-cache``) to bypass reads *and* writes.  :func:`run_one_cached`
  is the one "look up, else run and store" of an experiment (the serial
  loop, the pool task and the routing service all call it).
- **Telemetry**: per-experiment wall/CPU time, events processed and
  events/second land in a ``BENCH_harness.json`` record next to the
  results (or at an explicit ``bench_path``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import __version__
from ..errors import ExperimentError
from ..obs import telemetry as obs
from . import simjobs
from .cache import (
    ResultCache,
    atomic_write_text,
    code_fingerprint,
    cost_model_fingerprint,
    jsonify,
    stable_hash,
)
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment

__all__ = [
    "run_all",
    "save_result",
    "load_result",
    "resolve_ids",
    "experiment_cache_key",
    "cached_experiment",
    "run_one_cached",
    "write_bench_record",
    "BENCH_FILENAME",
]

PathLike = Union[str, Path]

#: Default file name of the harness telemetry record.
BENCH_FILENAME = "BENCH_harness.json"


def save_result(result: ExperimentResult, directory: PathLike) -> Path:
    """Write one experiment result as JSON (atomically); returns the path."""
    directory = Path(directory)
    path = directory / f"{result.exp_id.lower()}.json"
    payload = {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "checks": result.checks,
        "notes": result.notes,
        "passed": result.passed,
    }
    return atomic_write_text(path, json.dumps(payload, indent=1, default=str))


def load_result(exp_id: str, directory: PathLike) -> Optional[dict]:
    """Load a previously saved result, or ``None`` if absent."""
    path = Path(directory) / f"{exp_id.lower()}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def resolve_ids(exp_ids: Optional[Iterable[str]]) -> List[str]:
    """Normalise and validate experiment ids (default: every registered id).

    Raises :class:`ExperimentError` listing the valid ids when any
    requested id is unknown — before any experiment runs.
    """
    if exp_ids is None:
        return list(EXPERIMENTS)
    ids = [str(i).upper() for i in exp_ids]
    unknown = sorted({i for i in ids if i not in EXPERIMENTS})
    if unknown:
        raise ExperimentError(
            f"unknown experiment id(s) {', '.join(unknown)}; "
            f"valid ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    return ids


# ----------------------------------------------------------------------
# experiment-level cache plumbing
# ----------------------------------------------------------------------
def experiment_cache_key(exp_id: str, quick: bool) -> str:
    """Content-addressed key of one experiment run.

    Covers everything that determines the output: the experiment id and
    scale, both benchmark circuits' netlists at that scale, the
    cost-model fields, and a digest of the package source (the schedule
    fields baked into each driver are code, hence covered by the code
    digest; rows additionally hit the finer-grained sim cache keyed on
    their exact schedule/processor fields).
    """
    return stable_hash(
        {
            "unit": "experiment",
            "exp_id": exp_id.upper(),
            "quick": quick,
            "circuits": {
                which: simjobs._named_circuit_fingerprint(which, quick, None)
                for which in ("bnrE", "MDC")
            },
            "cost_model": cost_model_fingerprint(),
            "code": code_fingerprint(),
        }
    )


def result_to_payload(result: ExperimentResult) -> dict:
    """JSON-safe payload of an :class:`ExperimentResult` for the cache.

    Column and check names are stored verbatim: :func:`jsonify`'s key
    tagging exists to keep *fingerprints* collision-free, and a name that
    happens to look like a tagged key must come back as it went in.
    """
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [{k: jsonify(v) for k, v in row.items()} for row in result.rows],
        "checks": {name: bool(ok) for name, ok in result.checks.items()},
        "notes": result.notes,
        "extras": jsonify(result.extras),
    }


def payload_to_result(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a cached payload.

    ``extras`` come back in their JSON form (non-string dict keys became
    tagged strings); rows, checks, and notes round-trip exactly.
    """
    return ExperimentResult(
        exp_id=payload["exp_id"],
        title=payload["title"],
        columns=list(payload["columns"]),
        rows=list(payload["rows"]),
        checks=dict(payload["checks"]),
        notes=payload.get("notes", ""),
        extras=payload.get("extras", {}) or {},
    )


def cached_experiment(
    exp_id: str, quick: bool, cache: Optional[ResultCache]
) -> Optional[ExperimentResult]:
    """The stored result of one experiment run, or ``None`` on a miss."""
    if cache is None:
        return None
    payload = cache.get_experiment(experiment_cache_key(exp_id, quick))
    return None if payload is None else payload_to_result(payload)


def run_one_cached(
    exp_id: str, quick: bool, cache: Optional[ResultCache]
) -> Tuple[ExperimentResult, Dict[str, object]]:
    """Run one experiment through the cache; returns (result, bench record).

    The record carries the per-experiment telemetry that lands in
    ``BENCH_harness.json``: wall/CPU seconds, whether the cache served
    it, and how many simulator events were actually processed (0 for a
    full cache hit).
    """
    tel = obs.get_telemetry()
    events0 = tel.count("sim.events")
    messages0 = tel.count("sim.mp.messages_sent")
    wall0, cpu0 = time.perf_counter(), time.process_time()

    result = cached_experiment(exp_id, quick, cache)
    cache_hit = result is not None
    if result is None:
        result = run_experiment(exp_id, quick=quick)
        if cache is not None:
            cache.put_experiment(
                experiment_cache_key(exp_id, quick), result_to_payload(result)
            )

    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    events = tel.count("sim.events") - events0
    obs.record_span("harness.experiment", wall, cpu)
    record: Dict[str, object] = {
        "exp_id": result.exp_id,
        "wall_s": round(wall, 6),
        "cpu_s": round(cpu, 6),
        "cache_hit": cache_hit,
        "passed": result.passed,
        "events_processed": int(events),
        "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
        "messages_sent": int(tel.count("sim.mp.messages_sent") - messages0),
    }
    return result, record


# ----------------------------------------------------------------------
# the bench record
# ----------------------------------------------------------------------
def _counter_delta(before: Dict[str, object], name: str) -> float:
    return obs.get_telemetry().count(name) - before.get("counters", {}).get(name, 0)


def write_bench_record(
    path: PathLike,
    records: List[Dict[str, object]],
    wall_s: float,
    quick: bool,
    jobs: int,
    telemetry_before: Dict[str, object],
) -> Path:
    """Write the ``BENCH_harness.json`` telemetry record (atomically).

    ``telemetry_before`` is a global-telemetry snapshot taken when the
    run started, so totals are this run's deltas even when several
    ``run_all`` calls share a process.
    """
    events = sum(r["events_processed"] for r in records)
    payload = {
        "schema": "bench-harness/1",
        "package_version": __version__,
        "unix_time": time.time(),
        "quick": quick,
        "jobs": jobs,
        "experiments": records,
        "totals": {
            "experiments": len(records),
            "wall_s": round(wall_s, 6),
            "events_processed": int(events),
            "events_per_s": round(events / wall_s, 1) if wall_s > 0 else 0.0,
            "messages_sent": int(sum(r["messages_sent"] for r in records)),
            "cache": {
                name: int(_counter_delta(telemetry_before, f"cache.{name}"))
                for name in (
                    "experiment.hits",
                    "experiment.misses",
                    "sim.hits",
                    "sim.misses",
                )
            },
            "verify": {
                "checks": int(_counter_delta(telemetry_before, "verify.checks")),
                "violations": int(
                    _counter_delta(telemetry_before, "verify.violations")
                ),
            },
        },
    }
    return atomic_write_text(path, json.dumps(jsonify(payload), indent=1))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_all(
    exp_ids: Optional[Iterable[str]] = None,
    quick: bool = False,
    out_dir: Optional[PathLike] = None,
    echo: bool = True,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    bench_path: Optional[PathLike] = None,
) -> List[ExperimentResult]:
    """Run the selected experiments (default: all), in registry order.

    Parameters
    ----------
    exp_ids, quick, out_dir, echo:
        As before: which experiments, at which scale, where to save JSON
        results, and whether to print tables.
    jobs:
        Process-pool width.  ``1`` (default) runs serially in-process;
        ``N > 1`` fans experiment ids out across ``N`` workers — or, for
        a single id, fans out its per-row simulation configs instead.
    cache_dir:
        Enable the content-addressed result cache rooted here.  ``None``
        (default) disables caching entirely, preserving the historical
        behaviour.
    use_cache:
        Set ``False`` to ignore ``cache_dir`` (the CLI's ``--no-cache``).
    timeout_s:
        Per-task timeout for pool execution (see
        :func:`repro.harness.pool.pool_map` for the exact semantics).
    bench_path:
        Where to write the ``BENCH_harness.json`` telemetry record.
        Defaults to ``out_dir/BENCH_harness.json`` when ``out_dir`` is
        given; with neither, no record is written.
    """
    ids = resolve_ids(exp_ids)
    cache = (
        ResultCache(cache_dir) if (cache_dir is not None and use_cache) else None
    )
    telemetry_before = obs.snapshot()
    wall0 = time.perf_counter()

    def show(result: ExperimentResult, record: Dict[str, object]) -> None:
        if echo:
            print(result.render())
            print(f"({record['wall_s']:.1f}s wall)\n")

    if jobs > 1 and len(ids) > 1:
        from .parallel_runner import run_parallel

        results, records = run_parallel(
            ids, quick=quick, jobs=jobs, cache=cache, timeout_s=timeout_s
        )
        for result, record in zip(results, records):
            show(result, record)
    else:
        # One id (or one worker): the ids run here, one after another,
        # and a lone id fans its sim rows out over the workers instead.
        results, records = [], []
        with simjobs.strategy(jobs=jobs, cache=cache, timeout_s=timeout_s):
            for exp_id in ids:
                result, record = run_one_cached(exp_id, quick, cache)
                results.append(result)
                records.append(record)
                show(result, record)

    wall = time.perf_counter() - wall0
    if out_dir is not None:
        for result in results:
            save_result(result, out_dir)
    if bench_path is None and out_dir is not None:
        bench_path = Path(out_dir) / BENCH_FILENAME
    if bench_path is not None:
        write_bench_record(
            bench_path, records, wall, quick=quick, jobs=jobs,
            telemetry_before=telemetry_before,
        )

    if echo:
        failed = [r.exp_id for r in results if not r.passed]
        print(
            f"{len(results)} experiments, "
            f"{sum(r.passed for r in results)} fully passing shape checks"
            + (f"; check failures in: {failed}" if failed else "")
        )
    return results
