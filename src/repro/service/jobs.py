"""Job specifications for the routing service.

A *job* is one unit of work a client can submit to the daemon: a
sequential routing run (``route``), one simulated parallel run
(``mp`` / ``sm``, exactly a :class:`~repro.harness.simjobs.SimConfig`
row), or a whole paper experiment (``experiment``).  Each job is
identified by the same content-addressed fingerprint discipline as the
file cache — :func:`job_key` hashes every input that determines the
output, including the package source digest — so the repository, the
in-flight dedup map, and the file cache all agree on what "the same
job" means.

Cache layering (docs/SERVICE.md):

1. the SQLite repository is canonical — a hit there never re-executes;
2. the file cache (:class:`~repro.harness.cache.ResultCache`) stays as a
   read-through layer: a repository miss that hits the file cache is
   converted to a payload, persisted into the repository, and served
   (:func:`read_through`);
3. a miss in both executes (:func:`execute_job`), which itself runs
   through the file cache for ``mp``/``sm``/``experiment`` kinds so the
   two stores warm each other.

Execution is the harness's own: ``mp``/``sm`` jobs are
:func:`~repro.harness.simjobs.run_sim_configs` rows, experiment jobs are
:func:`~repro.harness.runner.run_one_cached`, and
:func:`execute_job_in_worker` is a plain pool task (worker telemetry is
:mod:`repro.harness.pool`'s business).  :data:`PARAM_SCHEMA` is the one
list of what each kind accepts; ``jobs submit`` is a loop over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from ..errors import ServiceError
from ..harness import simjobs
from ..harness.cache import (
    ResultCache,
    code_fingerprint,
    jsonify,
    stable_hash,
)
from ..harness.experiments import EXPERIMENTS, ExperimentResult
from ..harness.runner import (
    cached_experiment,
    experiment_cache_key,
    result_to_payload,
    run_one_cached,
)
from ..harness.simjobs import SimConfig, sim_fingerprint, sim_key
from ..route import SequentialRouter
from ..updates import UpdateSchedule

__all__ = [
    "JOB_KINDS",
    "PARAM_SCHEMA",
    "JobSpec",
    "job_fingerprint",
    "job_key",
    "execute_job",
    "execute_job_in_worker",
    "read_through",
    "route_payload",
]

JOB_KINDS = ("route", "mp", "sm", "experiment")

#: Per-kind parameter schema: name -> default.  ``...`` marks required.
_COMMON: Dict[str, Any] = {"which": "bnrE", "n_wires": None, "quick": False}
PARAM_SCHEMA: Dict[str, Dict[str, Any]] = {
    "route": {**_COMMON, "iterations": 3},
    "mp": {
        **_COMMON,
        "iterations": 3,
        "n_procs": 16,
        "send_loc": None,
        "send_rmt": None,
        "req_loc": None,
        "req_rmt": None,
        "blocking": False,
    },
    "sm": {
        **_COMMON,
        "iterations": 3,
        "n_procs": 16,
        "line_size": 8,
        "protocol": "invalidate",
    },
    "experiment": {"exp_id": ..., "quick": False},
}
_SIM_FIELDS = frozenset(f.name for f in fields(SimConfig))


@dataclass(frozen=True)
class JobSpec:
    """One validated, canonicalised job (picklable for the pool)."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_params(cls, kind: str, params: Optional[Dict[str, Any]] = None) -> "JobSpec":
        """Validate *params* against the kind's schema and fill defaults.

        Defaults are filled in eagerly so two submissions that spell the
        same configuration differently (one relying on defaults, one
        explicit) canonicalise to the same fingerprint.
        """
        if kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {kind!r} (valid: {', '.join(JOB_KINDS)})"
            )
        schema = PARAM_SCHEMA[kind]
        params = dict(params or {})
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise ServiceError(
                f"unknown parameter(s) for {kind} jobs: {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(schema))})"
            )
        canonical: Dict[str, Any] = {}
        for name, default in schema.items():
            if name in params:
                canonical[name] = params[name]
            elif default is ...:
                raise ServiceError(f"{kind} jobs require the {name!r} parameter")
            else:
                canonical[name] = default
        spec = cls(kind=kind, params=canonical)
        spec._validate()
        return spec

    def _validate(self) -> None:
        if self.kind == "experiment":
            exp_id = str(self.params["exp_id"]).upper()
            if exp_id not in EXPERIMENTS:
                raise ServiceError(
                    f"unknown experiment id {self.params['exp_id']!r} "
                    f"(valid: {', '.join(sorted(EXPERIMENTS))})"
                )
            self.params["exp_id"] = exp_id
            return
        if self.params["which"] not in ("bnrE", "MDC"):
            raise ServiceError(
                f"unknown circuit {self.params['which']!r} (use bnrE or MDC)"
            )
        if self.kind in ("mp", "sm"):
            # Build the SimConfig now so schedule/parameter errors surface
            # at submission time, not inside a pool worker.
            self.sim_config()

    # -- derived forms -------------------------------------------------
    def schedule(self) -> Optional[UpdateSchedule]:
        """The mp job's update schedule (None for other kinds)."""
        if self.kind != "mp":
            return None
        return UpdateSchedule.from_flags(self.params)

    def sim_config(self) -> SimConfig:
        """The equivalent simulation row (mp/sm kinds only).

        Every parameter that is a :class:`SimConfig` field by name goes
        through (as an ``int`` / ``bool`` where the schema's default is
        one), so a new simulator keyword is one schema entry.
        """
        if self.kind not in ("mp", "sm"):
            raise ServiceError(f"{self.kind} jobs have no SimConfig form")
        schema = PARAM_SCHEMA[self.kind]
        row = {
            name: type(schema[name])(value) if isinstance(schema[name], int) else value
            for name, value in self.params.items()
            if name in _SIM_FIELDS
        }
        return SimConfig(kind=self.kind, schedule=self.schedule(), **row)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def job_fingerprint(spec: JobSpec) -> Dict[str, Any]:
    """Everything that determines this job's result, as a plain dict."""
    if spec.kind in ("mp", "sm"):
        # Reuse the sim-row fingerprint verbatim so a service job and the
        # harness row cache agree cell for cell.
        return {"unit": "service-job", "sim": sim_fingerprint(spec.sim_config())}
    if spec.kind == "experiment":
        return {
            "unit": "service-job",
            "kind": "experiment",
            "experiment_key": experiment_cache_key(
                spec.params["exp_id"], bool(spec.params["quick"])
            ),
        }
    circuit = simjobs._named_circuit(
        spec.params["which"], bool(spec.params["quick"]), spec.params["n_wires"]
    )
    return {
        "unit": "service-job",
        "kind": "route",
        "circuit": simjobs.circuit_fingerprint(circuit),
        "iterations": int(spec.params["iterations"]),
        "code": code_fingerprint(),
    }


def job_key(spec: JobSpec) -> str:
    """The content-addressed identity of one job."""
    return stable_hash(job_fingerprint(spec))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def route_payload(result) -> Dict[str, Any]:
    """JSON payload of a sequential routing run (shared with the CLI)."""
    return {
        "kind": "route",
        "quality": result.quality.as_dict(),
        "per_iteration_height": list(result.per_iteration_height),
        "work_cells": int(result.work_cells),
    }


def _experiment_payload(result: ExperimentResult) -> Dict[str, Any]:
    return jsonify(
        {"kind": "experiment", **result_to_payload(result), "passed": result.passed}
    )


def execute_job(spec: JobSpec, cache: Optional[ResultCache] = None) -> Dict[str, Any]:
    """Run one job to completion and return its JSON-safe payload.

    ``mp``/``sm`` rows and experiments run *through* the file cache when
    one is given, so warm configurations come back without simulating and
    fresh ones warm the cache for future CLI runs.
    """
    if spec.kind == "route":
        circuit = simjobs._named_circuit(
            spec.params["which"], bool(spec.params["quick"]), spec.params["n_wires"]
        )
        result = SequentialRouter(
            circuit, iterations=int(spec.params["iterations"])
        ).run()
        return route_payload(result)
    if spec.kind in ("mp", "sm"):
        run = simjobs.run_sim_configs([spec.sim_config()], jobs=1, cache=cache)[0]
        return jsonify({"kind": spec.kind, **run.summary_dict()})
    result, _record = run_one_cached(
        spec.params["exp_id"], bool(spec.params["quick"]), cache
    )
    return _experiment_payload(result)


def execute_job_in_worker(
    item: Tuple[JobSpec, Optional[str]],
) -> Tuple[Dict[str, Any], float]:
    """Pool task: run one ``(spec, cache_dir)`` job; ``(payload, wall_s)``."""
    spec, cache_dir = item
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    wall0 = time.perf_counter()
    payload = execute_job(spec, cache)
    return payload, time.perf_counter() - wall0


# ----------------------------------------------------------------------
# file-cache read-through
# ----------------------------------------------------------------------
def read_through(spec: JobSpec, cache: Optional[ResultCache]) -> Optional[Dict[str, Any]]:
    """Serve a job from the file cache without executing, if possible.

    Returns the payload on a hit, ``None`` on a miss (or for ``route``
    jobs, which have no file-cache namespace).  The caller persists hits
    into the repository, promoting legacy cache entries into the
    canonical store as they are touched.
    """
    if cache is None:
        return None
    if spec.kind in ("mp", "sm"):
        hit = cache.get_sim(sim_key(spec.sim_config()))
        if hit is None:
            return None
        return jsonify({"kind": spec.kind, **hit.summary_dict()})
    if spec.kind == "experiment":
        result = cached_experiment(
            spec.params["exp_id"], bool(spec.params["quick"]), cache
        )
        return None if result is None else _experiment_payload(result)
    return None
