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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ServiceError
from ..harness import simjobs
from ..harness.cache import (
    ResultCache,
    code_fingerprint,
    jsonify,
    stable_hash,
)
from ..harness.experiments import EXPERIMENTS, run_experiment
from ..harness.pool import in_pool_worker
from ..harness.runner import (
    experiment_cache_key,
    payload_to_result,
    result_to_payload,
)
from ..harness.simjobs import SimConfig, sim_fingerprint, sim_key
from ..obs import telemetry as obs
from ..route import SequentialRouter
from ..updates import UpdateSchedule

__all__ = [
    "JOB_KINDS",
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
_PARAM_SCHEMA: Dict[str, Dict[str, Any]] = {
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
        schema = _PARAM_SCHEMA[kind]
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
        p = self.params
        return UpdateSchedule(
            send_loc_every=p["send_loc"],
            send_rmt_every=p["send_rmt"],
            req_loc_every=p["req_loc"],
            req_rmt_every=p["req_rmt"],
            blocking=bool(p["blocking"]),
        )

    def sim_config(self) -> SimConfig:
        """The equivalent simulation row (mp/sm kinds only)."""
        if self.kind not in ("mp", "sm"):
            raise ServiceError(f"{self.kind} jobs have no SimConfig form")
        p = self.params
        if self.kind == "mp":
            return SimConfig(
                kind="mp",
                which=p["which"],
                quick=bool(p["quick"]),
                n_wires=p["n_wires"],
                schedule=self.schedule(),
                n_procs=int(p["n_procs"]),
                iterations=int(p["iterations"]),
            )
        return SimConfig(
            kind="sm",
            which=p["which"],
            quick=bool(p["quick"]),
            n_wires=p["n_wires"],
            n_procs=int(p["n_procs"]),
            iterations=int(p["iterations"]),
            line_size=int(p["line_size"]),
            protocol=p["protocol"],
        )


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
    # experiment
    exp_id, quick = spec.params["exp_id"], bool(spec.params["quick"])
    result = None
    if cache is not None:
        cached = cache.get_experiment(experiment_cache_key(exp_id, quick))
        if cached is not None:
            result = payload_to_result(cached)
    if result is None:
        result = run_experiment(exp_id, quick=quick)
        if cache is not None:
            cache.put_experiment(
                experiment_cache_key(exp_id, quick), result_to_payload(result)
            )
    return jsonify(
        {"kind": "experiment", **result_to_payload(result), "passed": result.passed}
    )


def execute_job_in_worker(
    item: Tuple[JobSpec, Optional[str]],
) -> Tuple[Dict[str, Any], Dict[str, Any], float]:
    """Pool-worker entry: run one job, report payload + telemetry + wall.

    In a real pool worker the process-global telemetry is reset first
    (as in the harness pools) so the returned snapshot is exactly this
    job's delta for the daemon to merge.  When the salvage pool degrades
    to in-process execution (``jobs=1``, single item, serial retry) the
    increments land directly in the daemon's own telemetry, so resetting
    would wipe the daemon's counters and merging would double-count —
    an empty snapshot is returned instead.
    """
    spec, cache_dir = item
    in_worker = in_pool_worker()
    if in_worker:
        obs.reset()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    wall0 = time.perf_counter()
    payload = execute_job(spec, cache)
    wall = time.perf_counter() - wall0
    return payload, obs.snapshot() if in_worker else {}, wall


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
        cached = cache.get_experiment(
            experiment_cache_key(spec.params["exp_id"], bool(spec.params["quick"]))
        )
        if cached is None:
            return None
        result = payload_to_result(cached)
        return jsonify(
            {"kind": "experiment", **result_to_payload(result), "passed": result.passed}
        )
    return None
