"""Job specifications for the routing service.

A *job* is one unit of work a client can submit to the daemon: a
sequential routing run (``route``), one simulated parallel run
(``mp`` / ``sm``, exactly a :class:`~repro.harness.simjobs.SimConfig`
row), or a whole paper experiment (``experiment``).  Each job is
identified by the same content-addressed fingerprint discipline as the
result cache — :func:`job_key` hashes every input that determines the
output, including the package source digest — so the repository, the
in-flight dedup map, and the result cache all agree on what "the same
job" means.

Cache layering (docs/SERVICE.md):

1. the SQLite repository is canonical — a hit there never re-executes;
2. a repository miss is queued and executed (:func:`execute_job`), which
   runs through the result cache (:class:`~repro.harness.cache.ResultCache`)
   for ``mp``/``sm``/``experiment`` kinds: a warm entry is answered
   without simulating, a cold one is computed and warms the cache, and
   the payload is the same either way.

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
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from ..errors import ServiceError
from ..harness import simjobs
from ..harness.cache import (
    ResultCache,
    code_fingerprint,
    jsonify,
    stable_hash,
)
from ..harness.experiments import EXPERIMENTS
from ..harness.runner import experiment_cache_key, result_to_payload, run_one_cached
from ..harness.simjobs import SimConfig, sim_fingerprint

# Not called here: the end-to-end benchmark's tracer wraps
# ``repro.service.jobs.sim_key`` as a ``harness.fingerprint`` seam, and
# tests/test_benchmark_seams.py::test_every_seam_resolves_to_a_binding
# fails without this binding.
from ..harness.simjobs import sim_key  # noqa: F401
from ..memsim import WORD_BYTES, WriteBackInvalidate
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

#: Inclusive bounds of the integer parameters, checked at submission so
#: a pool worker is never handed a job it cannot run or one that
#: allocates without limit: the largest circuit CI routes, the coherence
#: engines' processor limit, and a handful of rip-up iterations.  A node
#: resets its period counters only when it sends, and no node routes more
#: than ``MAX_WIRES * MAX_ITERATIONS`` wire instances, so a longer update
#: period never fires: it would only give one result many fingerprints.
MAX_WIRES = 100_000
MAX_ITERATIONS = 10
_BOUNDS = {
    "n_wires": (1, MAX_WIRES),
    "n_procs": (1, WriteBackInvalidate.MAX_PROCS),
    "iterations": (1, MAX_ITERATIONS),
    **{
        period: (1, MAX_WIRES * MAX_ITERATIONS)
        for period in ("send_loc", "send_rmt", "req_loc", "req_rmt")
    },
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
        schema = PARAM_SCHEMA[kind]
        params = params or {}
        if not isinstance(params, dict):
            raise ServiceError(f"{kind} job parameters must be a JSON object")
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise ServiceError(
                f"unknown parameter(s) for {kind} jobs: {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(schema))})"
            )
        canonical: Dict[str, Any] = {}
        for name, default in schema.items():
            if name in params:
                canonical[name] = _typed(kind, name, default, params[name])
            elif default is ...:
                raise ServiceError(f"{kind} jobs require the {name!r} parameter")
            else:
                canonical[name] = default
        spec = cls(kind=kind, params=canonical)
        spec._validate()
        return spec

    def _validate(self) -> None:
        for name, (lo, hi) in _BOUNDS.items():
            value = self.params.get(name)
            if value is not None and not lo <= value <= hi:
                raise ServiceError(
                    f"parameter {name!r} of {self.kind} jobs must be in "
                    f"[{lo}, {hi}], got {value}"
                )
        line_size = self.params.get("line_size")
        if line_size is not None and (line_size < WORD_BYTES or line_size & (line_size - 1)):
            raise ServiceError(
                f"parameter 'line_size' of {self.kind} jobs must be a power of "
                f"two >= {WORD_BYTES}, got {line_size}"
            )
        if self.kind == "experiment":
            exp_id = self.params["exp_id"].upper()
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
        through, so a new simulator keyword is one schema entry.
        """
        if self.kind not in ("mp", "sm"):
            raise ServiceError(f"{self.kind} jobs have no SimConfig form")
        row = {name: value for name, value in self.params.items() if name in _SIM_FIELDS}
        return SimConfig(kind=self.kind, schedule=self.schedule(), **row)


def _typed(kind: str, name: str, default: Any, value: Any) -> Any:
    """*value* if it has the JSON type of the parameter's schema default:
    a boolean for a boolean, an integer (not a boolean) for an integer,
    an integer or ``null`` for a ``None`` default, a string otherwise."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok, wanted = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, wanted = is_int, "an integer"
    elif default is None:
        ok, wanted = is_int or value is None, "an integer or null"
    else:
        ok, wanted = isinstance(value, str), "a string"
    if not ok:
        raise ServiceError(
            f"parameter {name!r} of {kind} jobs must be {wanted}, got {value!r}"
        )
    return value


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
    return {
        "unit": "service-job",
        "kind": "route",
        "circuit": simjobs._named_circuit_fingerprint(
            spec.params["which"], bool(spec.params["quick"]), spec.params["n_wires"]
        ),
        "iterations": int(spec.params["iterations"]),
        "code": code_fingerprint(),
    }


def job_key(spec: JobSpec) -> str:
    """The content-addressed identity of one job.

    Memoised per process on the canonical parameters and the code digest,
    so a repeat submission costs a lookup, not a re-hash, and a changed
    digest gives a fresh key.  :meth:`JobSpec.from_params` gives every
    parameter one JSON type, so equal tuples are equal fingerprints.
    """
    return _job_key(spec.kind, tuple(spec.params.items()), code_fingerprint())


#: Distinct jobs whose keys one process remembers.
KEY_CACHE_SIZE = 4096


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _job_key(kind: str, params: Tuple[Tuple[str, Any], ...], _code: str) -> str:
    return stable_hash(job_fingerprint(JobSpec(kind, dict(params))))


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

    ``mp``/``sm`` rows and experiments run *through* the result cache when
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
    return jsonify(
        {"kind": "experiment", **result_to_payload(result), "passed": result.passed}
    )


def execute_job_in_worker(
    item: Tuple[JobSpec, Optional[str]],
) -> Tuple[Dict[str, Any], float]:
    """Pool task: run one ``(spec, cache_dir)`` job; ``(payload, wall_s)``."""
    spec, cache_dir = item
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    wall0 = time.perf_counter()
    payload = execute_job(spec, cache)
    return payload, time.perf_counter() - wall0

