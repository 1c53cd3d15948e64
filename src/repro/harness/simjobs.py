"""Per-row simulation jobs: the harness's inner level of parallelism.

The paper's tables (T1-T6, the X/F series, ablations A1, A3, A5 and A8) are
embarrassingly parallel: every row is one independent
``run_message_passing`` / ``run_shared_memory`` call.  This module gives
the experiment drivers a declarative way to say so — build a list of
:class:`SimConfig` records and hand it to :func:`run_sim_configs` (the
table builder in :mod:`repro.harness.experiments` does exactly that) —
which unlocks, transparently to the drivers:

- **fan-out**: rows execute across a process pool when the harness has
  configured inner jobs (:func:`configure`), serially otherwise;
- **row caching**: each config is content-addressed (circuit netlist
  digest, schedule fields, processor/iteration counts, cost-model
  fields, code digest), so overlapping sweeps and warm re-runs skip
  rows that were already computed — e.g. the sender-initiated ``(2, 10)``
  configuration appears in T1, T6, X3 and X5 but simulates once.

Results come back in config order either way, so driver code is
identical under every execution strategy.  Configuration is process
local; worker processes of the *outer* experiment pool inherit the
defaults (serial, cache from their own setup), so pools never nest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from ..assign import (
    Assignment,
    CentroidAssigner,
    DistributedLoop,
    RoundRobinAssigner,
    ThresholdCostAssigner,
)
from ..circuits import Circuit, bnre_like, mdc_like
from ..errors import ExperimentError
from ..faults.plan import FaultPlan
from ..grid import RegionMap
from ..parallel import run_message_passing, run_shared_memory
from ..parallel.results import ParallelRunResult
from ..parallel.timing import DEFAULT_COST_MODEL
from ..obs import telemetry as obs
from ..updates import UpdateSchedule
from .cache import (
    ResultCache,
    circuit_fingerprint,
    code_fingerprint,
    cost_model_fingerprint,
    stable_hash,
)
from .pool import in_pool_worker, pool_map

__all__ = [
    "ASSIGNERS",
    "SimConfig",
    "sim_fingerprint",
    "sim_key",
    "run_sim_config",
    "run_sim_configs",
    "configure",
]


def _static(assigner, **fields):
    return lambda circuit, regions: assigner(circuit, regions, **fields).assign()


#: ``SimConfig.assigner`` labels, each a ``(circuit, regions)`` function: the
#: Table 4/5 rows, A8's centroid policy, and A3's §4.2 dynamic distribution
#: (message passing only: a loop the wire assignment processor hands out).
ASSIGNERS = {
    "round robin": _static(RoundRobinAssigner),
    "TC=30": _static(ThresholdCostAssigner, threshold_cost=30),
    "TC=1000": _static(ThresholdCostAssigner, threshold_cost=1000),
    "TC=inf": _static(ThresholdCostAssigner, threshold_cost=math.inf),
    "centroid TC=1000": _static(CentroidAssigner, threshold_cost=1000),
    "dynamic": lambda circuit, regions: DistributedLoop(range(circuit.n_wires)),
}


@dataclass(frozen=True)
class SimConfig:
    """One independent simulation row of a sweep (picklable).

    ``kind`` selects the paradigm: ``"mp"`` (requires ``schedule``) or
    ``"sm"``.  The circuit is named, not embedded, so configs stay tiny
    on the wire: ``which`` is ``"bnrE"`` or ``"MDC"``, shrunk by ``quick``
    (:func:`_named_circuit` is the one place that knows the sizes), or
    overridden to ``n_wires`` wires (tests and smoke benches).
    """

    kind: str
    which: str = "bnrE"
    quick: bool = False
    n_wires: Optional[int] = None
    schedule: Optional[UpdateSchedule] = None
    n_procs: int = 16
    iterations: int = 3
    #: Static wire assignment, by its Table 4/5 row label (a key of
    #: :data:`ASSIGNERS`); ``None`` keeps each simulator's default.
    assigner: Optional[str] = None
    # shared memory only
    line_size: int = 8
    extra_line_sizes: Tuple[int, ...] = ()
    protocol: str = "invalidate"
    collect_trace: bool = True
    #: Run the repro.verify invariant checkers alongside the simulation.
    check_invariants: bool = False
    #: Fault-injection plan (message passing only); ``None`` = fault-free.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.kind not in ("mp", "sm"):
            raise ExperimentError(f"unknown sim kind {self.kind!r}")
        if self.kind == "mp" and self.schedule is None:
            raise ExperimentError("message passing configs need a schedule")
        if self.assigner is not None and self.assigner not in ASSIGNERS:
            raise ExperimentError(
                f"unknown assigner {self.assigner!r} (known: {', '.join(ASSIGNERS)})"
            )
        if self.kind == "sm" and self.assigner == "dynamic":
            raise ExperimentError(
                "shared memory already self-schedules from a distributed loop "
                "by default; leave assigner unset"
            )
        if self.kind == "sm" and self.faults is not None:
            raise ExperimentError(
                "fault injection targets the message passing network; "
                "shared memory configs cannot carry a FaultPlan"
            )


@lru_cache(maxsize=32)
def _named_circuit(which: str, quick: bool, n_wires: Optional[int]) -> Circuit:
    """Build (and memoise) the named benchmark circuit for a config.

    The only place that knows how far ``quick`` shrinks each circuit.
    """
    if which == "bnrE":
        base_quick_wires = 160
        maker = bnre_like
    elif which == "MDC":
        base_quick_wires = 200
        maker = mdc_like
    else:
        raise ExperimentError(f"unknown circuit {which!r}")
    if n_wires is not None:
        return maker(n_wires=n_wires)
    return maker(n_wires=base_quick_wires) if quick else maker()


@lru_cache(maxsize=32)
def _named_circuit_fingerprint(
    which: str, quick: bool, n_wires: Optional[int]
) -> str:
    return circuit_fingerprint(_named_circuit(which, quick, n_wires))


def sim_fingerprint(config: SimConfig) -> Dict[str, object]:
    """Everything that determines this row's result, as a plain dict."""
    return {
        "unit": "sim",
        "kind": config.kind,
        "circuit": _named_circuit_fingerprint(
            config.which, config.quick, config.n_wires
        ),
        "schedule": config.schedule,  # dataclass; jsonified by stable_hash
        "n_procs": config.n_procs,
        "iterations": config.iterations,
        "assigner": config.assigner,
        "line_size": config.line_size,
        "extra_line_sizes": config.extra_line_sizes,
        "protocol": config.protocol,
        "collect_trace": config.collect_trace,
        "check_invariants": config.check_invariants,
        "faults": config.faults,  # dataclass (or None); jsonified by stable_hash
        "cost_model": cost_model_fingerprint(DEFAULT_COST_MODEL),
        "code": code_fingerprint(),
    }


def sim_key(config: SimConfig) -> str:
    """The content-addressed cache key of one simulation config."""
    return stable_hash(sim_fingerprint(config))


def _run_sim_config_in_worker(
    config: SimConfig,
) -> Tuple[ParallelRunResult, Dict[str, object]]:
    """Pool-worker wrapper: run one config and report its telemetry.

    The worker's global telemetry is reset first (fork-started workers
    inherit the parent's counters, which the parent already owns), so
    the returned snapshot is exactly this task's delta.  A serial retry
    in the parent (see :func:`repro.harness.pool.in_pool_worker`) counts
    straight into the live telemetry and returns an empty snapshot.
    """
    in_worker = in_pool_worker()
    if in_worker:
        obs.reset()
    result = run_sim_config(config)
    return result, obs.snapshot() if in_worker else {}


def _assignment(
    config: SimConfig, circuit: Circuit
) -> Union[Assignment, DistributedLoop, None]:
    """Resolve ``config.assigner`` on *circuit* (``None``: simulator default)."""
    if config.assigner is None:
        return None
    regions = RegionMap(circuit.n_channels, circuit.n_grids, config.n_procs)
    return ASSIGNERS[config.assigner](circuit, regions)


def run_sim_config(config: SimConfig) -> ParallelRunResult:
    """Execute one simulation row (no caching; used by pool workers)."""
    circuit = _named_circuit(config.which, config.quick, config.n_wires)
    assignment = _assignment(config, circuit)
    if config.kind == "mp":
        return run_message_passing(
            circuit,
            config.schedule,
            assignment=assignment,
            n_procs=config.n_procs,
            iterations=config.iterations,
            check_invariants=config.check_invariants,
            faults=config.faults,
        )
    return run_shared_memory(
        circuit,
        assignment=assignment,
        n_procs=config.n_procs,
        iterations=config.iterations,
        line_size=config.line_size,
        extra_line_sizes=config.extra_line_sizes,
        protocol=config.protocol,
        collect_trace=config.collect_trace,
        check_invariants=config.check_invariants,
    )


# ----------------------------------------------------------------------
# harness-installed execution strategy (process local)
# ----------------------------------------------------------------------
@dataclass
class _Strategy:
    jobs: int = 1
    cache: Optional[ResultCache] = None
    timeout_s: Optional[float] = None


_STRATEGY = _Strategy()


def configure(
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    reset: bool = False,
) -> None:
    """Install the execution strategy the harness wants for sim rows.

    ``reset=True`` restores the defaults (serial, uncached) first; other
    arguments then override individual fields.  Drivers never call this —
    only the runner / parallel runner and tests do.
    """
    global _STRATEGY
    if reset:
        _STRATEGY = _Strategy()
    if jobs is not None:
        _STRATEGY.jobs = jobs
    if cache is not None:
        _STRATEGY.cache = cache
    if timeout_s is not None:
        _STRATEGY.timeout_s = timeout_s


def run_sim_configs(
    configs: List[SimConfig],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
) -> List[ParallelRunResult]:
    """Execute every config, in config order, with caching and fan-out.

    Explicit arguments override the :func:`configure`-installed strategy;
    the default (no configuration, no arguments) is serial and uncached —
    identical to calling the simulators directly.
    """
    jobs = _STRATEGY.jobs if jobs is None else jobs
    cache = _STRATEGY.cache if cache is None else cache
    timeout_s = _STRATEGY.timeout_s if timeout_s is None else timeout_s

    results: Dict[int, ParallelRunResult] = {}
    missing: List[int] = []
    keys: List[Optional[str]] = [None] * len(configs)
    if cache is not None:
        for i, config in enumerate(configs):
            keys[i] = sim_key(config)
            hit = cache.get_sim(keys[i])
            if hit is None:
                missing.append(i)
            else:
                results[i] = hit
    else:
        missing = list(range(len(configs)))

    if missing:
        if jobs > 1 and len(missing) > 1:
            # Pool workers carry their own telemetry globals; each task
            # returns a snapshot so the parent's counters stay complete.
            outs = pool_map(
                _run_sim_config_in_worker,
                [configs[i] for i in missing],
                jobs=jobs,
                timeout_s=timeout_s,
                label="sim config",
            )
            computed = []
            for result, tel_snapshot in outs:
                obs.get_telemetry().merge(tel_snapshot)
                computed.append(result)
        else:
            computed = pool_map(
                run_sim_config,
                [configs[i] for i in missing],
                jobs=1,
                timeout_s=timeout_s,
                label="sim config",
            )
        for i, result in zip(missing, computed):
            results[i] = result
            if cache is not None:
                cache.put_sim(keys[i], result)
    obs.incr("harness.sim_rows", len(configs))
    return [results[i] for i in range(len(configs))]
