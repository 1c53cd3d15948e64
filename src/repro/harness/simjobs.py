"""Per-row simulation jobs: the harness's inner level of parallelism.

The paper's tables (T1-T6, the X/F series, ablations A1, A3, A5 and A8) are
embarrassingly parallel: every row is one independent
``run_message_passing`` / ``run_shared_memory`` call.  This module gives
the experiment drivers a declarative way to say so — build a list of
:class:`SimConfig` records and hand it to :func:`run_sim_configs` (the
table builder in :mod:`repro.harness.experiments` does exactly that) —
which unlocks, transparently to the drivers:

- **fan-out**: rows execute across a process pool when the harness has
  installed inner jobs (:func:`strategy`), serially otherwise;
- **row caching**: each config is content-addressed (circuit netlist
  digest, schedule fields, processor/iteration counts, cost-model
  fields, code digest), so overlapping sweeps and warm re-runs skip
  rows that were already computed — e.g. the sender-initiated ``(2, 10)``
  configuration appears in T1, T6, X3 and X5 but simulates once.

Results come back in config order either way, so driver code is
identical under every execution strategy, and worker telemetry is the
pool's business (:mod:`repro.harness.pool`), not this module's.  The
strategy is process local and scoped (``with strategy(...)``); a worker
of the *outer* experiment pool installs its own (serial, its own cache
handle), so pools never nest.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple, Union

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
from ..parallel.sm_sim import PROTOCOLS
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
from .pool import pool_map

__all__ = [
    "ASSIGNERS",
    "SimConfig",
    "sim_fingerprint",
    "sim_key",
    "run_sim_config",
    "run_sim_configs",
    "strategy",
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
        if self.protocol not in PROTOCOLS:
            raise ExperimentError(
                f"unknown coherence protocol {self.protocol!r} "
                f"(known: {', '.join(PROTOCOLS)})"
            )
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
    """Everything that determines this row's result, as a plain dict.

    Every :class:`SimConfig` field, read off the dataclass so a field
    added there cannot be forgotten here (``schedule`` and ``faults`` are
    dataclasses themselves; ``stable_hash`` jsonifies them), with the
    three fields that name the circuit replaced by its netlist digest.
    """
    fingerprint = {
        f.name: getattr(config, f.name)
        for f in fields(SimConfig)
        if f.name not in ("which", "quick", "n_wires")
    }
    fingerprint.update(
        unit="sim",
        circuit=_named_circuit_fingerprint(config.which, config.quick, config.n_wires),
        cost_model=cost_model_fingerprint(DEFAULT_COST_MODEL),
        code=code_fingerprint(),
    )
    return fingerprint


def sim_key(config: SimConfig) -> str:
    """The content-addressed cache key of one simulation config."""
    return stable_hash(sim_fingerprint(config))


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
@dataclass(frozen=True)
class _Strategy:
    jobs: int = 1
    cache: Optional[ResultCache] = None
    timeout_s: Optional[float] = None


_STRATEGY = _Strategy()


@contextmanager
def strategy(
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
) -> Iterator[None]:
    """Install the execution strategy the harness wants for sim rows.

    Scoped: whatever was installed before is restored on exit, so a run
    that ends (or a pool task retried in the parent) cannot leave its
    cache handle behind for the next caller in the process.  Drivers
    never use this — only the runner, its pool task and tests do.
    """
    global _STRATEGY
    previous = _STRATEGY
    _STRATEGY = _Strategy(jobs=jobs, cache=cache, timeout_s=timeout_s)
    try:
        yield
    finally:
        _STRATEGY = previous


def run_sim_configs(
    configs: List[SimConfig],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
) -> List[ParallelRunResult]:
    """Execute every config, in config order, with caching and fan-out.

    Explicit arguments override the :func:`strategy`-installed one;
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
        computed = pool_map(
            run_sim_config,
            [configs[i] for i in missing],
            jobs=jobs,
            timeout_s=timeout_s,
            label="sim config",
        )
        for i, result in zip(missing, computed):
            results[i] = result
            if cache is not None:
                cache.put_sim(keys[i], result)
    obs.incr("harness.sim_rows", len(configs))
    return [results[i] for i in range(len(configs))]
