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
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

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
from ..parallel.timing import DEFAULT_COST_MODEL, CostModel
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
    "CIRCUIT_CACHE_WIRES",
    "NamedCircuit",
    "named_circuit",
    "resolve_iterations",
    "run_params",
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
    (:func:`named_circuit` is the one place that knows the sizes), or
    overridden to ``n_wires`` wires (tests and smoke benches), and
    ``circuit_seed`` regenerates it from another generator seed
    (``None``: the canonical benchmark).  Unset ``iterations`` follow ``quick``.

    A field with ``metadata`` is a run parameter (:func:`run_params`): a
    command line flag and, where the service takes it, a job parameter.
    """

    kind: str
    which: str = field(
        default="bnrE", metadata=dict(flag="name", help="benchmark circuit (bnrE or MDC)")
    )
    quick: bool = field(
        default=False, metadata=dict(help="CI-scale run: shrunk circuits, 2 iterations")
    )
    n_wires: Optional[int] = field(
        default=None, metadata=dict(flag="wires", type=int, help="override wire count")
    )
    circuit_seed: Optional[int] = field(
        default=None, metadata=dict(type=int, help="circuit generator seed (default: canonical)")
    )
    schedule: Optional[UpdateSchedule] = None
    n_procs: int = field(default=16, metadata=dict(flag="procs", help="processors"))
    iterations: Optional[int] = field(
        default=None, metadata=dict(type=int, help="routing iterations")
    )
    #: Static wire assignment, by its Table 4/5 row label (a key of
    #: :data:`ASSIGNERS`); ``None`` keeps each simulator's default.
    assigner: Optional[str] = None
    # shared memory only
    line_size: int = field(default=8, metadata=dict(help="cache line size, bytes (sm)"))
    extra_line_sizes: Tuple[int, ...] = ()
    protocol: str = field(
        default="invalidate",
        metadata=dict(choices=list(PROTOCOLS), help="coherence protocol of the replay"),
    )
    collect_trace: bool = True
    check_invariants: bool = field(
        default=False, metadata=dict(help="run the repro.verify invariant checkers too")
    )
    #: Fault-injection plan (message passing only); ``None`` = fault-free.
    faults: Optional[FaultPlan] = None
    cost_model: CostModel = DEFAULT_COST_MODEL

    def __post_init__(self) -> None:
        if self.iterations is None:
            object.__setattr__(self, "iterations", resolve_iterations(self.quick))
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


def resolve_iterations(quick: bool, iterations: Optional[int] = None) -> int:
    """*iterations*, or the count of any run that names none: 2 if *quick*, else 3."""
    return (2 if quick else 3) if iterations is None else iterations


#: Wires the named-circuit memo holds at most.  A held circuit costs about
#: 4-5 KB per wire once its geometry and region tables exist, so this is
#: tens of megabytes; the entry just used always stays, however large.
CIRCUIT_CACHE_WIRES = 16_384

#: name -> (wires under ``quick``, wires of the canonical circuit): the
#: one place that knows how far ``quick`` shrinks each circuit.
_SIZES = {"bnrE": (160, 420), "MDC": (200, 573)}


class NamedCircuit(NamedTuple):
    """A built benchmark circuit and its ``circuit_fingerprint``."""

    circuit: Circuit
    fingerprint: str


class _CircuitMemo:
    """Least-recently-used named circuits, bounded by the wires they hold.

    A lock guards the bookkeeping only: a build runs outside it, and when
    two threads race on one key the later build is dropped, so every
    caller gets the stored entry.
    """

    def __init__(self, max_wires: int) -> None:
        self.max_wires = max_wires
        self.wires = 0
        self._entries: "OrderedDict[tuple, NamedCircuit]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, which: str, n_wires: int, seed: Optional[int]) -> NamedCircuit:
        key = (which, n_wires, seed)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        built = _build(which, n_wires, seed)
        with self._lock:
            obs.incr("circuits.named_builds")
            entry = self._entries.setdefault(key, built)
            if entry is built:
                self.wires += built.circuit.n_wires
            self._entries.move_to_end(key)
            while self.wires > self.max_wires and len(self._entries) > 1:
                _key, old = self._entries.popitem(last=False)
                self.wires -= old.circuit.n_wires
            return entry


def _build(which: str, n_wires: int, seed: Optional[int]) -> NamedCircuit:
    circuit = (bnre_like if which == "bnrE" else mdc_like)(seed=seed, n_wires=n_wires)
    return NamedCircuit(circuit, circuit_fingerprint(circuit))


_MEMO = _CircuitMemo(CIRCUIT_CACHE_WIRES)


def _after_fork_in_child() -> None:
    # The parent's lock may have been held by a thread the child lacks.
    _MEMO._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def named_circuit(
    which: str, quick: bool, n_wires: Optional[int], seed: Optional[int] = None
) -> NamedCircuit:
    """The named benchmark circuit of a config, built once per process.

    ``n_wires`` overrides the size; otherwise ``quick`` picks the shrunk
    one.  ``seed`` is the generator's (``None``: the canonical one).
    Requests that resolve to the same (name, wire count, seed) share one
    memo entry, whichever way they spelled it.
    """
    if which not in _SIZES:
        raise ExperimentError(f"unknown circuit {which!r}")
    if n_wires is None:
        quick_wires, full_wires = _SIZES[which]
        n_wires = quick_wires if quick else full_wires
    return _MEMO.get(which, n_wires, seed)


def run_params(*classes: type) -> Dict[str, Dict[str, Any]]:
    """The run parameters of the dataclasses *classes*, by flag name.

    A field is a run parameter when it carries ``metadata``: ``flag`` where
    the flag is named otherwise than the field, and the ``add_argument``
    keywords its default cannot imply (``type`` for a ``None`` default,
    ``choices``, ``metavar``, ``help``).  Each row holds those keywords,
    the field's own ``default`` (an enum's by value), the ``action`` or
    ``type`` that default implies, and ``field``, the field's name.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for cls in classes:
        for f in fields(cls):
            if not f.metadata:
                continue
            row = {k: v for k, v in f.metadata.items() if k != "flag"}
            default = f.default.value if isinstance(f.default, Enum) else f.default
            if isinstance(default, bool):
                row["action"] = "store_true"
            elif isinstance(default, (int, float)):
                row["type"] = type(default)
            rows[f.metadata.get("flag", f.name)] = dict(row, default=default, field=f.name)
    return rows


def _circuit(config: SimConfig) -> NamedCircuit:
    return named_circuit(config.which, config.quick, config.n_wires, config.circuit_seed)


def sim_fingerprint(config: SimConfig) -> Dict[str, object]:
    """Everything that determines this row's result, as a plain dict.

    Every :class:`SimConfig` field, read off the dataclass so a field
    added there cannot be forgotten here (``schedule`` and ``faults`` are
    dataclasses themselves; ``stable_hash`` jsonifies them), with the
    four fields that name the circuit replaced by its netlist digest and
    the cost model by its fields.
    """
    fingerprint = {
        f.name: getattr(config, f.name)
        for f in fields(SimConfig)
        if f.name not in ("which", "quick", "n_wires", "circuit_seed")
    }
    fingerprint.update(
        unit="sim",
        circuit=_circuit(config).fingerprint,
        cost_model=cost_model_fingerprint(config.cost_model),
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


def run_sim_config(config: SimConfig, circuit: Optional[Circuit] = None) -> ParallelRunResult:
    """Execute one simulation row, uncached: the one place a config becomes
    a simulator call.  *circuit* replaces the one the config names; as
    :func:`run_sim_configs` never passes one, such a run is never cached."""
    if circuit is None:
        circuit = _circuit(config).circuit
    assignment = _assignment(config, circuit)
    if config.kind == "mp":
        return run_message_passing(
            circuit,
            config.schedule,
            assignment=assignment,
            n_procs=config.n_procs,
            iterations=config.iterations,
            cost_model=config.cost_model,
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
        cost_model=config.cost_model,
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
