"""Observability: performance counters and wall/CPU span timers.

See :mod:`repro.obs.telemetry` for the model.  Typical use::

    from repro import obs

    obs.reset()
    run_message_passing(circuit, schedule)
    tel = obs.get_telemetry()
    print(tel.count("sim.events"), tel.rate("sim.events", "sim.mp"))
"""

from .profiling import hot_counters, memory_snapshot, profile_call
from .telemetry import (
    Telemetry,
    get_telemetry,
    incr,
    record_span,
    reset,
    snapshot,
    span,
)

__all__ = [
    "Telemetry",
    "get_telemetry",
    "hot_counters",
    "incr",
    "memory_snapshot",
    "profile_call",
    "record_span",
    "reset",
    "snapshot",
    "span",
]
