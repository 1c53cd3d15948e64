"""Consistency verification: invariant checkers and the differential oracle.

The machine-checked statement of the consistency guarantees the paper's
comparison rests on.  Three layers:

- :mod:`repro.verify.invariants` — checkers the simulators run under
  ``check_invariants=True`` (cost-array conservation, MSI coherence
  legality, wormhole flit conservation, delta-replica convergence);
- :mod:`repro.verify.oracle` — the three-way differential oracle between
  the sequential reference, the shared memory simulation, and the
  message passing simulation;
- :mod:`repro.verify.runner` — the ``repro verify`` sweep combining
  both across the update schedules that exercise every code path, plus
  the kernel-pair and live-router checks, into one
  :class:`VerificationReport`.

See ``docs/VERIFICATION.md`` for the invariant-to-paper-section map.
"""

from .invariants import (
    PROBE_INTERVAL,
    CoherenceInvariantChecker,
    CostConservationMonitor,
    NetworkInvariantMonitor,
    check_ownership_totality,
    check_replica_convergence,
    check_truth_is_path_union,
    first_differing_cell,
)
from .live import LIVE_MP_AGREEMENT, LIVE_QUALITY_TOLERANCE, run_live_checks
from .oracle import VerifyRun, run_differential_oracle
from .runner import run_verification
from .violations import InvariantViolation, VerificationReport

__all__ = [
    "PROBE_INTERVAL",
    "CoherenceInvariantChecker",
    "CostConservationMonitor",
    "NetworkInvariantMonitor",
    "check_ownership_totality",
    "check_replica_convergence",
    "check_truth_is_path_union",
    "first_differing_cell",
    "LIVE_MP_AGREEMENT",
    "LIVE_QUALITY_TOLERANCE",
    "run_live_checks",
    "run_differential_oracle",
    "VerifyRun",
    "run_verification",
    "InvariantViolation",
    "VerificationReport",
]
