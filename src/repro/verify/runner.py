"""The ``repro verify`` entry point.

Generates a deterministic benchmark circuit, runs the three-way
differential oracle on the paper's default sender-initiated schedule,
then puts the message passing simulator through additional checked runs
under the schedules that exercise the other update machinery — the
mixed §5.1.3 schedule (sender + receiver packets interleaved) and a
blocking receiver-initiated schedule (request/response plus the WAITING
node state).  Every invariant checker in :mod:`repro.verify.invariants`
fires on at least one of these runs.

Then the four scalar-vs-vectorized kernel equivalence checks
(:mod:`repro.verify.kernels`: ``kernel-coherence``,
``kernel-write_update``, ``kernel-twobend``, ``kernel-wavefront``)
replay each kernel pair in both modes, and the live routers
(:mod:`repro.verify.live`) race real cores.  Every run's ledger report
and every check lands in the one report of the returned
:class:`VerifyRun`; any violation fails the verdict.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..circuits.generate import bnre_like
from ..circuits.model import Circuit
from ..updates.schedule import UpdateSchedule
from .oracle import VerifyRun, run_differential_oracle

__all__ = ["VerifyRun", "run_verification"]

#: Extra checked message passing runs beyond the oracle's sender-initiated
#: one — the mixed and the blocking receiver-initiated schedules cover the
#: request/response and blocking paths the sender-initiated default never
#: takes.
EXTRA_SCHEDULES: Tuple[UpdateSchedule, ...] = (
    UpdateSchedule.mixed_example(),
    UpdateSchedule.receiver_initiated(2, 5, blocking=True),
)


def run_verification(
    quick: bool = False,
    circuit: Optional[Circuit] = None,
    n_procs: Optional[int] = None,
    iterations: Optional[int] = None,
) -> VerifyRun:
    """Run the full verification sweep; see the module docstring.

    ``quick`` shrinks the circuit and processor count to CI scale
    (seconds, not minutes); explicit ``circuit``/``n_procs``/
    ``iterations`` override either preset.
    """
    from ..parallel.mp_sim import run_message_passing
    from .kernels import run_kernel_equivalence
    from .live import run_live_checks

    if circuit is None:
        circuit = bnre_like(n_wires=120) if quick else bnre_like()
    if n_procs is None:
        n_procs = 4 if quick else 16
    if iterations is None:
        iterations = 2 if quick else 3

    run = run_differential_oracle(circuit, n_procs=n_procs, iterations=iterations)
    for schedule in EXTRA_SCHEDULES:
        result = run_message_passing(
            circuit,
            schedule,
            n_procs=n_procs,
            iterations=iterations,
            check_invariants=True,
        )
        run.report.merge(result.meta["verification_report"])
    run.report.merge(
        run_kernel_equivalence(circuit, n_procs=n_procs, iterations=iterations)
    )
    run.report.merge(run_live_checks(circuit, n_procs=2, iterations=iterations))
    return run
