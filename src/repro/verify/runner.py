"""The ``repro verify`` entry point.

Generates a deterministic benchmark circuit, runs the three-way
differential oracle on the paper's default sender-initiated schedule,
then puts the message passing simulator through additional checked runs
under the schedules that exercise the other update machinery — the
mixed §5.1.3 schedule (sender + receiver packets interleaved) and a
blocking receiver-initiated schedule (request/response plus the WAITING
node state).  Every invariant checker in :mod:`repro.verify.invariants`
fires on at least one of these runs.

Finally the four scalar-vs-vectorized kernel equivalence checks
(:mod:`repro.verify.kernels`: coherence, write-update, two-bend routing,
wave-front routing) replay each kernel pair in both modes and fail the
verdict on any divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuits.generate import bnre_like
from ..circuits.model import Circuit
from ..updates.schedule import UpdateSchedule
from .oracle import OracleReport, run_differential_oracle
from .violations import RunVerification, VerificationReport

__all__ = ["VerifyRun", "run_verification"]

#: Extra checked message passing runs beyond the oracle's sender-initiated
#: one: (label, schedule) — chosen to cover the request/response and
#: blocking paths the sender-initiated default never takes.
EXTRA_SCHEDULES: Tuple[Tuple[str, UpdateSchedule], ...] = (
    ("mixed", UpdateSchedule.mixed_example()),
    ("receiver-blocking", UpdateSchedule.receiver_initiated(2, 5, blocking=True)),
)


@dataclass
class VerifyRun:
    """Everything one ``repro verify`` invocation produced."""

    circuit: str
    n_procs: int
    iterations: int
    oracle: OracleReport
    #: label -> verification summary for the extra checked MP runs.
    extra_runs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: label -> scalar-vs-vectorized kernel equivalence results.
    kernel_checks: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: label -> live-execution check results (replay / quality / determinism).
    live_checks: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Merged totals across the oracle and every extra run.
    combined: VerificationReport = field(default_factory=VerificationReport)

    @property
    def ok(self) -> bool:
        return (
            self.oracle.ok
            and self.combined.ok
            and all(c["identical"] for c in self.kernel_checks.values())
            and all(c["ok"] for c in self.live_checks.values())
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "circuit": self.circuit,
            "n_procs": self.n_procs,
            "iterations": self.iterations,
            "oracle": self.oracle.as_dict(),
            "extra_runs": self.extra_runs,
            "kernel_checks": self.kernel_checks,
            "live_checks": self.live_checks,
            "combined": self.combined.as_dict(),
        }

    def render(self) -> str:
        lines = [
            f"repro verify: circuit={self.circuit} n_procs={self.n_procs} "
            f"iterations={self.iterations}",
            self.oracle.render(),
        ]
        for label, summary in self.extra_runs.items():
            status = "OK" if summary.get("ok") else "VIOLATIONS"
            lines.append(
                f"  extra run [{label}]: {status} "
                f"({summary.get('total_checks', 0)} checks, "
                f"{summary.get('total_violations', 0)} violations)"
            )
        for label, check in self.kernel_checks.items():
            status = "IDENTICAL" if check["identical"] else "DIVERGED"
            lines.append(
                f"  kernel equivalence [{label}]: {status} ({check['detail']})"
            )
        for label, check in self.live_checks.items():
            status = "OK" if check["ok"] else "FAIL"
            lines.append(f"  live execution [{label}]: {status} ({check['detail']})")
        lines.append(
            "verdict: " + ("PASS" if self.ok else "FAIL")
            + f" ({self.combined.total_checks} checks, "
            f"{self.combined.total_violations} violations)"
        )
        return "\n".join(lines)


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

    if circuit is None:
        circuit = bnre_like(n_wires=120) if quick else bnre_like()
    if n_procs is None:
        n_procs = 4 if quick else 16
    if iterations is None:
        iterations = 2 if quick else 3

    oracle = run_differential_oracle(
        circuit, n_procs=n_procs, iterations=iterations
    )
    run = VerifyRun(
        circuit=circuit.name,
        n_procs=n_procs,
        iterations=iterations,
        oracle=oracle,
    )
    run.combined.merge(oracle.verification)

    for label, schedule in EXTRA_SCHEDULES:
        result = run_message_passing(
            circuit,
            schedule,
            n_procs=n_procs,
            iterations=iterations,
            check_invariants=True,
        )
        run_ver = result.meta.get("verification_report")
        if isinstance(run_ver, RunVerification):
            run.extra_runs[label] = run_ver.report.as_dict()
            run.combined.merge(run_ver.report)

    from .kernels import run_kernel_equivalence

    run.kernel_checks = run_kernel_equivalence(
        circuit, n_procs=n_procs, iterations=iterations
    )

    from .live import run_live_checks

    run.live_checks = run_live_checks(circuit, n_procs=2, iterations=iterations)
    return run
