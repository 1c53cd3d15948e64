"""Structured invariant-violation records and verification reports.

The verification layer never uses bare asserts: every failed check
becomes an :class:`InvariantViolation` carrying the machine-readable
context a debugging session needs — which invariant, the first differing
cell, the wire and processor involved, the virtual event timestamp, and
the expected/actual values.  Violations accumulate in a
:class:`VerificationReport`, which the simulators attach to their run
results (``meta["verification"]``) and the ``repro verify`` runner folds
into its exit status.

Telemetry: reports flush their check/violation totals into
:mod:`repro.obs` (``verify.checks``, ``verify.violations``, and
per-invariant ``verify.checks.<name>`` counters) once per run — one
batched increment, nothing per check — so harness runs record the
verification effort in ``BENCH_harness.json`` alongside events and
cache traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import telemetry as obs

__all__ = ["InvariantViolation", "VerificationReport"]

#: Detailed violations kept per invariant; the rest are counted but not
#: stored, so a systematically corrupted run cannot flood memory/output.
MAX_VIOLATIONS_PER_INVARIANT = 25


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant check, with enough context to localise it.

    Attributes
    ----------
    invariant:
        Name of the violated invariant (``"cost-conservation"``,
        ``"replica-convergence"``, ``"msi-legality"``, ...).
    message:
        Human-readable description of the failure.
    cell:
        First differing ``(channel, x)`` grid cell, when the invariant
        compares arrays.
    wire:
        Wire index involved (e.g. the earliest-committed wire covering
        the differing cell).
    proc:
        Processor / node / cache involved.
    event_time_s:
        Virtual time at which the violation was detected.
    expected, actual:
        The two sides of the failed comparison, when scalar.
    """

    invariant: str
    message: str
    cell: Optional[Tuple[int, int]] = None
    wire: Optional[int] = None
    proc: Optional[int] = None
    event_time_s: Optional[float] = None
    expected: Optional[float] = None
    actual: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (``None`` fields omitted)."""
        out: Dict[str, object] = {
            "invariant": self.invariant,
            "message": self.message,
        }
        for name in ("cell", "wire", "proc", "event_time_s", "expected", "actual"):
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def describe(self) -> str:
        """One-line rendering for CLI output."""
        parts = [f"[{self.invariant}] {self.message}"]
        if self.cell is not None:
            parts.append(f"cell=(c={self.cell[0]}, x={self.cell[1]})")
        if self.wire is not None:
            parts.append(f"wire={self.wire}")
        if self.proc is not None:
            parts.append(f"proc={self.proc}")
        if self.event_time_s is not None:
            parts.append(f"t={self.event_time_s:.6g}s")
        return "  ".join(parts)


@dataclass
class VerificationReport:
    """Accumulated checks and violations from one verified run.

    ``checks_run`` counts checks per invariant name (passed and failed
    alike); ``violations`` holds every failure in detection order.  The
    report is additive: :meth:`merge` folds another report in, so the
    ``verify`` runner can combine per-engine reports.  A checked run
    carries its report under ``meta["verification_report"]`` (and its
    JSON summary, :meth:`as_dict`, under ``meta["verification"]``).
    """

    checks_run: Dict[str, int] = field(default_factory=dict)
    violations: List[InvariantViolation] = field(default_factory=list)
    #: Violations dropped beyond :data:`MAX_VIOLATIONS_PER_INVARIANT`.
    suppressed: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations and not self.suppressed

    @property
    def total_violations(self) -> int:
        """Stored plus suppressed violations."""
        return len(self.violations) + sum(self.suppressed.values())

    @property
    def total_checks(self) -> int:
        """Total checks performed across all invariants."""
        return sum(self.checks_run.values())

    def count(self, invariant: str, n: int = 1) -> None:
        """Record *n* checks of *invariant* having run."""
        self.checks_run[invariant] = self.checks_run.get(invariant, 0) + n

    def check(self, invariant: str, ok: bool, message: str, **context) -> bool:
        """Count one check; record a violation when *ok* is false.

        Extra keyword arguments become :class:`InvariantViolation`
        fields.  Returns *ok* so callers can chain on the outcome.
        """
        self.count(invariant)
        if not ok:
            self.add(InvariantViolation(invariant=invariant, message=message, **context))
        return ok

    def add(self, violation: InvariantViolation) -> None:
        """Store a violation, or count it as suppressed past the cap."""
        name = violation.invariant
        stored = sum(1 for v in self.violations if v.invariant == name)
        if stored >= MAX_VIOLATIONS_PER_INVARIANT:
            self.suppressed[name] = self.suppressed.get(name, 0) + 1
        else:
            self.violations.append(violation)

    def merge(self, other: "VerificationReport") -> None:
        """Fold another report's checks and violations into this one."""
        for name, n in other.checks_run.items():
            self.count(name, n)
        for violation in other.violations:
            self.add(violation)
        for name, n in other.suppressed.items():
            self.suppressed[name] = self.suppressed.get(name, 0) + n

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary (used by ``meta["verification"]``)."""
        return {
            "ok": self.ok,
            "total_checks": self.total_checks,
            "total_violations": self.total_violations,
            "checks_run": dict(self.checks_run),
            "violations": [v.as_dict() for v in self.violations],
            "suppressed": dict(self.suppressed),
        }

    def flush_telemetry(self) -> None:
        """Batch-report totals into the global telemetry counters."""
        obs.incr("verify.checks", self.total_checks)
        obs.incr("verify.violations", self.total_violations)
        for name, n in self.checks_run.items():
            obs.incr(f"verify.checks.{name}", n)

    def render(self) -> str:
        """Printable multi-line summary."""
        lines = [
            f"verification: {self.total_checks} checks, "
            f"{self.total_violations} violations"
        ]
        for name in sorted(self.checks_run):
            lines.append(f"  {name}: {self.checks_run[name]} checks")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation.describe()}")
        for name, n in sorted(self.suppressed.items()):
            lines.append(f"  ... and {n} more {name} violations (suppressed)")
        return "\n".join(lines)

