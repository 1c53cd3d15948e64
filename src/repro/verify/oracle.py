"""The differential oracle between the two simulators.

Runs the same circuit and schedule through the sequential reference,
the shared memory simulation, and the message passing simulation, and
cross-checks the properties that must agree *regardless of consistency
regime* — the point of the paper is that the two parallel
implementations do the same routing work under different consistency
machinery, so any divergence in these properties is a bug, not a
finding:

- every engine routes exactly the same set of wires;
- every routed path covers all of its wire's pins;
- every engine's final cost array is exactly the union of its final
  paths (conservation — the parallel engines' ledgers check it at their
  end of run, the oracle checks the sequential router's; a failure
  names the first differing cell, the earliest wire covering it, and
  that wire's commit timestamp);
- the per-engine invariant checkers (coherence legality, flit
  conservation, replica convergence) all pass.

Every check lands in one :class:`VerificationReport`, carried by the
returned :class:`VerifyRun`; ``repro verify`` adds its further runs and
checks to the same report.  Quality metrics (circuit height, occupancy)
legitimately differ between engines — that divergence is the paper's
result, so the oracle reports them side by side but never fails on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..circuits.model import Circuit
from ..parallel.mp_sim import run_message_passing
from ..parallel.sm_sim import run_shared_memory
from ..route.engine import SequentialRouter
from ..updates.schedule import UpdateSchedule
from .invariants import check_truth_is_path_union
from .violations import VerificationReport

__all__ = ["VerifyRun", "run_differential_oracle"]


@dataclass
class VerifyRun:
    """One verdict: the engines' quality side by side and every check's report."""

    circuit: str
    n_procs: int
    iterations: int
    #: engine -> quality row (reported, never failed on).
    quality: Dict[str, Dict[str, object]] = field(default_factory=dict)
    report: VerificationReport = field(default_factory=VerificationReport)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def as_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "n_procs": self.n_procs,
            "iterations": self.iterations,
            "quality": self.quality,
            **self.report.as_dict(),
        }

    def render(self) -> str:
        lines = [
            f"repro verify: circuit={self.circuit} n_procs={self.n_procs} "
            f"iterations={self.iterations}"
        ]
        for engine, row in self.quality.items():
            cells = "  ".join(f"{k}={v}" for k, v in row.items())
            lines.append(f"  {engine:16s} {cells}")
        lines.append(self.report.render())
        lines.append(
            "verdict: " + ("PASS" if self.ok else "FAIL")
            + f" ({self.report.total_checks} checks, "
            f"{self.report.total_violations} violations)"
        )
        return "\n".join(lines)


def run_differential_oracle(
    circuit: Circuit,
    schedule: Optional[UpdateSchedule] = None,
    n_procs: int = 4,
    iterations: int = 2,
    line_size: int = 8,
) -> VerifyRun:
    """Run the three engines on *circuit* and cross-check them.

    ``schedule`` defaults to the paper's sender-initiated (2, 10)
    configuration.  Both parallel runs execute with their invariant
    checkers enabled; their ledgers' reports merge into the returned
    run's ``report`` beside the oracle's own cross-engine checks.
    """
    if schedule is None:
        schedule = UpdateSchedule.sender_initiated(2, 10)

    seq = SequentialRouter(circuit, iterations=iterations).run()
    sm = run_shared_memory(
        circuit,
        n_procs=n_procs,
        iterations=iterations,
        line_size=line_size,
        check_invariants=True,
    )
    mp = run_message_passing(
        circuit,
        schedule,
        n_procs=n_procs,
        iterations=iterations,
        check_invariants=True,
    )

    quality = {
        "sequential": {
            "ckt_height": seq.quality.circuit_height,
            "occupancy": seq.quality.occupancy_factor,
        },
        "shared_memory": {
            "ckt_height": sm.quality.circuit_height,
            "occupancy": sm.quality.occupancy_factor,
            "time_s": round(sm.exec_time_s, 6),
        },
        "message_passing": {
            "ckt_height": mp.quality.circuit_height,
            "occupancy": mp.quality.occupancy_factor,
            "time_s": round(mp.exec_time_s, 6),
        },
    }
    run = VerifyRun(circuit.name, n_procs, iterations, quality=quality)

    # The parallel runs' ledgers checked per-commit and end-of-run
    # conservation (truth == union of final paths), coherence legality,
    # flit conservation and replica convergence.
    run.report.merge(sm.meta["verification_report"])
    run.report.merge(mp.meta["verification_report"])

    # The oracle's own cross-engine checks.  (The simulators flush their
    # run reports' telemetry themselves; this one is flushed here.)
    own = VerificationReport()
    engines = {
        "sequential": seq.paths,
        "shared_memory": sm.paths,
        "message_passing": mp.paths,
    }

    # 1. identical wire sets everywhere
    expected_wires = set(range(circuit.n_wires))
    for engine, paths in engines.items():
        missing = expected_wires - set(paths)
        extra = set(paths) - expected_wires
        own.check(
            "wire-set",
            not missing and not extra,
            f"{engine}: routed wire set mismatch "
            f"(missing={sorted(missing)[:5]}, extra={sorted(extra)[:5]})",
            wire=min(missing | extra) if (missing or extra) else None,
        )

    # 2. every path covers its wire's pins
    for engine, paths in engines.items():
        for wire_idx in sorted(paths):
            cells = set(paths[wire_idx].flat_cells.tolist())
            bad_pin = next(
                (
                    pin
                    for pin in circuit.wire(wire_idx).pins
                    if pin.channel * circuit.n_grids + pin.x not in cells
                ),
                None,
            )
            own.check(
                "pin-coverage",
                bad_pin is None,
                f"{engine}: routed path misses pin"
                + (f" ({bad_pin.channel}, {bad_pin.x})" if bad_pin else ""),
                cell=None if bad_pin is None else (bad_pin.channel, bad_pin.x),
                wire=wire_idx,
            )

    # 3. sequential conservation: cost == union of final paths (the
    # parallel engines' ledgers made this check at their end of run)
    check_truth_is_path_union(own, seq.cost, seq.paths, engine="sequential")

    own.flush_telemetry()
    run.report.merge(own)
    return run
