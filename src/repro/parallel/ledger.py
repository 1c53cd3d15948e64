"""The simulators' ground truth: one ledger of what is really routed.

Quality numbers come from the exact union of all committed paths,
maintained here in event order, never from a processor's view:

- the **truth array**, with strict rip-ups (removing a path that is not
  there is a driver bug, never staleness);
- each wire's **final path**, the processor that committed it, and its
  **price** — the true cost of the path at the time it was chosen (§3),
  whose sum over wires is the occupancy factor;
- ``ripped_pending``: wires ripped out of the truth array and not yet
  recommitted.  A crash can strand a wire there; whoever re-routes it
  must skip the (already done) rip-up, and a run that ends with one
  pending has lost a wire.

With ``check_invariants`` the ledger owns the run's verification report
and feeds the cost-conservation monitor from the same two calls.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits.model import Circuit
from ..errors import SimulationError
from ..grid.cost_array import CostArray
from ..route.path import RoutePath
from ..route.quality import QualityReport, circuit_height

__all__ = ["GroundTruthLedger"]


class GroundTruthLedger:
    """Truth array, final paths, commit-time prices and routers of one run."""

    def __init__(self, circuit: Circuit, engine: str, check_invariants: bool = False) -> None:
        self.n_wires = circuit.n_wires
        self.truth = CostArray(circuit.n_channels, circuit.n_grids)
        self.paths: Dict[int, RoutePath] = {}
        self.prices: Dict[int, int] = {}
        self.wire_router = np.zeros(circuit.n_wires, dtype=np.int64)
        self.ripped_pending: set = set()
        self.report = None
        self.monitor = None
        if check_invariants:
            # Imported lazily: repro.verify's oracle imports the simulators.
            from ..verify.invariants import CostConservationMonitor
            from ..verify.violations import VerificationReport

            self.report = VerificationReport()
            self.monitor = CostConservationMonitor(self.report, self.truth, engine=engine)

    def standing(self, wire_idx: int) -> Optional[RoutePath]:
        """The wire's path as it stands in the truth array.

        ``None`` when the wire was never routed, or was ripped up and not
        recommitted (there is nothing left to rip up).
        """
        if wire_idx in self.ripped_pending:
            return None
        return self.paths.get(wire_idx)

    @property
    def complete(self) -> bool:
        """Every wire has a path standing in the truth array."""
        return len(self.paths) >= self.n_wires and not self.ripped_pending

    def ripup(self, wire_idx: int, time: float) -> RoutePath:
        """Remove the wire's standing path from the truth array (strict)."""
        path = self.standing(wire_idx)
        if path is None:
            raise SimulationError(f"wire {wire_idx} has no standing path to rip up")
        self.truth.remove_path(path.flat_cells, strict=True)
        self.ripped_pending.add(wire_idx)
        if self.monitor is not None:
            self.monitor.on_ripup(wire_idx, path, time)
        return path

    def commit(self, proc: int, wire_idx: int, path: RoutePath, time: float) -> None:
        """Record *proc* committing *path* for the wire at *time*."""
        # Price the path against reality *before* adding the wire itself:
        # "the cost of the wire's path at the time it was chosen" (§3).
        self.prices[wire_idx] = self.truth.path_cost(path.flat_cells)
        self.truth.apply_path(path.flat_cells)
        self.paths[wire_idx] = path
        self.wire_router[wire_idx] = proc
        self.ripped_pending.discard(wire_idx)
        if self.monitor is not None:
            self.monitor.on_commit(wire_idx, path, time)

    def close(self, time: float) -> QualityReport:
        """End of run: every wire must stand; returns the quality measures."""
        if len(self.paths) != self.n_wires:
            raise SimulationError("not every wire was routed")
        if self.ripped_pending:
            raise SimulationError(
                f"wires {sorted(self.ripped_pending)} were ripped up but never "
                "rerouted (their rip-up survived a crash)"
            )
        if self.monitor is not None:
            self.monitor.at_end(self.paths, time)
        return QualityReport(
            circuit_height=circuit_height(self.truth),
            occupancy_factor=int(sum(self.prices.values())),
            total_wire_cells=self.truth.total_occupancy(),
        )

    def verification_meta(self) -> Dict[str, object]:
        """The ``meta`` entries of a checked run (none when unchecked)."""
        if self.report is None:
            return {}
        self.report.flush_telemetry()
        return {
            "verification": self.report.as_dict(),
            "verification_report": self.report,
        }
