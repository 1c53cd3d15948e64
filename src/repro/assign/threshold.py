"""ThresholdCost locality-based wire assignment (paper §4.2).

"A cost measure is computed for each wire, based on its length.  Any wire
with cost less than the parameter ThresholdCost is assigned to the owner
processor of the wire's leftmost pin.  All longer wires, which have cost
greater than ThresholdCost and which have limited locality anyway, are
held until a final step in the static wire assignment phase, where they
are assigned to balance the load, ignoring locality."

Cost measure
------------
The wire cost estimates the *routing effort* the wire will demand: the
two-bend evaluation inspects O(span^2) candidate cells, so the measure is
``L + L**2 / WORK_QUADRATIC_SCALE`` with ``L`` the wire's chained
Manhattan length (:meth:`repro.circuits.model.Wire.length_cost`).  On the
benchmark circuits this puts the paper's parameter values in their
original regimes: ThresholdCost = 30 keeps the short local half of the
netlist locality-assigned, 1000 load-balances only the work-dominant long
tail (~15 % of wires), and infinity disables the balancing step entirely
— which is what produces the paper's Table 4 execution-time blow-up.

Load-balancing step
-------------------
Held wires are sorted by descending cost and greedily handed to the
currently least-loaded processor, where load is the summed cost of wires
assigned so far — the classic LPT heuristic.  Ties break to the lowest
processor id for determinism.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

import numpy as np

from ..circuits.model import Circuit, Wire
from ..errors import AssignmentError
from ..grid.regions import RegionMap
from .base import Assignment, WireAssigner

__all__ = ["ThresholdCostAssigner", "fully_local", "WORK_QUADRATIC_SCALE"]

#: Divisor of the quadratic term in the wire cost measure (see module
#: docstring); calibrated so the paper's ThresholdCost values of 30 and
#: 1000 land at ~45 % and ~85 % of the benchmark netlists respectively.
WORK_QUADRATIC_SCALE = 25.0


class ThresholdCostAssigner(WireAssigner):
    """Locality-first assignment with LPT balancing of long wires.

    Parameters
    ----------
    circuit, regions:
        As for every :class:`~repro.assign.base.WireAssigner`.
    threshold_cost:
        The ThresholdCost parameter, in physical cost units; use
        ``math.inf`` for the fully local extreme.
    """

    def __init__(
        self, circuit: Circuit, regions: RegionMap, threshold_cost: float
    ) -> None:
        super().__init__(circuit, regions)
        if threshold_cost <= 0:
            raise AssignmentError(f"threshold_cost must be positive, got {threshold_cost}")
        self.threshold_cost = threshold_cost

    @property
    def method_name(self) -> str:  # type: ignore[override]
        if math.isinf(self.threshold_cost):
            return "ThresholdCost=inf"
        return f"ThresholdCost={self.threshold_cost:g}"

    def wire_cost(self, wire_index: int) -> float:
        """The length-based cost measure of one wire (see module docstring).

        ``L + L**2 / WORK_QUADRATIC_SCALE``: linear in length for short
        nets, quadratic for long ones — tracking the two-bend router's
        actual evaluation effort, which is what load balancing must
        equalise.
        """
        length = float(self.circuit.wire(wire_index).length_cost())
        return length + length * length / WORK_QUADRATIC_SCALE

    def _anchor(self, wire: Wire) -> Tuple[int, int]:
        """The ``(channel, x)`` cell whose owner gets a local *wire*: the
        leftmost pin (subclasses anchor elsewhere)."""
        pin = wire.leftmost_pin
        return pin.channel, pin.x

    def assign(self) -> Assignment:
        """Assign local wires by their anchor's owner; LPT-balance the rest."""
        n = self.circuit.n_wires
        owner = np.full(n, -1, dtype=np.int64)
        loads = [0.0] * self.regions.n_procs
        held: List[tuple] = []

        for w in range(n):
            wire = self.circuit.wire(w)
            cost = self.wire_cost(w)
            if cost < self.threshold_cost:
                proc = self.regions.owner_of(*self._anchor(wire))
                owner[w] = proc
                loads[proc] += cost
            else:
                held.append((cost, w))

        # LPT: heaviest held wires first, each to the least-loaded processor.
        held.sort(key=lambda item: (-item[0], item[1]))
        heap = [(loads[p], p) for p in range(self.regions.n_procs)]
        heapq.heapify(heap)
        for cost, w in held:
            load, proc = heapq.heappop(heap)
            owner[w] = proc
            heapq.heappush(heap, (load + cost, proc))

        return Assignment(
            owner=owner, n_procs=self.regions.n_procs, method=self.method_name
        )


def fully_local(circuit: Circuit, regions: RegionMap) -> ThresholdCostAssigner:
    """Convenience constructor for the ThresholdCost = infinity extreme."""
    return ThresholdCostAssigner(circuit, regions, math.inf)
