"""Sequential LocusRoute: the uniprocessor reference implementation.

This is the algorithm of paper §3 run on one processor: route every wire
once per iteration along its cheapest two-bend path, and from the second
iteration on, *rip up* the wire's previous path (decrement its cells)
before rerouting it.  "Performing several of these iterations, with all
wires routed once per iteration, improves the final solution quality."

The sequential router serves three roles in the reproduction:

1. the quality baseline every parallel configuration is compared against
   (it always sees a perfectly consistent cost array);
2. the work-unit oracle used to calibrate the execution-time model;
3. the reference for property tests (cost array == sum of path indicators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits.model import Circuit
from ..errors import RoutingError
from ..grid.cost_array import CostArray
from ..kernels import active_kernels
from .path import PathTable, RoutePath
from .quality import QualityReport, circuit_height
from .segments import WireRoute
from .twobend import route_wire
from .wavefront import route_iteration_wavefront

__all__ = ["SequentialRouter", "SequentialResult", "DEFAULT_ITERATIONS"]

#: Default rip-up-and-reroute iteration count.  Rose reports quality
#: saturating after a few iterations; three keeps runs fast while leaving
#: one full rip-up pass after the greedy first pass has settled.
DEFAULT_ITERATIONS = 3


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential routing run.

    ``paths`` maps wire index to its final :class:`RoutePath`, as a
    :class:`PathTable` that builds each path when it is looked up;
    ``quality`` summarises the final array; ``work_cells`` is total
    candidate-cell inspections (the calibration oracle);
    ``per_iteration_height`` shows the quality trajectory across
    iterations.
    """

    quality: QualityReport
    paths: PathTable
    work_cells: int
    per_iteration_height: List[int]
    cost: CostArray


class SequentialRouter:
    """Uniprocessor rip-up-and-reroute LocusRoute driver.

    Parameters
    ----------
    circuit:
        The circuit to route.
    iterations:
        Number of routing iterations (>= 1).
    """

    def __init__(self, circuit: Circuit, iterations: int = DEFAULT_ITERATIONS) -> None:
        if iterations < 1:
            raise RoutingError(f"need >= 1 iteration, got {iterations}")
        self.circuit = circuit
        self.iterations = iterations

    def run(self, wire_order: Optional[Sequence[int]] = None) -> SequentialResult:
        """Route the whole circuit and return the final solution.

        ``wire_order`` fixes the order wires are visited inside each
        iteration (defaults to index order).  The same order is used in
        every iteration, matching the original program's behaviour.
        """
        circuit = self.circuit
        order = list(wire_order) if wire_order is not None else list(range(circuit.n_wires))
        if sorted(order) != list(range(circuit.n_wires)):
            raise RoutingError("wire_order must be a permutation of all wire indices")

        cost = CostArray(circuit.n_channels, circuit.n_grids)
        table: Optional[PathTable] = None
        paths: Dict[int, RoutePath] = {}
        total_work = 0
        heights: List[int] = []
        occupancy = 0

        wavefront = active_kernels() == "vectorized" and circuit.n_wires > 0
        for iteration in range(self.iterations):
            if wavefront:
                # Batched wave-front routing: partitions this iteration's
                # wires into independence waves and routes each wave in
                # one fused NumPy step.  Bit-identical to the scalar loop
                # below (locusroute verify replays both).
                occupancy, work, table = route_iteration_wavefront(
                    cost, circuit, order, table, tie_break=iteration % 2
                )
                total_work += work
            else:
                occupancy = 0
                for wire_idx in order:
                    wire = circuit.wire(wire_idx)
                    if wire_idx in paths:
                        cost.remove_path(paths[wire_idx].flat_cells)
                    result: WireRoute = route_wire(
                        cost, wire, tie_break=iteration % 2
                    )
                    total_work += result.work_cells
                    occupancy += result.cost
                    cost.apply_path(result.path.flat_cells)
                    paths[wire_idx] = result.path
            heights.append(circuit_height(cost))
        if table is None:
            table = PathTable.from_paths(paths, circuit.n_grids)

        quality = QualityReport(
            circuit_height=heights[-1],
            occupancy_factor=occupancy,
            total_wire_cells=cost.total_occupancy(),
        )
        return SequentialResult(
            quality=quality,
            paths=table,
            work_cells=total_work,
            per_iteration_height=heights,
            cost=cost,
        )
