"""Load balance metrics over static assignments.

Paper §5.3.3: "wire assignment policies which strictly enforce locality can
lead to poor load balancing, with large execution time degradation."  The
metrics here quantify that: imbalance is the ratio of the heaviest
processor's work to the mean, where a wire's work is its routing cost
measure (the same length-based measure ThresholdCost uses), which tracks
the two-bend evaluation effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..circuits.model import Circuit
from .base import Assignment

__all__ = ["LoadReport", "load_report"]


@dataclass(frozen=True)
class LoadReport:
    """Load distribution of a static assignment.

    ``imbalance`` is ``max_load / mean_load`` (1.0 = perfect); ``makespan
    lower bound`` style reasoning applies: simulated execution time cannot
    beat the heaviest processor's routing work.
    """

    wires_per_proc: np.ndarray
    work_per_proc: np.ndarray
    imbalance: float
    max_wires: int
    min_wires: int

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict summary."""
        return {
            "wires_per_proc": self.wires_per_proc.tolist(),
            "work_per_proc": self.work_per_proc.tolist(),
            "imbalance": self.imbalance,
            "max_wires": self.max_wires,
            "min_wires": self.min_wires,
        }


def load_report(circuit: Circuit, assignment: Assignment) -> LoadReport:
    """Compute :class:`LoadReport` for *assignment* over *circuit*.

    Work is approximated by each wire's squared-ish routing effort proxy:
    the two-bend evaluation inspects O(span^2) candidate cells, so we use
    ``length_cost ** 2 / 100 + length_cost`` which tracks the router's
    actual :attr:`~repro.route.twobend.SegmentRoute.work_cells` closely
    while staying independent of the cost array state.
    """
    costs = circuit.length_costs().astype(np.float64)
    work = costs**2 / 100.0 + costs
    wires_per_proc = assignment.load_counts()
    work_per_proc = np.zeros(assignment.n_procs, dtype=np.float64)
    np.add.at(work_per_proc, assignment.owner, work)
    mean = float(work_per_proc.mean()) if assignment.n_procs else 0.0
    imbalance = float(work_per_proc.max() / mean) if mean > 0 else 1.0
    return LoadReport(
        wires_per_proc=wires_per_proc,
        work_per_proc=work_per_proc,
        imbalance=imbalance,
        max_wires=int(wires_per_proc.max()),
        min_wires=int(wires_per_proc.min()),
    )
