"""Result records for parallel routing runs.

All four parallel engines — both simulators and their live twins —
produce a :class:`ParallelRunResult`: the final solution (quality
metrics plus the ground-truth cost array), the execution time, the
communication traffic (network bytes for message passing, coherence bus
bytes for shared memory; none for a live run), and enough detail for
the locality and load-balance analyses.  One ledger judges all four:
truth, paths, prices and quality come from
:class:`~repro.parallel.ledger.GroundTruthLedger`, fed by the simulators'
events or by the live runs' commit-log replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..grid.cost_array import CostArray
from ..memsim.stats import CoherenceStats
from ..netsim.stats import NetworkStats
from ..route.path import RoutePath
from ..route.quality import QualityReport

__all__ = ["ParallelRunResult", "NodeSummary"]


@dataclass(frozen=True)
class NodeSummary:
    """Per-processor accounting from one run."""

    proc: int
    wires_routed: int
    finish_time_s: float
    route_units: float
    commit_units: float
    assemble_units: float
    incorporate_units: float
    messages_sent: int
    messages_received: int
    blocked_time_s: float

    @property
    def total_units(self) -> float:
        """All work units this node performed."""
        return (
            self.route_units
            + self.commit_units
            + self.assemble_units
            + self.incorporate_units
        )

    @property
    def message_overhead_fraction(self) -> float:
        """Fraction of work spent assembling/disassembling packets."""
        total = self.total_units
        if total == 0:
            return 0.0
        return (self.assemble_units + self.incorporate_units) / total


@dataclass(frozen=True)
class ParallelRunResult:
    """Outcome of a parallel LocusRoute run (either paradigm).

    Attributes
    ----------
    paradigm:
        ``"message_passing"`` or ``"shared_memory"``, with ``"_live"``
        appended for a real-core run.
    quality:
        Final-solution quality (circuit height, occupancy factor).
    exec_time_s:
        Simulated makespan: when the last processor finished its last
        wire (including its update sends).  A live run reports the wall
        time of its routing phase (the whole run is ``meta["wall_s"]``).
    network:
        Network traffic stats (message passing runs; ``None`` otherwise).
    coherence:
        Bus traffic stats (shared memory runs; ``None`` otherwise).
    paths:
        Final routed path per wire index.
    wire_router:
        Which processor routed each wire in the *final* iteration.
    node_summaries:
        Per-processor accounting (one per worker slot in a live run;
        what a live driver does not measure is 0).
    truth:
        The ground-truth final cost array.
    meta:
        Run configuration echoes (schedule, assignment method, ...).
        A checked simulator run and every live run carry the ledger's
        verdict in ``meta["verification"]``.
    """

    paradigm: str
    quality: QualityReport
    exec_time_s: float
    paths: Dict[int, RoutePath]
    wire_router: np.ndarray
    node_summaries: List[NodeSummary]
    truth: CostArray
    network: Optional[NetworkStats] = None
    coherence: Optional[CoherenceStats] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def mbytes_transferred(self) -> float:
        """The paper's "MBytes Xfrd." column for this run."""
        if self.network is not None:
            return self.network.mbytes
        if self.coherence is not None:
            return self.coherence.mbytes
        return 0.0

    def table_row(self) -> Dict[str, object]:
        """The standard (height, occupancy, MBytes, time) results row."""
        return {
            "ckt_height": self.quality.circuit_height,
            "occupancy": self.quality.occupancy_factor,
            "mbytes": round(self.mbytes_transferred, 4),
            "time_s": round(self.exec_time_s, 4),
        }

    def summary_dict(self) -> Dict[str, object]:
        """A JSON-serialisable summary of the run (no bulky arrays).

        Used by the CLI's ``--json`` output and suitable for scripting
        over many runs; the full paths/truth arrays stay in memory only.
        """
        summary: Dict[str, object] = {
            "paradigm": self.paradigm,
            "quality": self.quality.as_dict(),
            "exec_time_s": self.exec_time_s,
            "mbytes_transferred": self.mbytes_transferred,
            "n_wires": len(self.paths),
            "nodes": [
                {
                    "proc": s.proc,
                    "wires_routed": s.wires_routed,
                    "finish_time_s": s.finish_time_s,
                    "total_units": s.total_units,
                    "messages_sent": s.messages_sent,
                    "messages_received": s.messages_received,
                    "blocked_time_s": s.blocked_time_s,
                }
                for s in self.node_summaries
            ],
            "meta": {
                k: v
                for k, v in self.meta.items()
                if isinstance(v, (str, int, float, bool, dict, list))
            },
        }
        if self.network is not None:
            summary["network"] = self.network.as_dict()
        if self.coherence is not None:
            summary["coherence"] = self.coherence.as_dict()
        return summary
