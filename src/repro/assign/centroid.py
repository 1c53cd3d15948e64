"""Centroid-based locality assignment — the paper's suggested improvement.

The paper's conclusions note that "more sophisticated wire assignment
heuristics may further improve quality and reduce traffic".  The simplest
such refinement: assign a wire to the owner of its *bounding-box centre*
instead of its leftmost pin.  A leftmost-pin rule systematically places a
wire at the left edge of its own footprint — every cell of the wire lies
at or to the right of its assigned processor — while the centroid rule
centres the footprint on the owner, roughly halving the expected
cell-to-owner distance for long wires.

:class:`CentroidAssigner` is otherwise identical to
:class:`~repro.assign.threshold.ThresholdCostAssigner` (same cost
measure, same ThresholdCost semantics, same LPT balancing of the long
tail), so the two heuristics compare one variable at a time — which is
what ablation A8 (``benchmarks/bench_experiments.py -k A8``) measures.
"""

from __future__ import annotations

from typing import Tuple

from ..circuits.model import Wire
from .threshold import ThresholdCostAssigner

__all__ = ["CentroidAssigner"]


class CentroidAssigner(ThresholdCostAssigner):
    """ThresholdCost assignment by bounding-box centre instead of leftmost pin."""

    @property
    def method_name(self) -> str:  # type: ignore[override]
        return f"Centroid/{super().method_name}"

    def _anchor(self, wire: Wire) -> Tuple[int, int]:
        c_lo, x_lo, c_hi, x_hi = wire.bounding_box
        return (c_lo + c_hi) // 2, (x_lo + x_hi) // 2
