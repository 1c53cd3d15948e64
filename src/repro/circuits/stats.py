"""Descriptive statistics over circuits.

The generators in :mod:`repro.circuits.generate` are calibrated against the
qualitative properties the paper relies on (short-net dominance, a long-net
tail, small pin counts).  This module computes those properties so tests can
assert them and so users can sanity-check their own circuits before
routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import CircuitError
from .model import Circuit

__all__ = ["CircuitStats", "compute_stats", "span_histogram"]


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics of a circuit's netlist.

    All lengths are in routing-grid units.
    """

    n_wires: int
    n_pins: int
    mean_pins_per_wire: float
    two_pin_fraction: float
    mean_x_span: float
    median_x_span: float
    p90_x_span: float
    max_x_span: int
    mean_length_cost: float
    max_length_cost: int
    long_wire_fraction: float  #: fraction of wires spanning > 25 % of chip width

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dict (for JSON dumps)."""
        return {
            "n_wires": self.n_wires,
            "n_pins": self.n_pins,
            "mean_pins_per_wire": self.mean_pins_per_wire,
            "two_pin_fraction": self.two_pin_fraction,
            "mean_x_span": self.mean_x_span,
            "median_x_span": self.median_x_span,
            "p90_x_span": self.p90_x_span,
            "max_x_span": self.max_x_span,
            "mean_length_cost": self.mean_length_cost,
            "max_length_cost": self.max_length_cost,
            "long_wire_fraction": self.long_wire_fraction,
        }


def _x_spans(circuit: Circuit) -> np.ndarray:
    """Every wire's horizontal span: its last pin's ``x`` less its first's."""
    return circuit.pin_x[circuit.pin_ptr[1:] - 1] - circuit.pin_x[circuit.pin_ptr[:-1]]


def compute_stats(circuit: Circuit) -> CircuitStats:
    """Compute :class:`CircuitStats` for *circuit* (which must have wires)."""
    if circuit.n_wires == 0:
        raise CircuitError("circuit has no wires")
    spans = _x_spans(circuit)
    pins = np.diff(circuit.pin_ptr)
    costs = circuit.length_costs()
    long_cut = 0.25 * circuit.n_grids
    return CircuitStats(
        n_wires=circuit.n_wires,
        n_pins=int(pins.sum()),
        mean_pins_per_wire=float(pins.mean()),
        two_pin_fraction=float((pins == 2).mean()),
        mean_x_span=float(spans.mean()),
        median_x_span=float(np.median(spans)),
        p90_x_span=float(np.percentile(spans, 90)),
        max_x_span=int(spans.max()),
        mean_length_cost=float(costs.mean()),
        max_length_cost=int(costs.max()),
        long_wire_fraction=float((spans > long_cut).mean()),
    )


def span_histogram(circuit: Circuit, n_bins: int = 10) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of horizontal wire spans, ``(counts, bin_edges)``."""
    return np.histogram(_x_spans(circuit), bins=n_bins, range=(0, circuit.n_grids))
