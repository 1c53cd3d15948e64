"""The LocusRoute router core: two-bend evaluation, rip-up/reroute engine,
quality metrics, the locality measure, and work accounting."""

from .engine import DEFAULT_ITERATIONS, SequentialResult, SequentialRouter
from .locality import LocalityReport, locality_measure
from .path import PathTable, RoutePath
from .quality import QualityReport, circuit_height, track_profile
from .twobend import SegmentRoute, WireRoute, route_segment, route_wire, segment_cells
from .workmodel import (
    COMMIT_CELL_UNITS,
    INCORPORATE_CELL_UNITS,
    SCAN_CELL_UNITS,
    WorkCounter,
)

__all__ = [
    "RoutePath",
    "PathTable",
    "SegmentRoute",
    "WireRoute",
    "route_segment",
    "route_wire",
    "segment_cells",
    "SequentialRouter",
    "SequentialResult",
    "DEFAULT_ITERATIONS",
    "QualityReport",
    "circuit_height",
    "track_profile",
    "LocalityReport",
    "locality_measure",
    "WorkCounter",
    "COMMIT_CELL_UNITS",
    "SCAN_CELL_UNITS",
    "INCORPORATE_CELL_UNITS",
]
