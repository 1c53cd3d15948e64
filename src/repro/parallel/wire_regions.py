"""What a message passing node asks about a wire and the region grid.

How many segments a wire chains, which owned regions its bounding box
touches and where it overlaps each of them depend only on the circuit
and the processor mesh: not on the node asking, the iteration or the
cost array.  :func:`wire_region_table` answers all three for every wire
at once, from the :class:`~repro.route.wavefront.CircuitGeometry`
columns, and caches the table on the circuit per mesh shape — every node
of every run over that circuit indexes it by wire instead of building
boxes per wire per iteration.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..circuits.model import Circuit
from ..errors import GridError
from ..grid.bbox import BBox
from ..grid.regions import RegionMap
from ..route.wavefront import circuit_geometry

__all__ = ["WireRegionTable", "wire_region_table"]


class WireRegionTable:
    """Per-wire region geometry; every column is indexed by wire.

    ``n_segments[w]`` is the wire's two-pin segment count.  ``clips[w]``
    holds, for every region the wire's bounding box intersects (ascending),
    the pair ``(region, box ∩ region)`` — the area a look-ahead ReqRmtData
    asks that region's owner for.  The box is also the bounding box of any
    path routed for the wire (every segment's path spans the segment's
    columns and channels whatever bend column wins), so the same regions
    are the ones a rip-up or commit of the wire changes.
    """

    __slots__ = ("n_segments", "clips")

    def __init__(self, circuit: Circuit, regions: RegionMap) -> None:
        geom = circuit_geometry(circuit)
        self.n_segments: List[int] = np.diff(geom.seg_ptr).tolist()
        counts, owners, clips = regions.clip_boxes(geom.bbox)
        pairs = list(zip(owners.tolist(), [BBox(*row) for row in clips.tolist()]))
        ends = np.cumsum(counts).tolist()
        self.clips: List[Tuple[Tuple[int, BBox], ...]] = [
            tuple(pairs[end - n : end]) for n, end in zip(counts.tolist(), ends)
        ]


def wire_region_table(circuit: Circuit, regions: RegionMap) -> WireRegionTable:
    """The circuit's :class:`WireRegionTable` for *regions*' mesh, cached.

    The band edges follow from the circuit's grid and the mesh shape, so
    the cache (an attribute of the circuit, like its geometry) is keyed by
    the shape alone and outlives the per-run :class:`RegionMap` objects.
    """
    if regions.n_channels != circuit.n_channels or regions.n_grids != circuit.n_grids:
        raise GridError(f"{regions!r} does not cover the {circuit.shape} circuit grid")
    cache: Dict[Tuple[int, int], WireRegionTable] = getattr(circuit, "_mp_wire_regions", None)
    if cache is None:
        cache = {}
        object.__setattr__(circuit, "_mp_wire_regions", cache)
    key = (regions.p_rows, regions.p_cols)
    table = cache.get(key)
    if table is None:
        table = cache[key] = WireRegionTable(circuit, regions)
    return table
