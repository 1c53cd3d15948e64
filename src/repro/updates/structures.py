"""The three §4.3.1 update-packet structures.

The paper weighs three encodings for cost-array updates before choosing
the third:

1. **Wire-based** — "coordinates of the start and end points of each
   horizontal or vertical segment of the wire, along with a flag
   indicating whether this wire had been ripped up ... or routed".
   Compact when few wires changed; payload grows with change *count*, not
   change *area*.
2. **Full-region** — "the values of an entire region of the cost array
   owned by one of the processors".  Trivial to assemble and apply, but
   every update costs the whole region.
3. **Bounding-box** (the paper's choice, and this package's default) —
   scan the delta array, send the bounding box of the changes plus its
   coordinates.

All three carry the *same information*; the simulators always apply
updates through the bbox/values mechanism, and the structure choice
changes the accounted wire bytes (and the assembly/disassembly work) —
exactly the tradeoff the paper discusses.  The
A1 ablation (``benchmarks/bench_experiments.py -k A1``) regenerates that
comparison.
"""

from __future__ import annotations

import enum

from ..errors import ProtocolError

__all__ = [
    "PacketStructure",
    "WIRE_RECORD_BYTES",
    "SEGMENT_RECORD_BYTES",
    "wire_based_bytes",
]


class PacketStructure(enum.Enum):
    """How data-carrying update packets are encoded on the wire."""

    WIRE_BASED = "wire-based"
    FULL_REGION = "full-region"
    BOUNDING_BOX = "bounding-box"


#: Per changed wire: a wire id plus the routed/ripped-up flag.
WIRE_RECORD_BYTES = 4
#: Per two-bend segment: (x1, c1, x2, c2, xv) as 16-bit coordinates.
SEGMENT_RECORD_BYTES = 10


def wire_based_bytes(n_wires: int, n_segments: int) -> int:
    """Payload bytes of a wire-based update describing the given changes."""
    if n_wires < 0 or n_segments < 0:
        raise ProtocolError("change counts cannot be negative")
    return WIRE_RECORD_BYTES * n_wires + SEGMENT_RECORD_BYTES * n_segments
