"""The paper's contribution: parallel LocusRoute in both paradigms.

:func:`run_message_passing` — the CBS-style message passing simulation
(per-processor views, delta arrays, explicit update strategies, wormhole
network).  :func:`run_shared_memory` — the Tango-style shared memory
simulation (one global cost array, virtual-time multiplexing, reference
traces, cache coherence traffic).  Their real-core twins live in
:mod:`repro.parallel.live`, imported only by whoever runs one.
"""

from .mp_sim import default_assignment, run_message_passing
from .node import MPNode, NodePhase, NodeServices
from .results import NodeSummary, ParallelRunResult
from .sm_sim import DEFAULT_LINE_SIZE, run_shared_memory
from .timing import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "run_message_passing",
    "run_shared_memory",
    "default_assignment",
    "ParallelRunResult",
    "NodeSummary",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_LINE_SIZE",
    "MPNode",
    "NodeServices",
    "NodePhase",
]
