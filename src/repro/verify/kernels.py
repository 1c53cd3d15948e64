"""Scalar-vs-vectorized kernel equivalence checks for ``locusroute verify``.

The vectorised kernels (:mod:`repro.memsim.columnar`, the fused two-bend
router, the wave-front engine, the message passing update push) promise
*bit-identical* output to their scalar reference counterparts.  The
hypothesis suites fuzz that promise; this module re-verifies it at
``locusroute verify`` time on workloads derived from the verify run's
own circuit, so a verification sweep also certifies the kernel pair the
simulators are about to dispatch to.

Each pair is one ``kernel-<label>`` check of a
:class:`~repro.verify.violations.VerificationReport`: its ``_*_check``
returns what diverged (the violation's message) or ``None``, and any
violation fails the overall verify verdict.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuits.model import Circuit
from ..grid.cost_array import CostArray
from ..kernels import use_kernels
from .violations import VerificationReport

__all__ = ["run_kernel_equivalence"]

#: Line sizes swept by the coherence check (the Table 3 sweep's range).
LINE_SIZES = (4, 8, 16, 32)


def _circuit_trace(circuit: Circuit, n_procs: int):
    """A deterministic trace with real sharing: each wire's pin cells are
    touched by a processor chosen from the wire index, alternating read
    bursts with the occasional write burst (the cost-array update pattern
    the shared memory router produces)."""
    from ..memsim.trace import ReferenceTrace

    trace = ReferenceTrace()
    for idx in range(circuit.n_wires):
        wire = circuit.wire(idx)
        cells = np.array(
            [pin.channel * circuit.n_grids + pin.x for pin in wire.pins],
            dtype=np.int64,
        )
        trace.add(float(2 * idx), idx % n_procs, False, cells)
        if idx % 3 == 0:
            trace.add(float(2 * idx + 1), (idx + 1) % n_procs, True, cells)
    return trace


def _replay_check(circuit: Circuit, n_procs: int, scalar, columnar) -> Optional[str]:
    """``scalar(trace, n_procs, amap)`` vs ``columnar(flat, n_procs, amap)``
    over the line-size sweep of one circuit-derived trace."""
    from ..memsim.addressing import AddressMap
    from ..memsim.columnar import ColumnarTrace

    trace = _circuit_trace(circuit, n_procs)
    flat = ColumnarTrace.from_trace(trace)
    diverged: List[int] = []
    for ls in LINE_SIZES:
        amap = AddressMap(circuit.n_channels, circuit.n_grids, ls)
        if scalar(trace, n_procs, amap) != columnar(flat, n_procs, amap):
            diverged.append(ls)
    if diverged:
        return f"stats diverged at line sizes {diverged}"
    return None


def _coherence_check(circuit: Circuit, n_procs: int) -> Optional[str]:
    """Scalar MSI replay vs columnar replay on a circuit-derived trace."""
    from ..memsim.coherence import simulate_trace
    from ..memsim.columnar import ColumnarTrace

    return _replay_check(circuit, n_procs, simulate_trace, ColumnarTrace.replay)


def _write_update_check(circuit: Circuit, n_procs: int) -> Optional[str]:
    """Scalar ``WriteUpdate`` vs the columnar write-update replay."""
    from ..memsim.columnar import ColumnarTrace
    from ..memsim.update_protocol import simulate_trace_write_update

    def scalar(trace, n_procs, amap):
        with use_kernels("reference"):
            return simulate_trace_write_update(trace, n_procs, amap)

    return _replay_check(circuit, n_procs, scalar, ColumnarTrace.replay_write_update)


def _twobend_check(circuit: Circuit, iterations: int) -> Optional[str]:
    """Reference vs fused lone-wire router through rip-up/reroute churn."""
    from ..route.twobend import route_wire_reference
    from ..route.wavefront import route_wire_fused

    def churn(router) -> Tuple[bytes, Tuple]:
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        paths = {}
        cells: List[Tuple[int, ...]] = []
        for iteration in range(iterations):
            for idx in range(circuit.n_wires):
                if idx in paths:
                    cost.remove_path(paths[idx].flat_cells)
                result = router(cost, circuit.wire(idx), tie_break=iteration % 2)
                cost.apply_path(result.path.flat_cells)
                paths[idx] = result.path
                cells.append(tuple(result.path.flat_cells.tolist()))
        return cost.data.tobytes(), tuple(cells)

    if churn(route_wire_reference) != churn(route_wire_fused):
        return "paths or final cost array diverged"
    return None


def _wavefront_check(circuit: Circuit, iterations: int) -> Optional[str]:
    """Wave-front batched engine vs the scalar sequential loop.

    Runs the full :class:`SequentialRouter` under both kernel modes —
    the vectorised mode routes each iteration in disjoint-footprint
    waves through one fused evaluation — and demands bit-identical
    paths, work accounting, occupancy, and final cost array.
    """
    from ..route.engine import SequentialRouter

    def run() -> Tuple:
        result = SequentialRouter(circuit, iterations=max(iterations, 2)).run()
        paths = tuple(
            tuple(result.paths[i].flat_cells.tolist())
            for i in sorted(result.paths)
        )
        return (
            result.quality,
            result.work_cells,
            tuple(result.per_iteration_height),
            result.cost.data.tobytes(),
            paths,
        )

    with use_kernels("reference"):
        ref = run()
    with use_kernels("vectorized"):
        vec = run()
    if ref != vec:
        return "wave-front routing diverged from the sequential loop"
    return None


def _mp_push_check(circuit: Circuit, n_procs: int, iterations: int) -> Optional[str]:
    """The message passing update push under both modes.

    The reference push scans every remote region of the delta array; the
    vectorised one reads only the candidate boxes the node's own writes
    reached.  A sender-initiated and a mixed run must send the same
    packets at the same simulated times.
    """
    from ..harness.simjobs import SimConfig, run_sim_config
    from ..updates import UpdateSchedule

    def run(schedule: UpdateSchedule) -> Tuple:
        config = SimConfig(kind="mp", schedule=schedule, n_procs=n_procs, iterations=iterations)
        result = run_sim_config(config, circuit)
        return (
            dict(result.network.bytes_by_kind),
            dict(result.network.messages_by_kind),
            result.exec_time_s,
            result.node_summaries,
        )

    diverged = []
    for label, schedule in (
        ("sender", UpdateSchedule.sender_initiated(2, 10)),
        ("mixed", UpdateSchedule.mixed_example()),
    ):
        with use_kernels("reference"):
            ref = run(schedule)
        with use_kernels("vectorized"):
            vec = run(schedule)
        if ref != vec:
            diverged.append(label)
    if diverged:
        return f"packets or timing diverged under {diverged}"
    return None


def run_kernel_equivalence(
    circuit: Circuit, n_procs: int, iterations: int = 2
) -> VerificationReport:
    """Run every kernel equivalence check: one ``kernel-<label>`` check each."""
    report = VerificationReport()
    failures = {
        "coherence": _coherence_check(circuit, n_procs),
        "write_update": _write_update_check(circuit, n_procs),
        "twobend": _twobend_check(circuit, iterations),
        "wavefront": _wavefront_check(circuit, iterations),
        "mp_push": _mp_push_check(circuit, n_procs, iterations),
    }
    for label, failure in failures.items():
        report.check(f"kernel-{label}", failure is None, failure or "")
    return report
