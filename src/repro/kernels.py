"""Global switch between vectorised and reference simulation kernels.

Each hot path below has two interchangeable implementations — a scalar
*reference* engine (the differential oracle, written to mirror the
protocol/algorithm description directly: a different algorithm, not the
same one in another container) and a *vectorized* engine (columnar
NumPy, bit-identical output).  "Selected in" names the one module that
compares :func:`active_kernels` with a mode for that row; a module that
does so without a row here fails ``tests/test_kernels_table.py``:

=================  ==========================  =================================  =====================================================  =======================
hot path           selected in                 reference                          vectorized                                             verify check
=================  ==========================  =================================  =====================================================  =======================
coherence          ``parallel.sm_sim``         ``memsim.coherence``               ``memsim.columnar``                                    ``kernel-coherence``
sweep dispatch     ``parallel.sm_sim``         per-line-size scalar replay        shared ``ColumnarTrace``                               (tests)
write-update       ``memsim.update_protocol``  ``memsim.update_protocol``         ``memsim.columnar.ColumnarTrace.replay_write_update``  ``kernel-write_update``
two-bend route     ``route.twobend``           ``route.twobend.route_segment``    ``route.wavefront.route_wire_fused``                   ``kernel-twobend``
routing iteration  ``route.engine``            per-wire loop in ``route.engine``  one fused step per wave (``route.wavefront``)          ``kernel-wavefront``
MP update push     ``parallel.node``           per-region dirty-box scan          ``grid.delta.DeltaArray.dirty_bboxes_by_owner``        ``kernel-mp_push``
=================  ==========================  =================================  =====================================================  =======================

The vectorized engines are the default.  The reference engines remain
load-bearing: ``locusroute verify`` replays both and reports any
divergence, the hypothesis suites fuzz the equivalence, and
``benchmarks/bench_perf_suite.py`` measures whole-run speedups by timing
the same experiment under each mode.

Use :func:`use_kernels` as a context manager for scoped switches (the
bench suite, tests) and :func:`set_kernels` for process-wide selection
(the ``--kernels`` CLI flag).  The switch is read at call time by the
dispatching functions, so it also applies inside already-constructed
simulators.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .errors import ReproError

__all__ = ["KERNEL_MODES", "active_kernels", "set_kernels", "use_kernels"]

KERNEL_MODES = ("vectorized", "reference")

_active = "vectorized"


def active_kernels() -> str:
    """Currently selected kernel mode (``vectorized`` or ``reference``)."""
    return _active


def set_kernels(mode: str) -> None:
    """Select the kernel mode process-wide."""
    global _active
    if mode not in KERNEL_MODES:
        raise ReproError(
            f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
        )
    _active = mode


@contextmanager
def use_kernels(mode: str) -> Iterator[None]:
    """Scoped kernel-mode switch; restores the previous mode on exit."""
    previous = _active
    set_kernels(mode)
    try:
        yield
    finally:
        set_kernels(previous)
