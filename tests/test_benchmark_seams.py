"""The end-to-end benchmark's tracer seams, checked inside tier-1.

``benchmarks/e2e/trace.py`` wraps layer functions from outside, at the
*consumer binding* (``repro.parallel.node.route_wire``, not only
``repro.route.twobend.route_wire``), looked up by name.  A rename, or a
hot path that stops going through a binding, silently zeroes a layer's
seconds and is caught only by ``benchmarks/e2e/selfcheck.py`` (two
minutes, outside tier-1): a node that called the fused evaluator
directly passed every test and failed there with "route records spans on
mp_sweep (0)".  Skipped when the benchmark directory is absent.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.circuits import bnre_like
from repro.memsim.columnar import ColumnarTrace
from repro.memsim.tango import TangoCollector
from repro.obs import telemetry as obs
from repro.parallel import node as node_module
from repro.parallel import run_message_passing, run_shared_memory, sm_sim
from repro.route import wavefront
from repro.updates import UpdateSchedule

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"

pytestmark = pytest.mark.skipif(
    not (E2E / "trace.py").exists(), reason="benchmarks/e2e is not in this checkout"
)


@pytest.fixture
def e2e_trace(monkeypatch):
    """``benchmarks/e2e/trace.py`` under a private name (``trace`` is also a
    standard library module), with its directory importable for the seams
    that live in the benchmark's own ``workloads`` module."""
    monkeypatch.syspath_prepend(str(E2E))
    spec = importlib.util.spec_from_file_location("e2e_trace", E2E / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("workloads", "measure"):  # the benchmark's, not importable after this
        sys.modules.pop(name, None)


def test_every_seam_resolves_to_a_binding(e2e_trace):
    missing = []
    for _bucket, module_name, dotted, _counter in e2e_trace.SEAMS:
        try:
            owner, attr = e2e_trace.resolve(module_name, dotted)
            binding = vars(owner)[attr]  # what Tracer.install reads and replaces
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{module_name}.{dotted}: {exc!r}")
            continue
        target = binding.__func__ if isinstance(binding, staticmethod) else binding
        if not callable(target):
            missing.append(f"{module_name}.{dotted}: not callable")
    assert not missing, "\n".join(missing)


def counting(calls, name, original):
    """*original*, counting its calls in ``calls[name]``."""
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return wrapper


def test_node_routes_every_wire_through_its_seams(monkeypatch):
    """One ``repro.parallel.node.route_wire`` call per routed wire, every
    evaluation reaching its geometry through the
    ``repro.route.wavefront.wire_geometry`` binding — and under it, one
    table build for the run's one circuit, covering all its wires."""
    calls = {}
    monkeypatch.setattr(
        node_module, "route_wire", counting(calls, "route_wire", node_module.route_wire)
    )
    monkeypatch.setattr(
        wavefront, "wire_geometry", counting(calls, "wire_geometry", wavefront.wire_geometry)
    )
    circuit = bnre_like(n_wires=60)
    before = obs.snapshot()["counters"]
    result = run_message_passing(
        circuit, UpdateSchedule.mixed_example(), n_procs=4, iterations=2
    )
    routed = sum(s.wires_routed for s in result.node_summaries)
    assert routed == circuit.n_wires * 2
    assert calls == {"route_wire": routed, "wire_geometry": routed}
    built = {
        name: obs.get_telemetry().count(name) - before.get(name, 0)
        for name in ("route.geometry_builds", "route.geometry_wires")
    }
    assert built == {"route.geometry_builds": 1, "route.geometry_wires": circuit.n_wires}


@pytest.mark.parametrize("protocol", ["invalidate", "update"])
def test_shared_memory_run_records_every_wire_through_its_seams(monkeypatch, protocol):
    """The shared memory twin: one ``repro.parallel.sm_sim.route_wire``
    and one ``TangoCollector.record_evaluation`` call per routed wire
    instance, one ``ColumnarTrace.from_trace`` per traced run, and no
    ``SegmentRoute`` record built on the way."""
    calls = {}
    monkeypatch.setattr(sm_sim, "route_wire", counting(calls, "route_wire", sm_sim.route_wire))
    monkeypatch.setattr(
        TangoCollector,
        "record_evaluation",
        counting(calls, "record_evaluation", TangoCollector.record_evaluation),
    )
    monkeypatch.setattr(
        ColumnarTrace,
        "from_trace",
        staticmethod(counting(calls, "from_trace", ColumnarTrace.from_trace)),
    )
    circuit = bnre_like(n_wires=60)
    before = obs.get_telemetry().count("route.segments_materialised")
    result = run_shared_memory(circuit, n_procs=4, iterations=2, protocol=protocol)
    routed = sum(s.wires_routed for s in result.node_summaries)
    assert routed == circuit.n_wires * 2
    assert calls == {"route_wire": routed, "record_evaluation": routed, "from_trace": 1}
    assert obs.get_telemetry().count("route.segments_materialised") == before
