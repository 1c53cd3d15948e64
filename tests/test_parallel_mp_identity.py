"""The end-to-end benchmark's identity check, inside tier-1.

``benchmarks/e2e`` refuses a change whose ``sim_digest`` or exact counts
differ from the parent commit's, but only after the PR is written.  This
pins the same quantities — simulated makespan, messages, bytes, hop
bytes, blocked time, routing work, kernel events — for a reduced-size
grid of message passing runs (two circuits x three schedules x the three
§4.3.1 packet structures x fault-free / lossy / two crashes), under both
kernel modes, to the values in ``tests/mp_identity.json``.  An
edit to the node's hot path that moves one packet, one byte or one float
operation fails here first.  Everything is virtual time from fixed
seeds, so the comparison is exact, floats included.

After an *intentional* protocol change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_parallel_mp_identity.py --regen-golden
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from repro.circuits import bnre_like, mdc_like
from repro.faults import FaultPlan, random_crashes
from repro.kernels import use_kernels
from repro.obs import telemetry as obs
from repro.parallel import run_message_passing
from repro.updates import PacketStructure, UpdateSchedule

GOLDEN = Path(__file__).parent / "mp_identity.json"
FAULT_SEED = 7

CIRCUITS = {
    "bnrE/16": (lambda: bnre_like(n_wires=120), 16),
    "MDC/9": (lambda: mdc_like(n_wires=120), 9),
}
SCHEDULES = {
    "sender(2,10)": UpdateSchedule.sender_initiated(2, 10),
    "mixed": UpdateSchedule.mixed_example(),
    "receiver(1,5)blocking": UpdateSchedule.receiver_initiated(1, 5, blocking=True),
}
FAULTS = {
    "none": lambda n_procs: None,
    "lossy": lambda n_procs: FaultPlan(
        seed=FAULT_SEED, drop_prob=0.05, duplicate_prob=0.02, delay_prob=0.05, reorder_prob=0.05
    ),
    "crash2": lambda n_procs: FaultPlan(
        seed=FAULT_SEED, node_crashes=random_crashes(n_procs, 2, 0.3, FAULT_SEED)
    ),
}
KEYS = [
    "/".join(parts)
    for parts in product(CIRCUITS, SCHEDULES, (s.name for s in PacketStructure), FAULTS)
]


def measure(key: str) -> list:
    circuit_key, procs, schedule_key, structure, fault_key = key.split("/")
    build, n_procs = CIRCUITS[f"{circuit_key}/{procs}"]
    schedule = replace(SCHEDULES[schedule_key], packet_structure=PacketStructure[structure])
    events_before = obs.get_telemetry().counters.get("sim.events", 0)
    result = run_message_passing(
        build(), schedule, n_procs=n_procs, iterations=3, faults=FAULTS[fault_key](n_procs)
    )
    return [
        result.exec_time_s,
        result.network.n_messages,
        result.network.total_bytes,
        result.network.total_hop_bytes,
        sum(s.blocked_time_s for s in result.node_summaries),
        sum(s.route_units for s in result.node_summaries),
        obs.get_telemetry().counters["sim.events"] - events_before,
    ]


@pytest.mark.parametrize("key", KEYS)
def test_simulated_statistics_are_pinned(key: str, regen_golden: bool) -> None:
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if regen_golden:
        pinned[key] = measure(key)
        rows = (f" {json.dumps(k)}: {json.dumps(pinned[k])}" for k in sorted(pinned))
        GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    for kernels in ("vectorized", "reference"):
        with use_kernels(kernels):
            assert measure(key) == pinned[key], f"{key} under {kernels} kernels"
