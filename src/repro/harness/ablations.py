"""Ablation experiments beyond the paper's tables.

Each ablation tests a design choice the paper *discusses* but could not or
did not measure, using the same shape-check machinery as the table
experiments:

- **A1** — the three §4.3.1 packet structures (wire-based / full-region /
  bounding-box), justifying the paper's choice by measurement.
- **A2** — blocking receivers under interrupt-driven reception and a
  faster network: the §5.1.3 prediction that "with a higher performance
  interconnection network [and] lower overhead on message reception ...
  the blocking strategy would probably become more effective".
- **A3** — the two dynamic wire-distribution schemes of §4.2 (polled and
  interrupt-serviced wire assignment processor) against static
  assignment, measuring the task-wait latency the paper reasoned about.
- **A4** — the hierarchical (NUMA) shared memory machine of §5.3.2, where
  remote references cost ~10x local ones, showing locality-aware
  assignment becoming a first-order execution-time effect.
- **A5** — the other Archibald & Baer protocol family: write-update
  against the paper's write-back-invalidate, on the same traces.
- **A6** — Table 3's footnote 3: traffic against finite cache size.
- **A7** — staleness itself: the L1 error of a node's local view against
  the true cost array, per update schedule.
- **A8** — the conclusions' "more sophisticated wire assignment
  heuristics": bounding-box-centroid against leftmost-pin assignment.
- **A9** — trace granularity as a cause of the Table 3 magnitude gap:
  replay granularity (lossless) and recorded-interleaving granularity
  (raises traffic, but converges far from the paper's growth).

A1, A3, A5 and A8 are plain sweeps and run as ``SimConfig`` rows; the
others need a simulator keyword ``SimConfig`` does not carry (a cost
model, a kept trace, divergence tracking) and call it directly.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List

from ..assign import RoundRobinAssigner, ThresholdCostAssigner
from ..grid import RegionMap
from ..memsim import AddressMap, ColumnarTrace, simulate_trace, simulate_trace_finite
from ..parallel import CostModel, run_message_passing, run_shared_memory
from ..parallel.results import ParallelRunResult
from ..route import LocalityReport
from ..updates import PacketStructure, UpdateSchedule
from .experiments import (
    SENDER_2_10,
    Table,
    _iters,
    _locality,
    _sim,
    experiment,
    quick_circuit,
    sweep,
)
from .simjobs import run_sim_configs

__all__ = [
    "run_a1_packet_structures",
    "run_a2_interrupts",
    "run_a3_dynamic_assignment",
    "run_a4_numa_locality",
    "run_a5_write_update",
    "run_a6_cache_size",
    "run_a7_staleness",
    "run_a8_centroid",
    "run_a9_trace_granularity",
]


@experiment("A1", "Ablation: §4.3.1 update packet structures (sender 2/10)")
def run_a1_packet_structures(quick: bool = False) -> Table:
    """A1: measure the §4.3.1 packet-structure tradeoff."""
    structures = (
        PacketStructure.WIRE_BASED,
        PacketStructure.FULL_REGION,
        PacketStructure.BOUNDING_BOX,
    )
    rows, runs = sweep(
        {"structure": [structure.value for structure in structures]},
        lambda value: _sim(
            "mp",
            quick,
            schedule=replace(SENDER_2_10, packet_structure=PacketStructure(value)),
        ),
    )
    traffic = {s: runs[s.value].mbytes_transferred for s in structures}
    checks = {
        # "it uses a large number of bytes" — full-region is the most
        # expensive encoding.
        "full-region costs the most traffic": traffic[PacketStructure.FULL_REGION]
        == max(traffic.values()),
        # "it reduces network traffic compared to the other method" — the
        # bbox optimisation beats shipping whole regions by a wide margin.
        "bounding box halves full-region traffic": traffic[PacketStructure.BOUNDING_BOX]
        < 0.6 * traffic[PacketStructure.FULL_REGION],
        # wire-based encodings are competitive with bounding boxes (the
        # paper rejected them on processing convenience, not size).
        "wire-based is size-competitive": traffic[PacketStructure.WIRE_BASED]
        < 2.0 * traffic[PacketStructure.BOUNDING_BOX],
    }
    return list(rows.values()), checks


@experiment("A2", "Ablation: the §5.1.3 blocking prediction (RLD=1 RRD=5)")
def run_a2_interrupts(quick: bool = False) -> Table:
    """A2: blocking receivers with interrupt reception / faster network."""
    circuit = quick_circuit("bnrE", quick)
    slow = CostModel()
    fast = replace(
        slow,
        hop_time_s=slow.hop_time_s / 10,
        process_time_s=slow.process_time_s / 10,
        packet_fixed_s=slow.packet_fixed_s / 10,
    )
    rows: List[Dict[str, object]] = []
    penalty: Dict[str, float] = {}
    for label, cm, interrupts in (
        ("paper network, polled", slow, False),
        ("paper network, interrupts", slow, True),
        ("10x network, interrupts", fast, True),
    ):
        nb = replace(
            UpdateSchedule.receiver_initiated(1, 5), interrupt_reception=interrupts
        )
        bl = replace(
            UpdateSchedule.receiver_initiated(1, 5, blocking=True),
            interrupt_reception=interrupts,
        )
        t_nb = run_message_passing(
            circuit, nb, cost_model=cm, iterations=_iters(quick)
        ).exec_time_s
        t_bl = run_message_passing(
            circuit, bl, cost_model=cm, iterations=_iters(quick)
        ).exec_time_s
        penalty[label] = t_bl / t_nb - 1.0
        rows.append(
            {
                "configuration": label,
                "non_blocking_s": round(t_nb, 3),
                "blocking_s": round(t_bl, 3),
                "blocking_penalty": f"{penalty[label]:+.0%}",
            }
        )
    checks = {
        # §5.1.3: blocking pays a large penalty on the paper's machine
        # (smaller quick-mode circuits have fewer requests per region, so
        # the bar is lower there) ...
        "blocking penalty large when polled": penalty["paper network, polled"]
        > (0.08 if quick else 0.15),
        # ... and the paper's prediction: low reception overhead makes
        # blocking viable.
        "interrupt reception collapses the penalty": penalty[
            "paper network, interrupts"
        ] < 0.5 * penalty["paper network, polled"],
        "fast network keeps the penalty small": penalty["10x network, interrupts"]
        < 0.5 * penalty["paper network, polled"],
    }
    notes = (
        "the paper: 'With a higher performance interconnection network, "
        "lower overhead on message reception ... the blocking strategy "
        "would probably become more effective.'"
    )
    return rows, checks, notes


@experiment("A3", "Ablation: §4.2 dynamic wire distribution (single iteration)")
def run_a3_dynamic_assignment(quick: bool = False) -> Table:
    """A3: the §4.2 dynamic wire-distribution schemes vs static."""
    #: row label -> (``SimConfig.assigner``, interrupt-driven reception)
    schemes = {
        "static (ThresholdCost=1000)": (None, False),
        "dynamic, polled master": ("dynamic", False),
        "dynamic, interrupt master": ("dynamic", True),
    }

    def config(label: str):
        assigner, interrupts = schemes[label]
        schedule = replace(SENDER_2_10, interrupt_reception=interrupts)
        return _sim("mp", quick, schedule=schedule, iterations=1, assigner=assigner)

    def wait_ms(result: ParallelRunResult, label: str) -> Dict[str, object]:
        wait = result.meta.get("mean_task_wait_s")
        return {"mean_task_wait_ms": None if wait is None else round(wait * 1e3, 2)}

    rows, runs = sweep({"assignment": schemes}, config, extra=wait_ms)
    _, polled, interrupt = runs.values()
    n_wires = quick_circuit("bnrE", quick).n_wires
    checks = {
        # §4.2: "the time spent waiting for a requested task can be large"
        # when the master polls between wires ...
        "polled task wait is large": polled.meta["mean_task_wait_s"] > 2e-3,
        # ... and interrupts "offer wire distribution with lower latency".
        "interrupts cut the task wait": interrupt.meta["mean_task_wait_s"]
        < 0.5 * polled.meta["mean_task_wait_s"],
        "interrupts speed up the dynamic run": interrupt.exec_time_s
        < polled.exec_time_s,
        "all schemes route every wire": all(
            len(r.paths) == n_wires for r in runs.values()
        ),
    }
    return list(rows.values()), checks


@experiment("A4", "Ablation: §5.3.2 hierarchical shared memory (remote refs 10x)")
def run_a4_numa_locality(quick: bool = False) -> Table:
    """A4: locality on a hierarchical (NUMA) shared memory machine."""
    circuit = quick_circuit("bnrE", quick)
    regions = RegionMap(circuit.n_channels, circuit.n_grids, 16)
    numa = CostModel(numa_remote_factor=10.0)
    rows: List[Dict[str, object]] = []
    slowdown: Dict[str, float] = {}
    for label, assignment in (
        ("round robin", RoundRobinAssigner(circuit, regions).assign()),
        ("TC=30", ThresholdCostAssigner(circuit, regions, 30).assign()),
        ("TC=inf", ThresholdCostAssigner(circuit, regions, math.inf).assign()),
    ):
        flat = run_shared_memory(
            circuit, assignment=assignment, collect_trace=False, iterations=_iters(quick)
        )
        hier = run_shared_memory(
            circuit,
            assignment=assignment,
            collect_trace=False,
            cost_model=numa,
            iterations=_iters(quick),
        )
        slowdown[label] = hier.exec_time_s / flat.exec_time_s
        rows.append(
            {
                "assignment": label,
                "flat_time_s": round(flat.exec_time_s, 2),
                "numa_time_s": round(hier.exec_time_s, 2),
                "slowdown": round(slowdown[label], 2),
            }
        )
    checks = {
        # §5.3.2: on hierarchical machines locality becomes first-order —
        # the most local assignment suffers the smallest NUMA penalty.
        "full locality suffers the least NUMA slowdown": slowdown["TC=inf"]
        == min(slowdown.values()),
        "round robin suffers the most NUMA slowdown": slowdown["round robin"]
        == max(slowdown.values()),
    }
    notes = (
        "the paper: 'in hierarchical shared memory architectures ... a "
        "local reference can be more than an order of magnitude faster "
        "... locality will become an important part of future program "
        "design.'"
    )
    return rows, checks, notes


@experiment("A5", "Ablation: write-update vs write-back-invalidate coherence")
def run_a5_write_update(quick: bool = False) -> Table:
    """A5: write-update vs write-back-invalidate coherence protocols."""
    line_sizes = (4, 8, 16, 32)
    protocols = ("invalidate", "update")
    # One run per protocol, replayed at every line size.
    runs = run_sim_configs(
        [
            _sim(
                "sm",
                quick,
                line_size=line_sizes[0],
                extra_line_sizes=line_sizes[1:],
                protocol=protocol,
            )
            for protocol in protocols
        ]
    )
    results = {
        protocol: run.meta["coherence_by_line_size"]
        for protocol, run in zip(protocols, runs)
    }
    rows: List[Dict[str, object]] = []
    for ls in line_sizes:
        inv = results["invalidate"][ls]
        upd = results["update"][ls]
        rows.append(
            {
                "line_size": ls,
                "invalidate_mb": round(inv["mbytes"], 4),
                "update_mb": round(upd["mbytes"], 4),
                "update_broadcast_mb": round(upd["word_write_bytes"] / 1e6, 4),
            }
        )
    inv_growth = (
        results["invalidate"][32]["mbytes"] / results["invalidate"][4]["mbytes"]
    )
    upd_growth = results["update"][32]["mbytes"] / results["update"][4]["mbytes"]
    checks = {
        # LocusRoute's cost-array sharing is read-dominated (many sweep
        # reads per occupancy write), the regime where Archibald & Baer
        # found update protocols cheaper than invalidation.
        "update protocol moves fewer bytes here": all(
            results["update"][ls]["mbytes"] < results["invalidate"][ls]["mbytes"]
            for ls in line_sizes
        ),
        # Updates broadcast words, so their traffic barely depends on the
        # line size, unlike invalidation's refetch growth.
        "update traffic flatter across line sizes": upd_growth < inv_growth + 0.05,
        "broadcasts dominate update-protocol bytes": results["update"][32][
            "word_write_bytes"
        ]
        > 0.3 * results["update"][32]["total_bytes"],
    }
    notes = (
        "the paper's protocol choice follows Archibald & Baer; this "
        "ablation runs their other protocol family on the same traces."
    )
    return rows, checks, notes


@experiment("A6", "Ablation: footnote 3 — traffic vs finite cache size (8B lines)")
def run_a6_cache_size(quick: bool = False) -> Table:
    """A6: the footnote-3 effect — traffic vs finite cache size."""
    circuit = quick_circuit("bnrE", quick)
    result = run_shared_memory(circuit, iterations=_iters(quick), line_size=8, keep_trace=True)
    trace = result.meta["trace"]
    layout = result.meta["layout"]
    amap = AddressMap(
        circuit.n_channels,
        circuit.n_grids,
        8,
        extra_words=layout.total_words - layout.array_words,
    )

    infinite = simulate_trace(trace, 16, amap)
    sizes = [64, 256, 1024]
    rows: List[Dict[str, object]] = []
    totals: List[float] = []
    for cache_lines in sizes:
        stats = simulate_trace_finite(trace, 16, amap, cache_lines)
        totals.append(stats.mbytes)
        rows.append(
            {
                "cache_lines": cache_lines,
                "cache_bytes": cache_lines * 8,
                "mbytes": round(stats.mbytes, 4),
                "writeback_mb": round(stats.writeback_bytes / 1e6, 4),
            }
        )
    rows.append(
        {
            "cache_lines": "infinite",
            "cache_bytes": "-",
            "mbytes": round(infinite.mbytes, 4),
            "writeback_mb": round(infinite.writeback_bytes / 1e6, 4),
        }
    )
    checks = {
        # footnote 3: "a small cache will have a higher miss rate
        # requiring more data fetches from main memory".
        "traffic decreases with cache size": all(
            b <= a * 1.02 for a, b in zip(totals, totals[1:])
        ),
        "finite caches cost at least the infinite-cache traffic": totals[-1]
        >= infinite.mbytes * 0.98,
        "tiny caches cost much more": totals[0] > 1.5 * infinite.mbytes,
    }
    return rows, checks


@experiment("A7", "Ablation: staleness measured — local-view error vs update schedule")
def run_a7_staleness(quick: bool = False) -> Table:
    """A7: staleness, measured — view divergence vs update schedule."""
    circuit = quick_circuit("bnrE", quick)
    schedules = [
        ("sender eager (1,1)", UpdateSchedule.sender_initiated(1, 1)),
        ("sender lazy (10,20)", UpdateSchedule.sender_initiated(10, 20)),
        ("receiver (1,5)", UpdateSchedule.receiver_initiated(1, 5)),
        ("silent", UpdateSchedule()),
    ]
    rows: List[Dict[str, object]] = []
    divergence: Dict[str, float] = {}
    for label, schedule in schedules:
        # Single iteration isolates staleness from rip-up churn: quality
        # feedback between iterations otherwise couples the schedules.
        result = run_message_passing(
            circuit, schedule, iterations=1, track_divergence=True
        )
        d = result.meta["divergence"]
        divergence[label] = d["mean_l1"]
        rows.append(
            {
                "schedule": label,
                "mean_view_error_L1": round(d["mean_l1"], 2),
                "max_view_error_L1": round(d["max_l1"], 1),
                "occupancy": result.quality.occupancy_factor,
                "mbytes": round(result.mbytes_transferred, 4),
            }
        )
    checks = {
        # The mechanism behind every quality number in the paper: updates
        # keep the routing view closer to reality.
        "eager updates reduce view error vs silent": divergence["sender eager (1,1)"]
        < divergence["silent"],
        "any updates beat no updates": all(
            divergence[label] <= divergence["silent"] * 1.02
            for label, _ in schedules[:-1]
        ),
        "receiver-initiated requests also reduce error": divergence["receiver (1,5)"]
        < divergence["silent"],
    }
    notes = (
        "view error = L1 distance between the routing node's view and "
        "the true cost array over each committed route's cells (single "
        "routing iteration; across rip-up iterations, route churn from "
        "eager updates partially offsets their freshness advantage)."
    )
    return rows, checks, notes


@experiment("A8", "Ablation: centroid vs leftmost-pin wire assignment (TC=1000)")
def run_a8_centroid(quick: bool = False) -> Table:
    """A8: the paper's suggested smarter heuristic — centroid assignment."""
    heuristics = {
        "leftmost pin (paper)": "TC=1000",
        "bounding-box centroid": "centroid TC=1000",
    }
    reports: Dict[str, LocalityReport] = {}

    def cells(result: ParallelRunResult, label: str) -> Dict[str, object]:
        report = reports[label] = _locality(result, "bnrE", quick)
        return {
            "mean_hops": round(report.mean_hops, 3),
            "owned_fraction": round(report.owned_fraction, 3),
            "ckt_height": result.quality.circuit_height,
            "mbytes": round(result.mbytes_transferred, 4),
            "time_s": round(result.exec_time_s, 3),
        }

    rows, runs = sweep(
        {"heuristic": heuristics},
        lambda label: _sim(
            "mp", quick, schedule=SENDER_2_10, assigner=heuristics[label]
        ),
        cells=(),
        extra=cells,
    )
    (left, left_run), (cent, cent_run) = runs.items()
    checks = {
        # conclusions: "more sophisticated wire assignment heuristics may
        # further improve quality and reduce traffic" ...
        "centroid improves locality": reports[cent].mean_hops < reports[left].mean_hops,
        "centroid reduces traffic": cent_run.mbytes_transferred
        < left_run.mbytes_transferred * 1.02,
        # ... but locality concentration costs load balance, the same
        # §5.3.3 tension as ThresholdCost=infinity.
        "locality gain is not free (time)": cent_run.exec_time_s
        > 0.9 * left_run.exec_time_s,
    }
    return list(rows.values()), checks


@experiment("A9", "Ablation: trace granularity (burst vs per-reference; sweep count)")
def run_a9_trace_granularity(quick: bool = False) -> Table:
    """A9: trace granularity — tested as the cause of the T3 magnitude gap."""
    circuit = quick_circuit("bnrE", quick)
    iters = _iters(quick)

    # Part 1: burst-level protocol processing is *lossless* — replaying
    # the same trace one reference at a time yields identical traffic.
    # The burst side is the scalar engine, the per-reference side the
    # columnar one, so two independently coded engines must agree.
    base = run_shared_memory(circuit, iterations=iters, line_size=8, keep_trace=True)
    trace, layout = base.meta["trace"], base.meta["layout"]
    extra = layout.total_words - layout.array_words
    per_reference = ColumnarTrace.from_trace(trace).per_reference()
    equivalent = True
    rows: List[Dict[str, object]] = []
    for ls in (4, 8, 32):
        amap = AddressMap(circuit.n_channels, circuit.n_grids, ls, extra_words=extra)
        burst = simulate_trace(trace, 16, amap)
        ref = per_reference.replay(16, amap)
        burst_nwb = burst.total_bytes - burst.writeback_bytes
        ref_nwb = ref.total_bytes - ref.writeback_bytes
        equivalent &= burst_nwb == ref_nwb
        rows.append(
            {
                "comparison": f"replay granularity @ {ls}B lines",
                "burst_mb": round(burst_nwb / 1e6, 4),
                "per_reference_mb": round(ref_nwb / 1e6, 4),
            }
        )

    # Part 2: the *recorded interleaving* granularity moves traffic: finer
    # sweeps expose more invalidation refetches at a fixed line size.
    totals: List[float] = []
    for chunks in (1, 2, 4, 8):
        run = run_shared_memory(circuit, iterations=iters, line_size=8, trace_chunks=chunks)
        totals.append(run.coherence.mbytes)
        rows.append(
            {
                "comparison": f"recorded interleaving: {chunks} sweeps/evaluation",
                "burst_mb": round(run.coherence.mbytes, 4),
                "per_reference_mb": None,
            }
        )
    checks = {
        # burst processing loses nothing for a fixed trace ...
        "per-reference replay equals burst replay": equivalent,
        # ... finer interleaving of the same execution raises measured
        # traffic (not its growth with the line size: see the notes).
        "finer recorded interleaving raises traffic": all(
            b >= a * 0.99 for a, b in zip(totals, totals[1:])
        )
        and totals[-1] > totals[0],
    }
    notes = (
        "conclusion: burst-level protocol processing is provably lossless "
        "for a given trace, so it does not mute the Table 3 growth. Finer "
        "recorded interleaving raises traffic but does not close the gap "
        "either: raising trace_chunks to 256 only moves the 32 B / 4 B "
        "ratio from 1.25 to 1.38 (paper: 6.3). Replaying the same trace "
        "with the cost array stored channel-fastest gives 5.48x."
    )
    return rows, checks, notes
