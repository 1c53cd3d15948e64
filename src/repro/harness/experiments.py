"""Experiment drivers: one function per paper table / in-text result.

Every artefact of the paper's evaluation is "sweep a few axes, run one
simulation per row, print measured beside published, assert the shape".
:func:`sweep` is that sentence once: an axes product becomes a
:class:`~repro.harness.simjobs.SimConfig` list, runs through
:func:`~repro.harness.simjobs.run_sim_configs` (so every table gets
``--jobs`` row fan-out, the per-row cache and ``--timeout``), and comes
back as rows of axis values, measured cells and the paper's cells.  A
driver adds what is specific to its table: the axes, the config of one
row, and the *shape checks* — the qualitative claims of the paper's
evaluation section (orderings, monotone trends, ratio bands) that a
faithful reproduction must exhibit even though the absolute numbers come
from synthetic stand-in circuits.  Table columns are the first row's keys.

``quick=True`` shrinks the circuits and iteration counts so the whole
suite runs in seconds (used by the test suite); benches run full size.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..circuits import Circuit
from ..errors import ExperimentError
from ..faults import FaultPlan, RecoveryPolicy, random_crashes
from ..grid import RegionMap
from ..parallel.results import ParallelRunResult
from ..route import LocalityReport, SequentialRouter, locality_measure
from ..updates import UpdateSchedule
from . import reference as ref
from .cache import jsonify, stable_hash
from .simjobs import SimConfig, named_circuit, resolve_iterations, run_sim_config, run_sim_configs
from .tables import render_checks, render_table

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "experiment",
    "run_experiment",
    "quick_circuit",
    "sweep",
]


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver.

    ``columns`` defaults to the first row's key order, so a driver writes
    each column name once — where it fills the cell.
    """

    exp_id: str
    title: str
    rows: List[Dict[str, object]]
    checks: Dict[str, bool]
    notes: str = ""
    extras: Dict[str, object] = field(default_factory=dict)
    columns: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns and self.rows:
            self.columns = list(self.rows[0])

    @property
    def passed(self) -> bool:
        """True when every shape check held."""
        return all(self.checks.values())

    def render(self) -> str:
        """Full printable report: table plus shape checks."""
        parts = [render_table(f"[{self.exp_id}] {self.title}", self.columns, self.rows)]
        if self.notes:
            parts.append(self.notes)
        parts.append(render_checks(self.checks))
        return "\n".join(parts)


#: What a driver returns: ``(rows, checks)``, then optionally notes and extras.
Table = Tuple

#: Registry of every experiment driver, keyed by experiment id, in the
#: order `experiment all` runs them and EXPERIMENTS.md lists them.
EXPERIMENTS: Dict[str, Callable[[bool], ExperimentResult]] = {}


def experiment(exp_id: str, title: str) -> Callable:
    """Register ``driver(quick) -> Table`` as experiment *exp_id*.

    The registered callable wraps what the driver returns — its rows,
    its shape checks, and any notes and extras — in an
    :class:`ExperimentResult` under this id and title.
    """

    def register(driver: Callable[[bool], Table]) -> Callable[[bool], ExperimentResult]:
        @functools.wraps(driver)
        def run(quick: bool = False) -> ExperimentResult:
            return ExperimentResult(exp_id, title, *driver(quick))

        EXPERIMENTS[exp_id] = run
        return run

    return register


# ----------------------------------------------------------------------
# the table builder
# ----------------------------------------------------------------------
#: The standard measured cells, in ``ParallelRunResult.table_row()`` order.
ROW_CELLS = ("ckt_height", "occupancy", "mbytes", "time_s")

#: Published cell -> the column it is printed under beside the measured one.
PAPER_COLUMNS = {
    "ckt_height": "paper_height",
    "mbytes": "paper_mbytes",
    "time_s": "paper_time",
}


#: Sender initiated updates at SendRmtData=2, SendLocData=10: the schedule
#: the paper holds fixed wherever it varies something else (Tables 4, 6).
SENDER_2_10 = UpdateSchedule.sender_initiated(2, 10)


def quick_circuit(which: str, quick: bool) -> Circuit:
    """The benchmark circuit, shrunk in quick mode (sizes live in simjobs)."""
    return named_circuit(which, quick, None).circuit


def _sim(kind: str, quick: bool, **fields) -> SimConfig:
    """One row's config at the harness scale (circuit size, iterations)."""
    return SimConfig(kind=kind, quick=quick, **fields)


def sweep(
    axes: Mapping[str, Iterable],
    config: Callable[..., SimConfig],
    cells: Sequence[str] = ROW_CELLS,
    extra: Optional[Callable[..., Dict[str, object]]] = None,
    reference: Optional[Dict] = None,
    paper: Sequence[str] = tuple(PAPER_COLUMNS),
) -> Tuple[Dict[object, Dict[str, object]], Dict[object, ParallelRunResult]]:
    """One simulation per point of the *axes* product, as table rows.

    ``axes`` maps a column name to its values (the first axis varies
    slowest, as in the paper's tables) and ``config(*point)`` is the
    simulation of one point.  Each row holds, in order: the axis values,
    the named ``table_row()`` *cells*, whatever ``extra(result, *point)``
    measures beyond them, and — given a *reference* table of
    :mod:`repro.harness.reference` — its published *paper* cells.

    Returns ``(rows, runs)``, both keyed by point (the bare value when
    there is one axis) in row order.
    """
    points = list(itertools.product(*axes.values()))
    results = run_sim_configs([config(*point) for point in points])
    rows: Dict[object, Dict[str, object]] = {}
    for point, result in zip(points, results):
        key = point if len(point) > 1 else point[0]
        measured = result.table_row()
        row: Dict[str, object] = dict(zip(axes, point))
        row.update((cell, measured[cell]) for cell in cells)
        if extra is not None:
            row.update(extra(result, *point))
        if reference is not None:
            published = ref.paper_row(reference, key) or {}
            row.update((PAPER_COLUMNS[cell], published.get(cell)) for cell in paper)
        rows[key] = row
    return rows, dict(zip(rows, results))


def _locality(result: ParallelRunResult, which: str, quick: bool) -> LocalityReport:
    """§5.3.3 locality measure of a 16-processor run on the named circuit."""
    circuit = quick_circuit(which, quick)
    regions = RegionMap(circuit.n_channels, circuit.n_grids, 16)
    return locality_measure(regions, result.paths, result.wire_router)


def _monotone_decreasing(values: List[float], tolerance: float = 0.0) -> bool:
    """True if each value is <= the previous one (within *tolerance*)."""
    return all(b <= a * (1 + tolerance) for a, b in zip(values, values[1:]))


def _monotone_increasing(values: List[float], tolerance: float = 0.0) -> bool:
    """True if each value is >= the previous one (within *tolerance*)."""
    return all(b >= a * (1 - tolerance) for a, b in zip(values, values[1:]))


@experiment("T1", "Sender initiated updates (bnrE-like, 16 processors)")
def run_table1(quick: bool = False) -> Table:
    """Table 1: quality/traffic/time vs sender-initiated update frequency."""
    srd_values = [2, 5, 10]
    sld_values = [1, 5, 10, 20]
    rows, _ = sweep(
        {"SendRmtData": srd_values, "SendLocData": sld_values},
        lambda srd, sld: _sim(
            "mp", quick, schedule=UpdateSchedule.sender_initiated(srd, sld)
        ),
        reference=ref.TABLE1_SENDER,
    )
    heights = [row["ckt_height"] for row in rows.values()]
    checks = {
        # §5.1.1: "The number of bytes transferred is also a clear function
        # of the update frequency" — traffic falls as SendLocData grows.
        "traffic decreases with SendLocData interval": all(
            _monotone_decreasing([rows[srd, sld]["mbytes"] for sld in sld_values], 0.05)
            for srd in srd_values
        ),
        # and the increase with frequency is sublinear (bounding boxes).
        "traffic sublinear in update frequency": all(
            rows[srd, 1]["mbytes"] < 20 * rows[srd, 20]["mbytes"] for srd in srd_values
        ),
        # §5.1.1: execution time falls as updates become less frequent.
        "time decreases with SendLocData interval": all(
            _monotone_decreasing([rows[srd, sld]["time_s"] for sld in sld_values], 0.03)
            for srd in srd_values
        ),
        # §5.1.1: circuit height has little correlation with frequency.
        "height roughly flat across schedules": max(heights) <= 1.15 * min(heights),
    }
    return list(rows.values()), checks


@experiment("T2", "Non-blocking receiver initiated updates (bnrE-like, 16 processors)")
def run_table2(quick: bool = False) -> Table:
    """Table 2: non-blocking receiver-initiated update sweep."""
    rld_values = [1, 2, 10]
    rrd_values = [5, 10, 30]
    rows, _ = sweep(
        {"ReqLocData": rld_values, "ReqRmtData": rrd_values},
        lambda rld, rrd: _sim(
            "mp", quick, schedule=UpdateSchedule.receiver_initiated(rld, rrd)
        ),
        reference=ref.TABLE2_RECEIVER,
    )
    times = [row["time_s"] for row in rows.values()]
    checks = {
        # Traffic falls sharply as requests become rarer.
        "traffic decreases with ReqRmtData interval": all(
            _monotone_decreasing([rows[rld, rrd]["mbytes"] for rrd in rrd_values], 0.05)
            for rld in rld_values
        ),
        # §5.1.2: execution time shows little dependence on the schedule.
        "time nearly flat across schedules": max(times) <= 1.10 * min(times),
        # Less frequent ReqLocData also means less traffic.
        "traffic decreases with ReqLocData interval": all(
            _monotone_decreasing([rows[rld, rrd]["mbytes"] for rld in rld_values], 0.10)
            for rrd in rrd_values
        ),
    }
    return list(rows.values()), checks


@experiment("T3", "Shared memory traffic vs cache line size (bnrE-like, 16 processors)")
def run_table3(quick: bool = False) -> Table:
    """Table 3: coherence bus traffic as a function of cache line size."""
    line_sizes = (4, 8, 16, 32)
    # One run, replayed at every line size: four rows from one simulation.
    (result,) = run_sim_configs(
        [_sim("sm", quick, line_size=line_sizes[0], extra_line_sizes=line_sizes[1:])]
    )
    by_line = result.meta["coherence_by_line_size"]
    rows = []
    for ls in line_sizes:
        stats = by_line[ls]
        paper = ref.paper_row(ref.TABLE3_LINESIZE, ls) or {}
        rows.append(
            {
                "line_size": ls,
                "mbytes": round(stats["mbytes"], 4),
                "refetch_mb": round(stats["refetch_bytes"] / 1e6, 4),
                "word_write_mb": round(stats["word_write_bytes"] / 1e6, 4),
                "write_fraction": round(stats["write_caused_fraction"], 3),
                "paper_mbytes": paper.get("mbytes"),
            }
        )
    mbytes = [by_line[ls]["mbytes"] for ls in line_sizes]
    # Small quick-mode circuits have proportionally more cold misses, which
    # dilutes the write-caused share; the paper's >80 % claim is asserted
    # at full scale only.
    write_floor = 0.60 if quick else 0.80
    checks = {
        # "traffic increases significantly as the line size increases".
        "traffic grows from 4B to 32B lines": mbytes[-1] > mbytes[0],
        "traffic non-decreasing beyond 8B": _monotone_increasing(mbytes[1:], 0.02),
        # §5.2: over 80 % of bytes are caused by writes.
        f"writes cause >{write_floor:.0%} of bytes": all(
            by_line[ls]["write_caused_fraction"] > write_floor for ls in line_sizes
        ),
    }
    notes = (
        "note: growth direction matches the paper; magnitude is muted, "
        "and not by trace granularity (see EXPERIMENTS.md, T3)."
    )
    return rows, checks, notes


#: The four wire-assignment policies of Tables 4 and 5, in paper row order
#: (each is a ``SimConfig.assigner`` label).
LOCALITY_AXES = {
    "circuit": ("bnrE", "MDC"),
    "method": ("round robin", "TC=30", "TC=1000", "TC=inf"),
}


@experiment("T4", "Effect of locality, message passing (sender initiated 2/10)")
def run_table4(quick: bool = False) -> Table:
    """Table 4: wire-assignment locality effects, message passing."""
    rows, _ = sweep(
        LOCALITY_AXES,
        lambda which, method: _sim(
            "mp", quick, which=which, schedule=SENDER_2_10, assigner=method
        ),
        reference=ref.TABLE4_LOCALITY_MP,
    )
    checks: Dict[str, bool] = {}
    for which in LOCALITY_AXES["circuit"]:
        per_method = {m: rows[which, m] for m in LOCALITY_AXES["method"]}
        local_methods = ["TC=30", "TC=1000", "TC=inf"]
        checks[f"{which}: locality improves quality over round robin"] = per_method[
            "round robin"
        ]["occupancy"] >= min(per_method[m]["occupancy"] for m in local_methods)
        checks[f"{which}: full locality minimises traffic"] = per_method["TC=inf"][
            "mbytes"
        ] == min(r["mbytes"] for r in per_method.values())
        checks[f"{which}: full locality degrades execution time"] = per_method[
            "TC=inf"
        ]["time_s"] > 1.25 * per_method["TC=30"]["time_s"]
        checks[f"{which}: moderate threshold gives best time"] = per_method["TC=30"][
            "time_s"
        ] == min(r["time_s"] for r in per_method.values())
    return list(rows.values()), checks


@experiment("T5", "Effect of locality, shared memory (8-byte cache lines)")
def run_table5(quick: bool = False) -> Table:
    """Table 5: wire-assignment locality effects, shared memory (8B lines)."""
    rows, _ = sweep(
        LOCALITY_AXES,
        lambda which, method: _sim("sm", quick, which=which, assigner=method),
        cells=("ckt_height", "occupancy", "mbytes"),
        reference=ref.TABLE5_LOCALITY_SM,
        paper=("ckt_height", "mbytes"),
    )
    checks: Dict[str, bool] = {}
    for which in LOCALITY_AXES["circuit"]:
        per_method = {m: rows[which, m] for m in LOCALITY_AXES["method"]}
        checks[f"{which}: locality reduces bus traffic"] = (
            min(per_method[m]["mbytes"] for m in ("TC=1000", "TC=inf"))
            < per_method["round robin"]["mbytes"]
        )
        # Height is a max-based metric with a few tracks of run-to-run
        # noise; allow that margin (wider on tiny quick-mode circuits).
        slack = 1.15 if quick else 1.02
        checks[f"{which}: locality does not hurt quality"] = (
            min(per_method[m]["ckt_height"] for m in ("TC=30", "TC=1000", "TC=inf"))
            <= per_method["round robin"]["ckt_height"] * slack
        )
    return list(rows.values()), checks


@experiment("T6", "Effect of the number of processors (bnrE-like, sender 2/10)")
def run_table6(quick: bool = False) -> Table:
    """Table 6: scaling the processor count (sender initiated 2/10)."""
    procs = [2, 4, 9, 16]
    by_p, _ = sweep(
        {"n_procs": procs},
        lambda p: _sim("mp", quick, schedule=SENDER_2_10, n_procs=p),
        reference=ref.TABLE6_SCALING,
    )
    speedup = 2 * by_p[2]["time_s"] / by_p[16]["time_s"]
    checks = {
        # §5.4: quality degrades as processors are added.
        "quality degrades with more processors": by_p[16]["ckt_height"]
        > by_p[2]["ckt_height"],
        "time decreases with more processors": _monotone_decreasing(
            [by_p[p]["time_s"] for p in procs]
        ),
        # §5.4: speedup ~12 at 16 processors (2xT2/T16).
        "speedup in the paper's band (9-16)": 9.0 <= speedup <= 16.0,
        # §5.4: traffic eventually *decreases* with more processors
        # (smaller owned regions mean tighter bounding boxes).
        "traffic decreases beyond 4 processors": _monotone_decreasing(
            [by_p[p]["mbytes"] for p in (4, 9, 16)], 0.02
        ),
    }
    notes = f"speedup (2 x T2 / T16) = {speedup:.1f}  (paper: 12.0)"
    return list(by_p.values()), checks, notes


@experiment("X1", "Blocking vs non-blocking receiver initiated (RLD=1, RRD=5)")
def run_x1_blocking(quick: bool = False) -> Table:
    """§5.1.3: blocking requesters idle; quality is no better for it."""
    rows, runs = sweep(
        {"mode": ("non-blocking", "blocking")},
        lambda mode: _sim(
            "mp",
            quick,
            schedule=UpdateSchedule.receiver_initiated(
                1, 5, blocking=mode == "blocking"
            ),
        ),
        extra=lambda result, mode: {
            "max_blocked_s": round(
                max(s.blocked_time_s for s in result.node_summaries), 3
            )
        },
    )
    t_block = runs["blocking"].exec_time_s
    t_non = runs["non-blocking"].exec_time_s
    q_block = runs["blocking"].quality.circuit_height
    q_non = runs["non-blocking"].quality.circuit_height
    checks = {
        # "blocking strategies have execution times as much as 75% larger".
        "blocking is slower than non-blocking": t_block > 1.05 * t_non,
        "blocking penalty below ~2x": t_block < 2.0 * t_non,
        # "quality using the non-blocking scheme is not worse than blocking".
        "non-blocking quality is not worse": q_non <= q_block * 1.05,
    }
    notes = f"blocking/non-blocking time ratio = {t_block / t_non:.2f} (paper: up to 1.75)"
    return list(rows.values()), checks, notes


@experiment("X2", "Mixed update schedule (SLD=5 SRD=2 RLD=1 RRD=5) vs pure schemes")
def run_x2_mixed(quick: bool = False) -> Table:
    """§5.1.3: a mixed sender+receiver schedule (SLD=5 SRD=2 RLD=1 RRD=5)."""
    schedules = {
        "mixed": UpdateSchedule.mixed_example(),
        "sender 2/5": UpdateSchedule.sender_initiated(2, 5),
        "receiver 1/5": UpdateSchedule.receiver_initiated(1, 5),
    }
    rows, runs = sweep(
        {"schedule": schedules},
        lambda label: _sim("mp", quick, schedule=schedules[label]),
    )
    mixed, sender = runs["mixed"], runs["sender 2/5"]
    checks = {
        # §5.1.3 compares the mixed scheme's occupancy against the pure
        # sender-initiated scheme it embeds.
        "mixed occupancy competitive with sender scheme": mixed.quality.occupancy_factor
        <= (1.10 if quick else 1.04) * sender.quality.occupancy_factor,
        # It needs less traffic than the sender-initiated scheme it contains.
        "mixed traffic below its sender component": mixed.mbytes_transferred
        < sender.mbytes_transferred * 1.6,
    }
    return list(rows.values()), checks


@experiment("X3", "Shared memory vs message passing (bnrE-like, 16 processors)")
def run_x3_summary(quick: bool = False) -> Table:
    """§5.2: the headline comparison of the two paradigms."""
    versions = {
        "shared memory (4B lines)": _sim("sm", quick, line_size=4),
        "MP sender 2/10": _sim("mp", quick, schedule=SENDER_2_10),
        "MP receiver 1/30": _sim(
            "mp", quick, schedule=UpdateSchedule.receiver_initiated(1, 30)
        ),
    }
    rows, runs = sweep(
        {"version": versions},
        versions.get,
        cells=("ckt_height", "occupancy", "mbytes"),
        extra=lambda result, label: {"time_s": round(result.exec_time_s, 3)},
    )
    sm, sender, receiver = runs.values()
    checks = {
        # §5.2: the shared memory version gives the best quality.
        "shared memory quality beats message passing": sm.quality.circuit_height
        <= min(sender.quality.circuit_height, receiver.quality.circuit_height),
        # Conclusions: SM traffic >> sender initiated >> receiver initiated.
        "SM traffic well above sender initiated": sm.mbytes_transferred
        > 2.0 * sender.mbytes_transferred,
        "sender traffic well above sparse receiver": sender.mbytes_transferred
        > 5.0 * receiver.mbytes_transferred,
        # §5.2: writes cause >80 % of shared memory bytes (asserted at
        # full scale; small quick circuits have more cold-miss dilution).
        "writes dominate SM bytes": sm.coherence.write_caused_fraction
        > (0.60 if quick else 0.80),
    }
    notes = (
        f"traffic ratios: SM/sender = "
        f"{sm.mbytes_transferred / sender.mbytes_transferred:.1f}x, "
        f"sender/receiver = "
        f"{sender.mbytes_transferred / max(receiver.mbytes_transferred, 1e-4):.1f}x "
        "(paper: ~10x and ~10x)"
    )
    return list(rows.values()), checks, notes


@experiment("X4", "Circuit locality measure under the most local assignment")
def run_x4_locality_measure(quick: bool = False) -> Table:
    """§5.3.3: cell-weighted hops between routing processor and cell owner."""
    hops: Dict[str, float] = {}

    def cells(result: ParallelRunResult, which: str) -> Dict[str, object]:
        report = _locality(result, which, quick)
        hops[which] = report.mean_hops
        return {
            "mean_hops": round(report.mean_hops, 3),
            "owned_fraction": round(report.owned_fraction, 3),
            "paper_hops": ref.TEXT_RESULTS[f"locality_{which.lower()}"],
        }

    rows, _ = sweep(
        {"circuit": ("bnrE", "MDC")},
        lambda which: _sim(
            "mp", quick, which=which, schedule=SENDER_2_10, assigner="TC=inf"
        ),
        cells=(),
        extra=cells,
    )
    checks = {
        # §5.3.3: MDC has better locality than bnrE.
        "MDC more local than bnrE": hops["MDC"] < hops["bnrE"],
        # Even fully local assignment routes >0 hops from the owner.
        "residual non-locality is unavoidable": all(h > 0.3 for h in hops.values()),
        "hops within a sane band": all(0.3 < h < 3.0 for h in hops.values()),
    }
    return list(rows.values()), checks


@experiment("X5", "Speedup at 16 processors (sender initiated, 2 x T2 / T16)")
def run_x5_speedup(quick: bool = False) -> Table:
    """§5.4: speedup at 16 processors, normalised to the 2-processor run."""
    circuits = ("bnrE", "MDC")
    # Two runs per row: the 2- and the 16-processor time of each circuit.
    _, runs = sweep(
        {"circuit": circuits, "n_procs": (2, 16)},
        lambda which, p: _sim(
            "mp", quick, which=which, schedule=SENDER_2_10, n_procs=p
        ),
    )
    rows = []
    speedups: Dict[str, float] = {}
    for which in circuits:
        t2, t16 = runs[which, 2].exec_time_s, runs[which, 16].exec_time_s
        speedups[which] = 2 * t2 / t16
        rows.append(
            {
                "circuit": which,
                "time_2p_s": round(t2, 3),
                "time_16p_s": round(t16, 3),
                "speedup": round(speedups[which], 2),
                "paper_speedup": ref.TEXT_RESULTS[f"speedup_{which.lower()}"],
            }
        )
    checks = {
        "speedups in the paper's band (9-16)": all(
            9.0 <= s <= 16.0 for s in speedups.values()
        ),
    }
    return rows, checks


@experiment("X6", "Rip-up and reroute convergence (height vs iteration count)")
def run_x6_iterations(quick: bool = False) -> Table:
    """§3: "Performing several of these iterations ... improves the final
    solution quality" — height vs iteration count, both paradigms."""
    max_iters = 4 if quick else 5
    seq = SequentialRouter(quick_circuit("bnrE", quick), iterations=max_iters).run()
    sm_runs = run_sim_configs(
        [
            _sim("sm", quick, iterations=iters, collect_trace=False)
            for iters in range(1, max_iters + 1)
        ]
    )
    sm_heights = [sm.quality.circuit_height for sm in sm_runs]
    rows = [
        {
            "iterations": iters + 1,
            "sequential_height": seq.per_iteration_height[iters],
            "shared_memory_height": sm_heights[iters],
        }
        for iters in range(max_iters)
    ]
    checks = {
        # more iterations never meaningfully hurt the sequential solution
        # (the alternating tie-break lets late iterations oscillate by a
        # track, as real rip-up heuristics do)
        "sequential height non-increasing (1-track tolerance)": all(
            b <= a + 1
            for a, b in zip(seq.per_iteration_height, seq.per_iteration_height[1:])
        ),
        # rip-up and reroute buys real improvement over the first pass
        "iterations improve over the greedy first pass": seq.per_iteration_height[-1]
        < seq.per_iteration_height[0],
        # the parallel run converges too (small tolerance for staleness noise)
        "shared memory improves with iterations": sm_heights[-1]
        <= sm_heights[0],
    }
    return rows, checks


@experiment("X7", "Live execution vs event-driven simulation (real cores)")
def run_x7_live_vs_sim(quick: bool = False) -> Table:
    """Real cores vs simulated processors, side by side (docs/PARALLEL.md).

    Runs both live routers next to their simulators on the same circuit
    and tabulates quality, time (wall clock for live rows, virtual time
    for simulated rows — the ``clock`` column says which), and message
    traffic.  The checks assert what holds on *any* host: completion,
    bit-exact commit-log replay, and quality agreement within the
    documented tolerance.  The >1.5x live speedup check only arms on
    hosts with at least 4 cores (single-core CI containers cannot
    demonstrate parallelism); the measured ratio is always reported in
    ``extras`` either way.
    """
    from ..parallel.live import run_live_message_passing, run_live_shared_memory
    from ..verify.live import within_tolerance

    circuit = quick_circuit("bnrE", quick)
    iters = resolve_iterations(quick)
    cores = os.cpu_count() or 1
    n_live = max(2, min(4, cores))

    seq = SequentialRouter(circuit, iterations=iters).run()
    mp_schedule = UpdateSchedule.sender_initiated(1, 1)
    sm_sim, mp_sim = run_sim_configs([
        _sim("sm", quick, n_procs=n_live, collect_trace=False),
        _sim("mp", quick, n_procs=n_live, schedule=mp_schedule),
    ])
    live_solo = run_live_shared_memory(circuit, n_procs=1, iterations=iters)
    live_sm = run_live_shared_memory(circuit, n_procs=n_live, iterations=iters)
    live_mp = run_live_message_passing(
        circuit, mp_schedule, n_procs=n_live, iterations=iters
    )

    def replayed(live: ParallelRunResult) -> bool:
        return live.meta["verification"]["ok"]

    def row(impl, procs, quality, time_s, clock, messages="-", replay="-"):
        return {
            "implementation": impl,
            "procs": procs,
            "ckt_height": quality.circuit_height,
            "occupancy": quality.occupancy_factor,
            "time_s": round(time_s, 4),
            "clock": clock,
            "messages": messages,
            "replay_ok": replay,
        }

    rows = [
        row("sequential", 1, seq.quality, 0.0, "-"),
        row("sm simulated", n_live, sm_sim.quality, sm_sim.exec_time_s, "virtual"),
        row(
            "sm live",
            n_live,
            live_sm.quality,
            live_sm.exec_time_s,
            "wall",
            replay=replayed(live_sm),
        ),
        row("sm live", 1, live_solo.quality, live_solo.exec_time_s, "wall",
            replay=replayed(live_solo)),
        row(
            "mp simulated",
            n_live,
            mp_sim.quality,
            mp_sim.exec_time_s,
            "virtual",
            messages=mp_sim.network.n_messages,
        ),
        row(
            "mp live",
            n_live,
            live_mp.quality,
            live_mp.exec_time_s,
            "wall",
            messages=live_mp.meta["traffic"]["messages_sent"],
            replay=replayed(live_mp),
        ),
    ]

    speedup = (
        live_solo.exec_time_s / live_sm.exec_time_s
        if live_sm.exec_time_s > 0
        else 0.0
    )
    checks = {
        "live SM commit-log replay bit-exact": replayed(live_sm)
        and replayed(live_solo),
        "live MP log replay is the committed-path union": replayed(live_mp),
        "live SM quality within tolerance of the SM simulator": within_tolerance(
            live_sm.quality, sm_sim.quality
        ),
        "live MP quality within tolerance of the MP simulator": within_tolerance(
            live_mp.quality, mp_sim.quality
        ),
        "live quality within tolerance of sequential": within_tolerance(
            live_sm.quality, seq.quality
        )
        and within_tolerance(live_mp.quality, seq.quality),
    }
    if cores >= 4:
        checks[f"live SM speedup > 1.5x on {cores} cores"] = speedup > 1.5
    notes = (
        "simulated rows report virtual time from the event kernels; live "
        "rows report wall clock of the routing phase on real worker "
        f"processes (host has {cores} cores; the speedup check arms at 4+)"
    )
    extras = {
        "cores": cores,
        "live_sm_speedup": round(speedup, 3),
        "live_solo_wall_s": live_solo.exec_time_s,
        "live_sm_wall_s": live_sm.exec_time_s,
        "live_mp_wall_s": live_mp.exec_time_s,
        "live_mp_traffic": live_mp.meta["traffic"],
        "sim_mp_messages": mp_sim.network.n_messages,
    }
    return rows, checks, notes, extras


def _verified(result: ParallelRunResult) -> str:
    """The ``verified`` cell: did the invariant checkers stay green?"""
    return "ok" if result.meta["verification"]["ok"] else "FAIL"


@experiment("F1", "Fault tolerance: drop rate vs quality (blocking receiver 1/5)")
def run_f1_fault_tolerance(quick: bool = False) -> Table:
    """F1: graceful degradation of a *blocking* run under packet loss.

    The paper's loose-consistency argument (§4.1) is that LocusRoute
    tolerates stale cost data — quality degrades smoothly rather than
    correctness breaking.  Fault injection turns that claim into an
    experiment: drop an increasing fraction of update packets from a
    blocking receiver-initiated run (the schedule most exposed to loss —
    without recovery it deadlocks on the first lost response) and watch
    (a) every run still complete via the watchdog/retry/abandon path,
    (b) the recovery effort grow with the drop rate, and (c) the final
    quality stay in the same regime as the fault-free run.
    """
    drop_rates = [0.0, 0.1, 0.2, 0.4]
    schedule = UpdateSchedule.receiver_initiated(1, 5, blocking=True)

    def cells(result: ParallelRunResult, rate: float) -> Dict[str, object]:
        fmeta = result.meta.get("faults", {})
        recovery = fmeta.get("recovery", {})
        return {
            "dropped": int(fmeta.get("injected", {}).get("dropped", 0)),
            "retries": int(recovery.get("retries_sent", 0)),
            "abandoned": int(recovery.get("requests_abandoned", 0)),
            "verified": _verified(result),
        }

    by_rate, runs = sweep(
        {"drop_prob": drop_rates},
        lambda rate: _sim(
            "mp",
            quick,
            schedule=schedule,
            check_invariants=True,
            faults=FaultPlan(seed=7, drop_prob=rate) if rate > 0 else None,
        ),
        extra=cells,
    )
    rows = list(by_rate.values())
    dropped = [row["dropped"] for row in rows]
    recovery_effort = [row["retries"] + row["abandoned"] for row in rows]
    occupancy = [row["occupancy"] for row in rows]
    checks = {
        # The headline result: no deadlock at any drop rate (the simulator
        # raises on unfinished nodes, so completing with every wire routed
        # is the strongest liveness statement available).
        "blocking runs complete at every drop rate": all(
            len(r.paths) == len(runs[0.0].paths) for r in runs.values()
        ),
        "fault-free baseline reports zero faults": dropped[0] == 0
        and recovery_effort[0] == 0,
        # Reported loss and recovery effort must track the injected rate.
        "reported drops increase with drop rate": all(
            b > a for a, b in zip(dropped[1:], dropped[2:])
        )
        and dropped[1] > 0,
        "recovery effort grows with drop rate": recovery_effort[-1]
        >= recovery_effort[1] > 0,
        # Graceful degradation: routing against stale views costs quality
        # smoothly — the worst lossy run stays in the fault-free regime.
        "quality degrades gracefully (within 25%)": max(occupancy)
        <= 1.25 * occupancy[0],
        # The verify layer stays green under injection: conservation holds
        # on transmitted traffic and the replica check is waived visibly.
        "invariants green under injection": all(r["verified"] == "ok" for r in rows),
    }
    notes = (
        "every packet kind is dropped with the given probability; "
        "recovery = watchdog retries with exponential backoff, then "
        "abandonment to the stale view (see docs/FAULTS.md)"
    )
    return rows, checks, notes


@experiment(
    "F2",
    "Crash recovery: crash count x time vs completion (blocking receiver 1/5)",
)
def run_f2_crash_recovery(quick: bool = False) -> Table:
    """F2: fail-stop node crashes vs completion, recovery latency, quality.

    The robustness counterpart to F1: instead of losing packets, whole
    processors fail-stop mid-run.  Survivors must detect each death
    (watchdog suspicion -> heartbeat probe -> gossiped death notice),
    re-own the orphaned cost-array regions over the consistent-hash ring,
    adopt the dead node's unfinished wires, and still route every wire.
    The sweep crosses crash count (1, 2, 4 of 16) with crash time (early
    vs late in the baseline's execution) and checks completion, bounded
    recovery latency, graceful quality degradation, invariant health, and
    bitwise determinism of a crashed run.
    """
    schedule = UpdateSchedule.receiver_initiated(1, 5, blocking=True)

    def config(faults: Optional[FaultPlan]) -> SimConfig:
        return _sim(
            "mp", quick, schedule=schedule, check_invariants=True, faults=faults
        )

    (baseline,) = run_sim_configs([config(None)])
    t_total = baseline.exec_time_s

    def crashed(count: int, frac: float) -> SimConfig:
        return config(
            FaultPlan(
                seed=11,
                node_crashes=random_crashes(16, count, at_s=frac * t_total, seed=11),
                recovery=RecoveryPolicy(),
            )
        )

    def cells(result: ParallelRunResult, count: int, frac: float) -> Dict[str, object]:
        crash_meta = result.meta["faults"]["crash"]
        lats = [lat for _dead, lat in crash_meta["recovery_latency_s"]]
        measured = result.table_row()
        return {
            "confirmed": len(crash_meta["confirmed"]),
            "regions_reassigned": crash_meta["regions_reassigned"],
            "wires_adopted": crash_meta["wires_adopted"],
            "max_recovery_s": round(max(lats), 4) if lats else 0.0,
            **{cell: measured[cell] for cell in ("ckt_height", "occupancy", "time_s")},
            "verified": _verified(result),
        }

    by_point, runs = sweep(
        {"crashes": (1, 2, 4), "crash_at_frac": (0.25, 0.6)},
        crashed,
        cells=(),
        extra=cells,
    )
    rows = list(by_point.values())
    latencies = [
        lat
        for result in runs.values()
        for _dead, lat in result.meta["faults"]["crash"]["recovery_latency_s"]
    ]

    # Determinism spot check: the heaviest crash config, run twice from
    # scratch (bypassing the row cache), must agree bit for bit.
    heavy = crashed(4, 0.6)
    fp_a = stable_hash(jsonify(run_sim_config(heavy).summary_dict()))
    fp_b = stable_hash(jsonify(run_sim_config(heavy).summary_dict()))

    checks = {
        # The headline result: up to a quarter of the machine fail-stops
        # and the router still finishes every wire.
        "every crashed run routes all wires": all(
            len(result.paths) == len(baseline.paths) for result in runs.values()
        ),
        # A crash landing after completion legitimately goes unconfirmed,
        # so confirmed <= planned; early crashes must all be confirmed.
        "early crashes all confirmed": all(
            r["confirmed"] == r["crashes"]
            for r in rows
            if r["crash_at_frac"] == 0.25
        ),
        # Detection plus re-ownership stays inside the probe/audit budget.
        "recovery latency bounded (< 1 s)": all(l < 1.0 for l in latencies)
        and latencies != [],
        # Graceful degradation: losing replicas costs quality smoothly.
        "quality degrades gracefully (within 50%)": max(r["occupancy"] for r in rows)
        <= 1.5 * baseline.table_row()["occupancy"],
        # Ownership totality / conservation checkers stay green.
        "invariants green under crashes": all(r["verified"] == "ok" for r in rows),
        "crashed run is deterministic": fp_a == fp_b,
    }
    notes = (
        "fail-stop crashes; detection = watchdog suspicion -> heartbeat "
        "probe -> gossiped death notice; re-ownership = consistent-hash "
        "ring over region bands (see docs/FAULTS.md)"
    )
    return rows, checks, notes


# The R- and A-series build on this module's table builder, so they are
# imported — and thereby registered, in this order — once it exists.
from . import robustness  # noqa: E402,F401
from . import ablations  # noqa: E402,F401


def run_experiment(exp_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id (raises for unknown ids)."""
    try:
        driver = EXPERIMENTS[exp_id.upper()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return driver(quick)
