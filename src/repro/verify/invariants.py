"""Concrete invariant checkers for both simulators.

Each checker encodes one consistency guarantee the paper's argument
rests on (see docs/VERIFICATION.md for the paper-section mapping):

- **cost-array conservation** — at every quiescent point the ground
  truth array's total occupancy equals the summed length of the
  currently routed paths, and at end of run the array is *exactly* the
  union of the final paths (first differing cell reported otherwise);
- **MSI coherence legality** — the Write-Back-with-Invalidate state
  machine never holds a line modified in two caches, a modified line is
  exclusive, and every observed transition matches the protocol's legal
  edge for the access that caused it;
- **network flit conservation** — every message injected into the
  wormhole network is delivered exactly once, byte counts balance, no
  delivery beats the uncontended latency bound, and link-busy time
  equals the flit-train occupancy implied by the delivered messages;
- **delta-replica convergence** — at the end of a message passing run,
  each owner's view of its own region plus every other node's unsent
  deltas for that region reconstructs the sequential ground truth.

The monitors are engineered for near-zero cost when disabled: the
simulators construct them only under ``check_invariants=True``, and the
event-kernel probe fires every :data:`PROBE_INTERVAL` events.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..grid.cost_array import CostArray
from ..route.path import RoutePath
from .violations import VerificationReport

__all__ = [
    "PROBE_INTERVAL",
    "first_differing_cell",
    "earliest_wire_covering",
    "check_truth_is_path_union",
    "CostConservationMonitor",
    "CoherenceInvariantChecker",
    "NetworkInvariantMonitor",
    "check_replica_convergence",
    "check_ownership_totality",
]

#: Event-kernel probe cadence for the periodic accounting checks.
PROBE_INTERVAL = 256


# ----------------------------------------------------------------------
# array-difference helpers (shared by checkers and the oracle)
# ----------------------------------------------------------------------
def first_differing_cell(
    a: np.ndarray, b: np.ndarray
) -> Optional[Tuple[int, int, int, int]]:
    """First row-major ``(c, x, a_val, b_val)`` where the arrays differ."""
    diff = np.flatnonzero(a.reshape(-1) != b.reshape(-1))
    if diff.size == 0:
        return None
    flat = int(diff[0])
    n_grids = a.shape[1]
    return (flat // n_grids, flat % n_grids, int(a.reshape(-1)[flat]), int(b.reshape(-1)[flat]))


def earliest_wire_covering(
    flat_cell: int,
    paths: Mapping[int, RoutePath],
    commit_times: Optional[Dict[int, float]] = None,
) -> Tuple[Optional[int], Optional[float]]:
    """The earliest-committed wire whose final path covers *flat_cell*.

    Returns ``(wire, commit_time)``; falls back to the lowest wire index
    when no commit times are known, and ``(None, None)`` when no routed
    path covers the cell (the divergence came from outside any path —
    e.g. a lost rip-up).
    """
    covering = [
        w
        for w, path in paths.items()
        if np.searchsorted(path.flat_cells, flat_cell) < path.n_cells
        and path.flat_cells[np.searchsorted(path.flat_cells, flat_cell)] == flat_cell
    ]
    if not covering:
        return None, None
    if commit_times:
        wire = min(covering, key=lambda w: (commit_times.get(w, np.inf), w))
        return wire, commit_times.get(wire)
    wire = min(covering)
    return wire, None


def check_truth_is_path_union(
    report: VerificationReport,
    truth: CostArray,
    paths: Mapping[int, RoutePath],
    commit_times: Optional[Dict[int, float]] = None,
    engine: str = "",
    event_time_s: Optional[float] = None,
) -> bool:
    """End-of-run conservation: the truth array == union of final paths."""
    reference = CostArray(truth.n_channels, truth.n_grids)
    for path in paths.values():
        reference.apply_path(path.flat_cells)
    diff = first_differing_cell(truth.data, reference.data)
    prefix = f"{engine}: " if engine else ""
    if diff is None:
        report.count("cost-conservation")
        return True
    c, x, actual, expected = diff
    wire, wire_time = earliest_wire_covering(
        c * truth.n_grids + x, paths, commit_times
    )
    return report.check(
        "cost-conservation",
        False,
        f"{prefix}truth array diverges from the union of routed paths",
        cell=(c, x),
        wire=wire,
        event_time_s=wire_time if wire_time is not None else event_time_s,
        expected=expected,
        actual=actual,
    )


# ----------------------------------------------------------------------
# cost-array conservation (both simulators)
# ----------------------------------------------------------------------
class CostConservationMonitor:
    """Tracks Σ routed path lengths and compares against the truth array.

    The simulators call :meth:`on_ripup` / :meth:`on_commit` from their
    ground-truth hooks; :meth:`on_commit` and :meth:`at_quiescence`
    compare the incrementally maintained expected total against the
    array's actual total — the single cheapest canary for lost or
    double-counted path applications.  Final commit times are recorded
    so divergence reports can name the event timestamp.
    """

    def __init__(self, report: VerificationReport, truth: CostArray, engine: str) -> None:
        self.report = report
        self.truth = truth
        self.engine = engine
        self.expected_total = 0
        self.commit_times: Dict[int, float] = {}

    def on_ripup(self, wire_idx: int, path: RoutePath, time: float) -> None:
        self.expected_total -= path.n_cells

    def on_commit(self, wire_idx: int, path: RoutePath, time: float) -> None:
        self.expected_total += path.n_cells
        self.commit_times[wire_idx] = time
        actual = self.truth.total_occupancy()
        self.report.check(
            "cost-conservation",
            actual == self.expected_total,
            f"{self.engine}: total occupancy diverged from summed path "
            "lengths at commit",
            wire=wire_idx,
            event_time_s=time,
            expected=self.expected_total,
            actual=actual,
        )

    def at_quiescence(self, time: float, label: str) -> None:
        """Check conservation at a quiescent point (barrier, end of run)."""
        actual = self.truth.total_occupancy()
        self.report.check(
            "cost-conservation",
            actual == self.expected_total,
            f"{self.engine}: total occupancy diverged from summed path "
            f"lengths at {label}",
            event_time_s=time,
            expected=self.expected_total,
            actual=actual,
        )
        negative = np.flatnonzero(self.truth.data.reshape(-1) < 0)
        first = int(negative[0]) if negative.size else None
        self.report.check(
            "cost-conservation",
            negative.size == 0,
            f"{self.engine}: negative occupancy entry at {label}",
            cell=None
            if first is None
            else (first // self.truth.n_grids, first % self.truth.n_grids),
            event_time_s=time,
        )

    def at_end(self, paths: Dict[int, RoutePath], time: float) -> None:
        """Full end-of-run reconstruction check."""
        self.at_quiescence(time, "end of run")
        check_truth_is_path_union(
            self.report,
            self.truth,
            paths,
            commit_times=self.commit_times,
            engine=self.engine,
            event_time_s=time,
        )


# ----------------------------------------------------------------------
# MSI coherence legality (shared memory trace replay)
# ----------------------------------------------------------------------
class CoherenceInvariantChecker:
    """Checks every Write-Back-with-Invalidate transition for legality.

    Installed via ``simulate_trace(..., checker=...)``: :meth:`pre`
    snapshots the touched lines' states before the access burst,
    :meth:`post` verifies (1) the observed transition equals the
    protocol's single legal edge for that access, and (2) the resulting
    states are legal — a modified line has exactly one holder (no two
    caches in M) and sharers never exceed the ever-held set.
    """

    def __init__(self, report: VerificationReport, engine: str = "shared_memory") -> None:
        self.report = report
        self.engine = engine
        self._pre_sharers: Optional[np.ndarray] = None
        self._pre_dirty: Optional[np.ndarray] = None
        self._lines: Optional[np.ndarray] = None

    def pre(self, protocol, record) -> None:
        lines = protocol.amap.cells_to_lines(record.flat_cells)
        self._lines = lines
        sharers, dirty, _ = protocol.line_arrays(lines)
        self._pre_sharers = sharers
        self._pre_dirty = dirty

    def post(self, protocol, record) -> None:
        lines = self._lines
        if lines is None or lines.size == 0:
            return
        sharers, dirty, ever_held = protocol.line_arrays(lines)
        bit = np.int64(1) << record.proc

        # (1) transition legality: the protocol defines exactly one legal
        # post-state per (pre-state, access) pair.
        if record.is_write:
            exp_sharers = np.full_like(sharers, bit)
            exp_dirty = np.full_like(dirty, record.proc)
        else:
            exp_sharers = self._pre_sharers | bit
            exp_dirty = np.where(self._pre_dirty == record.proc, record.proc, -1).astype(
                dirty.dtype
            )
        bad = np.flatnonzero((sharers != exp_sharers) | (dirty != exp_dirty))
        self._violation_on(
            protocol,
            record,
            lines,
            bad,
            "illegal coherence transition for "
            + ("write" if record.is_write else "read"),
        )

        # (2) state legality: M is exclusive (never two caches modified),
        # and a cache can only share a line it has held.
        modified = dirty >= 0
        exclusive_ok = ~modified | (
            sharers == (np.int64(1) << dirty.astype(np.int64))
        )
        bad = np.flatnonzero(~exclusive_ok)
        self._violation_on(
            protocol, record, lines, bad, "modified line not exclusive"
        )
        bad = np.flatnonzero((sharers & ~ever_held) != 0)
        self._violation_on(
            protocol, record, lines, bad, "sharer bit set for a cache that never held the line"
        )
        self._lines = None

    def _violation_on(self, protocol, record, lines, bad_idx, message: str) -> None:
        if bad_idx.size == 0:
            self.report.count("msi-legality")
            return
        line = int(lines[int(bad_idx[0])])
        # Map the line back to a representative grid cell when it covers
        # the cost array (later lines hold scheduler/wire-record words).
        word = line * protocol.amap.words_per_line
        cell = None
        if word < protocol.amap.n_channels * protocol.amap.n_grids:
            cell = (word // protocol.amap.n_grids, word % protocol.amap.n_grids)
        self.report.check(
            "msi-legality",
            False,
            f"{self.engine}: {message} (line {line})",
            cell=cell,
            proc=record.proc,
            event_time_s=record.time,
        )


# ----------------------------------------------------------------------
# wormhole network accounting (message passing)
# ----------------------------------------------------------------------
class NetworkInvariantMonitor:
    """Flit conservation and in-flight message accounting.

    :meth:`probe` is registered on the event kernel and runs every
    :data:`PROBE_INTERVAL` events; :meth:`on_delivery` is called per
    delivery; :meth:`at_end` closes the books once the event queue has
    drained.
    """

    def __init__(self, report: VerificationReport, network) -> None:
        self.report = report
        self.network = network

    def probe(self) -> None:
        net = self.network
        self.report.check(
            "flit-conservation",
            net.messages_injected == net.messages_delivered + net.in_flight
            and net.in_flight >= 0,
            "message accounting imbalance while running "
            f"(injected={net.messages_injected}, "
            f"delivered={net.messages_delivered}, in_flight={net.in_flight})",
            event_time_s=net.sim.now,
        )

    def on_delivery(self, delivery) -> None:
        floor = self.network.uncontended_latency(
            delivery.message.src, delivery.message.dst, delivery.message.length_bytes
        )
        self.report.check(
            "flit-conservation",
            delivery.latency >= floor - 1e-12,
            "delivery beat the uncontended latency bound "
            f"(latency={delivery.latency:.3e}s, floor={floor:.3e}s)",
            proc=delivery.message.dst,
            event_time_s=delivery.arrive_time,
            expected=floor,
            actual=delivery.latency,
        )

    def at_end(self, end_time: float) -> None:
        net = self.network
        self.report.check(
            "flit-conservation",
            net.in_flight == 0,
            f"{net.in_flight} messages still in flight after the event "
            "queue drained",
            event_time_s=end_time,
            expected=0,
            actual=net.in_flight,
        )
        self.report.check(
            "flit-conservation",
            net.messages_injected == net.messages_delivered == net.stats.n_messages,
            "message counts disagree (injected="
            f"{net.messages_injected}, delivered={net.messages_delivered}, "
            f"recorded={net.stats.n_messages})",
            event_time_s=end_time,
        )
        self.report.check(
            "flit-conservation",
            net.bytes_injected == net.bytes_delivered == net.stats.total_bytes,
            "byte totals disagree (injected="
            f"{net.bytes_injected}, delivered={net.bytes_delivered}, "
            f"recorded={net.stats.total_bytes})",
            event_time_s=end_time,
        )
        # Flit-train occupancy: each delivered message held each of its
        # `hops` links for (L + 1) byte-times, so summed link-busy time
        # must equal hop_time * (Σ L·hops + Σ hops) exactly.
        expected_busy = net.hop_time_s * (
            net.stats.total_hop_bytes + net.stats.total_hops
        )
        actual_busy = math.fsum(net._link_busy_s)
        self.report.check(
            "flit-conservation",
            abs(actual_busy - expected_busy) <= 1e-9 * max(1.0, expected_busy),
            "link-busy time diverges from delivered flit-train occupancy "
            f"(busy={actual_busy:.6e}s, expected={expected_busy:.6e}s)",
            event_time_s=end_time,
            expected=expected_busy,
            actual=actual_busy,
        )
        # Under fault injection the conservation counters see only the
        # *transmitted* traffic (drops never enter the network, duplicates
        # are full extra trains), so the injector's books must reconcile
        # with the network's: attempts - dropped + duplicated == injected.
        if getattr(net, "faults", None) is not None:
            stats = net.faults.stats
            expected_injected = stats.send_attempts - stats.dropped + stats.duplicated
            self.report.check(
                "flit-conservation",
                net.messages_injected == expected_injected,
                "fault accounting imbalance (attempts="
                f"{stats.send_attempts}, dropped={stats.dropped}, "
                f"duplicated={stats.duplicated}, injected="
                f"{net.messages_injected})",
                event_time_s=end_time,
                expected=expected_injected,
                actual=net.messages_injected,
            )


# ----------------------------------------------------------------------
# delta-replica convergence (message passing)
# ----------------------------------------------------------------------
def check_replica_convergence(
    report: VerificationReport,
    nodes: Sequence,
    truth: CostArray,
    end_time: float,
    engine: str = "message_passing",
) -> bool:
    """Owner view + undelivered remote deltas == ground truth, per region.

    At the end of a run the event queue has drained, so nothing is in
    flight: every change to an owner's region is either already folded
    into the owner's view (its own commits, plus every delivered
    SendRmtData / RspLocData) or still sitting unsent in some remote
    node's delta array.  Their sum must therefore reconstruct the ground
    truth exactly — the machine-checked statement of the paper's loose
    consistency contract (§4.1, §4.3).
    """
    ok = True
    for owner in nodes:
        region = owner.own_region
        reconstructed = owner.view.extract(region).astype(np.int64)
        for other in nodes:
            if other is not owner:
                reconstructed += other.delta.extract(region)
        expected = truth.extract(region).astype(np.int64)
        diff = first_differing_cell(reconstructed, expected)
        if diff is None:
            report.count("replica-convergence")
            continue
        c, x, actual, exp = diff
        ok = report.check(
            "replica-convergence",
            False,
            f"{engine}: owner {owner.proc}'s replica (view + undelivered "
            "deltas) diverges from ground truth",
            cell=(c + region.c_lo, x + region.x_lo),
            proc=owner.proc,
            event_time_s=end_time,
            expected=exp,
            actual=actual,
        )
    return ok


# ----------------------------------------------------------------------
# post-recovery ownership totality (message passing, crash plans)
# ----------------------------------------------------------------------
def check_ownership_totality(
    report: VerificationReport,
    nodes: Sequence,
    regions,
    confirmed_dead,
    end_time: float,
    engine: str = "message_passing",
) -> bool:
    """After crash recovery, every region has exactly one live owner.

    Three statements, checked from the per-node ownership replicas:

    - **totality** — in every live node's map, each region resolves to a
      processor that is live (in that node's view) and not in the
      simulator's confirmed-dead set, so every cell of the cost array
      has exactly one live owner;
    - **agreement** — all live nodes hold the *same* region -> owner
      vector (the deterministic hash ring converged regardless of the
      order deaths were learned in);
    - **no false positives** — every confirmed-dead processor really
      executed its fail-stop (a live node voted off the ring would be a
      detector false positive, reported distinctly).
    """
    dead = set(int(p) for p in confirmed_dead)
    live_nodes = [n for n in nodes if not n.crashed and n.proc not in dead]
    ok = report.check(
        "ownership-totality",
        bool(live_nodes),
        f"{engine}: no live node survived the crash plan",
        event_time_s=end_time,
    )
    vectors = {}
    for node in live_nodes:
        if node.ownership is None:
            continue
        vec = node.ownership.owner_vector()
        vectors[node.proc] = vec
        total = len(vec) == regions.n_procs
        orphaned = [r for r, owner in enumerate(vec) if owner in dead]
        viewed_dead = [
            r for r, owner in enumerate(vec) if not node.ownership.is_live(owner)
        ]
        ok = (
            report.check(
                "ownership-totality",
                total and not orphaned and not viewed_dead,
                f"{engine}: node {node.proc}'s ownership map leaves regions "
                "without a live owner",
                proc=node.proc,
                event_time_s=end_time,
                expected=[],
                actual=sorted(set(orphaned) | set(viewed_dead)),
            )
            and ok
        )
    if vectors:
        reference_proc = min(vectors)
        reference = vectors[reference_proc]
        disagreeing = sorted(
            p for p, vec in vectors.items() if vec != reference
        )
        ok = (
            report.check(
                "ownership-agreement",
                not disagreeing,
                f"{engine}: live nodes disagree on the region -> owner map",
                event_time_s=end_time,
                expected=list(reference),
                actual=disagreeing,
            )
            and ok
        )
        if not disagreeing:
            report.count("ownership-agreement", len(vectors))
    false_positives = sorted(p for p in dead if not nodes[p].crashed)
    ok = (
        report.check(
            "ownership-totality",
            not false_positives,
            f"{engine}: live processors were declared dead "
            "(failure detector false positive)",
            event_time_s=end_time,
            expected=[],
            actual=false_positives,
        )
        and ok
    )
    return ok
