"""Durable per-worker commit logs and their replay into the ground-truth ledger.

The live shared-memory router (:mod:`repro.parallel.live.sm_live`) reads
the cost array without locks — stale reads are the paper's §3 semantics —
but every *write* (rip-up or commit) happens inside a short critical
section that also draws a ticket from a global sequence counter and
appends one record to the worker's private log file.  That gives the two
properties everything downstream depends on:

- **bit-exact replayability**: replaying all records in sequence order
  performs the same scatter-adds in the same order as the live run, so
  the replayed array must equal the final shared array exactly;
- **crash durability**: log files are opened unbuffered and each record
  is a single ``write(2)``, so a SIGKILLed worker's completed commits
  survive it (at worst the trailing record is truncated, which the
  reader tolerates and drops).

The live message-passing router reuses the same format with
``time.monotonic_ns()`` tickets (CLOCK_MONOTONIC is system-wide on
Linux), where the replayed array is the run's canonical ground truth
rather than a mirror of one shared buffer.

Replay feeds the records into the :class:`~repro.parallel.ledger.GroundTruthLedger`
both simulators drive, so one ledger judges all four engines: a live run
takes its truth array, paths, prices, routers and quality from it, and
its verdict sits in ``meta["verification"]`` as a ``--check-invariants``
simulator run's does.

Record wire format (little-endian, after an 8-byte file magic)::

    kind:u8  worker:i32  iteration:i32  wire:i32  seq:i64  price:i64
    n_cells:u32  cells:n_cells*i64

``price`` is the path cost the worker measured against the live array at
commit time (``-1`` when not measured); replay recomputes it and any
mismatch is a violation.
"""

from __future__ import annotations

import collections
import os
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ...circuits.model import Circuit
from ...errors import SimulationError
from ...route.path import RoutePath
from ..ledger import GroundTruthLedger
from ..results import NodeSummary, ParallelRunResult

__all__ = [
    "RIPUP",
    "COMMIT",
    "LOG_MAGIC",
    "CommitRecord",
    "CommitLogWriter",
    "read_log",
    "read_logs",
    "replay_records",
    "live_result",
]

#: Record kinds.
RIPUP = 2
COMMIT = 1

#: File magic: identifies a live commit log (version 1).
LOG_MAGIC = b"LRCLOG1\n"

_REC = struct.Struct("<BiiiqqI")


@dataclass(frozen=True)
class CommitRecord:
    """One logged cost-array mutation."""

    kind: int  #: :data:`COMMIT` or :data:`RIPUP`
    worker: int  #: worker slot that performed the write
    iteration: int  #: routing iteration the write belongs to
    wire: int  #: wire index
    seq: int  #: global order ticket (shared counter / monotonic clock)
    price: int  #: path cost measured at commit time (-1 = not measured)
    cells: np.ndarray  #: sorted unique flat cell indices (int64)


class CommitLogWriter:
    """Append-only unbuffered record writer for one worker process."""

    def __init__(self, path: str, worker: int) -> None:
        self._worker = worker
        # buffering=0: each append is one write(2) straight to the page
        # cache, so records written before a SIGKILL are never lost in a
        # userspace buffer.
        self._f = open(path, "ab", buffering=0)
        if self._f.tell() == 0:
            self._f.write(LOG_MAGIC)

    def append(
        self,
        kind: int,
        iteration: int,
        wire: int,
        seq: int,
        cells: np.ndarray,
        price: int = -1,
    ) -> None:
        """Durably append one record (single ``write`` call)."""
        cells64 = np.ascontiguousarray(cells, dtype=np.int64)
        header = _REC.pack(
            kind, self._worker, iteration, wire, seq, price, cells64.size
        )
        self._f.write(header + cells64.tobytes())

    def close(self) -> None:
        self._f.close()


def read_log(path: str) -> List[CommitRecord]:
    """Parse one log file, tolerating a truncated trailing record.

    A worker killed mid-``write`` can leave a partial record at the tail;
    everything before it is intact (records are appended sequentially),
    so parsing simply stops at the first short read.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(LOG_MAGIC):
        raise SimulationError(f"{path} is not a live commit log")
    records: List[CommitRecord] = []
    off = len(LOG_MAGIC)
    end = len(blob)
    while off + _REC.size <= end:
        kind, worker, iteration, wire, seq, price, n_cells = _REC.unpack_from(
            blob, off
        )
        cell_end = off + _REC.size + 8 * n_cells
        if kind not in (COMMIT, RIPUP):
            raise SimulationError(f"{path}: corrupt record kind {kind}")
        if cell_end > end:
            break  # truncated tail: the worker died mid-append
        cells = np.frombuffer(
            blob, dtype="<i8", count=n_cells, offset=off + _REC.size
        ).astype(np.int64, copy=True)
        records.append(
            CommitRecord(
                kind=kind,
                worker=worker,
                iteration=iteration,
                wire=wire,
                seq=seq,
                price=price,
                cells=cells,
            )
        )
        off = cell_end
    return records


def read_logs(paths: Iterable[str]) -> List[CommitRecord]:
    """Concatenate the records of several log files (missing files skipped).

    A worker killed before its first append leaves either no file or a
    bare-magic file; both count as an empty log.
    """
    records: List[CommitRecord] = []
    for path in paths:
        if not os.path.exists(path):
            continue
        records.extend(read_log(path))
    return records


def replay_records(
    records: Sequence[CommitRecord], circuit: Circuit, iterations: int
) -> GroundTruthLedger:
    """Feed *records* into a checked ledger in global ticket order.

    The simulators' :class:`~repro.parallel.ledger.GroundTruthLedger`
    rebuilds the truth array, the standing paths, each wire's commit-time
    price and router, and its cost-conservation monitor checks every
    commit; a record's position in ticket order stands in for event time.
    A :data:`RIPUP` takes the wire's standing path out; a :data:`COMMIT`
    on a wire that still stands rips that path first (logs without
    explicit rip-up records, such as the property test's interleavings).

    The replay's own checks land in the same report:

    - ``replay-ripup``: a rip-up record's cells are the standing path;
    - ``replay-price``: a logged price (``>= 0``) equals the replayed one,
      a cheap end-to-end probe that the critical sections serialised;
    - ``replay-commits``: all ``n_wires * iterations`` commits are present;
    - ``replay-standing``: every wire stands at the end.
    """
    ledger = GroundTruthLedger(circuit, "live", check_invariants=True)
    report = ledger.report
    ordered = sorted(records, key=lambda r: (r.seq, r.worker, r.kind))
    for tick, rec in enumerate(ordered):
        where = dict(wire=rec.wire, proc=rec.worker, event_time_s=float(tick))
        standing = ledger.standing(rec.wire)
        if rec.kind == RIPUP:
            report.check(
                "replay-ripup",
                standing is not None and np.array_equal(standing.flat_cells, rec.cells),
                "a rip-up record's cells are not the wire's standing path",
                **where,
            )
        if standing is not None:
            ledger.ripup(rec.wire, tick)
        if rec.kind == COMMIT:
            path = RoutePath.from_cells(rec.cells, circuit.n_grids)
            ledger.commit(rec.worker, rec.wire, path, tick)
            if rec.price >= 0:
                report.check(
                    "replay-price",
                    rec.price == ledger.prices[rec.wire],
                    "the logged commit price differs from the replayed price",
                    expected=rec.price,
                    actual=ledger.prices[rec.wire],
                    **where,
                )
    commits = sum(rec.kind == COMMIT for rec in records)
    expected = circuit.n_wires * iterations
    report.check(
        "replay-commits",
        commits == expected,
        f"{commits} commits logged, {expected} expected",
        expected=expected,
        actual=commits,
    )
    report.check(
        "replay-standing", ledger.complete, "not every wire stands at the end of the replay"
    )
    return ledger


def live_result(
    paradigm: str,
    ledger: GroundTruthLedger,
    records: Sequence[CommitRecord],
    routing_wall_s: float,
    slots: Sequence[Dict[str, float]],
    meta: Dict[str, object],
) -> ParallelRunResult:
    """A live run's result, with quality and verdict from its replay ledger.

    *slots* holds one dict per worker slot: ``incarnations`` and
    ``grabs``, plus ``messages_sent``, ``messages_received``,
    ``bytes_sent`` and ``blocked_time_s`` where the driver measures them
    (0 otherwise).  Commits, rip-ups and cells written are counted from
    the records.  ``NodeSummary`` takes what it has fields for; the rest
    goes to ``meta["workers"]``.
    """
    quality = ledger.close(len(records))
    written = [collections.Counter() for _ in slots]
    for rec in records:
        written[rec.worker][rec.kind] += 1
        written[rec.worker]["cells"] += rec.cells.size
    summaries = [
        NodeSummary(
            proc=slot,
            wires_routed=counts[COMMIT],
            finish_time_s=0.0,
            route_units=0.0,
            commit_units=0.0,
            assemble_units=0.0,
            incorporate_units=0.0,
            messages_sent=stats.get("messages_sent", 0),
            messages_received=stats.get("messages_received", 0),
            blocked_time_s=stats.get("blocked_time_s", 0.0),
        )
        for slot, (stats, counts) in enumerate(zip(slots, written))
    ]
    meta["workers"] = [
        {
            "incarnations": stats["incarnations"],
            "grabs": stats["grabs"],
            "ripups": counts[RIPUP],
            "cells_written": counts["cells"],
            "bytes_sent": stats.get("bytes_sent", 0),
        }
        for stats, counts in zip(slots, written)
    ]
    meta.update(ledger.verification_meta())
    return ParallelRunResult(
        paradigm=paradigm,
        quality=quality,
        exec_time_s=routing_wall_s,
        paths=ledger.paths,
        wire_router=ledger.wire_router,
        node_summaries=summaries,
        truth=ledger.truth,
        meta=meta,
    )
