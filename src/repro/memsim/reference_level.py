"""Per-reference (true Tango granularity) coherence analysis.

The main coherence simulators process *access bursts* — each burst's
cells hit the protocol at one instant.  Tango's actual traces recorded
every individual reference, and interleaving at that granularity exposes
invalidation/refetch interactions that burst processing coalesces (see
the T3 note in EXPERIMENTS.md).  This module replays a trace at that
granularity.

A per-reference replay through the per-line state machine would be a
Python-speed loop over millions of references; instead this module
computes the same outcome *analytically*.  Under the infinite-cache
write-back-invalidate protocol each line's history is independent, and a
reference's outcome depends only on order statistics that sorts and
prefix sums deliver:

- a reference by processor *p* to line *l* is a **cold miss** iff it is
  p's first reference to *l*;
- it is a **refetch** iff some *other* processor wrote *l* between p's
  previous reference to *l* and this one (the write invalidated p's
  copy);
- a write by *p* is a silent cache hit iff p's previous reference to *l*
  was also a write and *no* other processor touched *l* in between
  (the line was still exclusive-dirty); otherwise it costs a **word
  write** on the bus.

Those are exactly the three traffic components the paper enumerates in
§5.2 (write-back flushes, which the burst simulators also track, have no
closed order-statistic form and are omitted here — documented in
:func:`simulate_trace_reference_level`).

The whole computation is NumPy sorts and segmented prefix sums: a few
million references replay in well under a second per line size.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import CoherenceError
from .addressing import WORD_BYTES, AddressMap
from .stats import CoherenceStats
from .trace import ReferenceTrace

__all__ = ["expand_trace", "analyze_references", "simulate_trace_reference_level"]


def expand_trace(trace: ReferenceTrace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a burst trace into per-reference streams in global order.

    Returns ``(words, procs, writes)`` arrays ordered by (burst time,
    append sequence, position inside the burst) — i.e. each burst's cells
    become consecutive individual references, preserving the recorded
    intra-burst order.
    """
    cols = trace.columns()
    sizes = np.diff(cols.offsets)
    return (
        cols.cells,
        np.repeat(cols.procs.astype(np.int16), sizes),
        np.repeat(cols.writes, sizes),
    )


def _group_exclusive_prefix(
    sort_idx: np.ndarray, group_key: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Exclusive prefix sums of *values* within groups of equal keys.

    ``sort_idx`` orders the data so equal keys are contiguous (and
    original order is preserved within a group); the result is scattered
    back to original indices.
    """
    sorted_keys = group_key[sort_idx]
    sorted_vals = values[sort_idx].astype(np.int64)
    cum = np.cumsum(sorted_vals) - sorted_vals  # exclusive, global
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    # subtract each group's base so prefixes restart at every group
    base = np.repeat(cum[starts], np.diff(np.concatenate((starts, [len(cum)]))))
    out = np.empty(len(values), dtype=np.int64)
    out[sort_idx] = cum - base
    return out


def _is_first_in_group(sort_idx: np.ndarray, group_key: np.ndarray) -> np.ndarray:
    """Boolean mask (original order): is this ref the first of its group?"""
    sorted_keys = group_key[sort_idx]
    first_sorted = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    out = np.empty(len(group_key), dtype=bool)
    out[sort_idx] = first_sorted
    return out


def _prev_in_group(sort_idx: np.ndarray, group_key: np.ndarray) -> np.ndarray:
    """Original index of each ref's predecessor in its group (-1 if none)."""
    sorted_keys = group_key[sort_idx]
    prev_sorted = np.concatenate(([-1], sort_idx[:-1]))
    prev_sorted[np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))] = -1
    out = np.empty(len(group_key), dtype=np.int64)
    out[sort_idx] = prev_sorted
    return out


def analyze_references(
    words: np.ndarray,
    procs: np.ndarray,
    writes: np.ndarray,
    address_map: AddressMap,
) -> CoherenceStats:
    """Closed-form per-reference write-back-invalidate traffic analysis."""
    n = len(words)
    stats = CoherenceStats(line_size=address_map.line_size)
    if n == 0:
        return stats
    if len(procs) != n or len(writes) != n:
        raise CoherenceError("words/procs/writes length mismatch")
    if int(procs.max()) > 63 or int(procs.min()) < 0:
        raise CoherenceError("processor ids must lie in [0, 63] (key packing)")

    lines = words.astype(np.int64) // address_map.words_per_line
    order = np.arange(n, dtype=np.int64)
    # Composite (line, proc) key; procs are small so this never overflows.
    lp_key = lines * 64 + procs.astype(np.int64)

    # Stable sorts keep original (time) order inside every group.
    by_line = np.argsort(lines, kind="stable")
    by_lp = np.argsort(lp_key, kind="stable")

    ones = np.ones(n, dtype=np.int64)
    w = writes.astype(np.int64)

    line_writes_before = _group_exclusive_prefix(by_line, lines, w)
    own_writes_before = _group_exclusive_prefix(by_lp, lp_key, w)
    foreign_writes_before = line_writes_before - own_writes_before

    line_refs_before = _group_exclusive_prefix(by_line, lines, ones)
    own_refs_before = _group_exclusive_prefix(by_lp, lp_key, ones)
    foreign_refs_before = line_refs_before - own_refs_before

    cold = _is_first_in_group(by_lp, lp_key)
    prev = _prev_in_group(by_lp, lp_key)
    has_prev = prev >= 0
    prev_safe = np.where(has_prev, prev, 0)

    # Refetch: a foreign write landed since my previous touch of the line.
    refetch = has_prev & (
        foreign_writes_before > foreign_writes_before[prev_safe]
    )

    ls = address_map.line_size
    miss = cold | refetch
    stats.cold_fetch_bytes = int(cold.sum()) * ls
    stats.refetch_bytes = int(refetch.sum()) * ls

    # Word writes: every write except a repeat write to a line still
    # exclusively dirty by this processor — i.e. p wrote the line before
    # and *no foreign reference* touched it since that write (p's own
    # reads of its dirty line do not disturb exclusivity).
    n_sorted = len(by_lp)
    w_sorted = writes[by_lp]
    grp_first_sorted = np.concatenate(
        ([True], lp_key[by_lp][1:] != lp_key[by_lp][:-1])
    )
    group_id = np.cumsum(grp_first_sorted) - 1
    pos_sorted = np.arange(n_sorted, dtype=np.int64)
    # candidate = my own write positions, shifted by one so each ref sees
    # only *earlier* writes, then forward-filled within the group
    cand = np.where(w_sorted, pos_sorted, np.int64(-1))
    cand_prev = np.concatenate(([np.int64(-1)], cand[:-1]))
    cand_prev[grp_first_sorted] = -1
    biased = np.where(cand_prev >= 0, cand_prev + group_id * n_sorted, np.int64(-1))
    run = np.maximum.accumulate(biased)
    valid_sorted = run >= group_id * n_sorted
    last_write_pos = np.where(valid_sorted, run - group_id * n_sorted, 0)

    foreign_refs_sorted = foreign_refs_before[by_lp]
    undisturbed_sorted = valid_sorted & (
        foreign_refs_sorted == foreign_refs_sorted[last_write_pos]
    )
    silent = np.empty(n, dtype=bool)
    silent[by_lp] = w_sorted & undisturbed_sorted
    word_writes = writes & ~silent
    stats.word_write_bytes = int(word_writes.sum()) * WORD_BYTES

    stats.n_read_refs = int((~writes).sum())
    stats.n_write_refs = int(writes.sum())
    # Invalidation events ~ word writes that had at least one prior
    # foreign reference (someone could hold a copy); an upper bound that
    # is exact when sharers never self-evict (infinite caches).
    stats.n_invalidation_events = int(
        (word_writes & (foreign_refs_before > 0)).sum()
    )
    return stats


def simulate_trace_reference_level(
    trace: ReferenceTrace, n_procs: int, address_map: AddressMap
) -> CoherenceStats:
    """Replay *trace* at individual-reference granularity.

    Computes the paper's three §5.2 traffic components (cold fetches,
    invalidation refetches, word writes).  Write-back flush bytes are not
    modelled at this granularity (no closed analytic form); compare
    against the burst simulators' non-writeback components.
    """
    if n_procs < 1 or n_procs > 63:
        raise CoherenceError("n_procs must be in [1, 63]")
    words, procs, writes = expand_trace(trace)
    if len(procs) and int(procs.max()) >= n_procs:
        raise CoherenceError("trace references a processor >= n_procs")
    return analyze_references(words, procs, writes, address_map)
