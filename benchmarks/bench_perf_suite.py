#!/usr/bin/env python
"""Performance regression suite for the simulation kernels.

Measures the reference (scalar) and vectorized (columnar NumPy) kernels
on the same workloads, asserts their outputs are bit-identical, and
writes the results as JSON (``BENCH_perf.json`` at the repo root is the
committed baseline).  Two modes:

``--out PATH``
    Run the suite and write a fresh results file (the default writes
    ``BENCH_perf.json`` next to the repo root).

``--table PATH``
    Print a results file as the Markdown table ``docs/PERFORMANCE.md``
    carries (a test holds the document to it) and exit.

``--check PATH``
    Run the suite and compare against a committed baseline.  The gate is
    *ratio-based* so it is robust to machine speed: for every entry
    present in both runs, the fresh ``speedup`` (reference_s /
    vectorized_s) must be at least ``CHECK_RATIO`` (0.75) of the
    committed speedup.  A fresh speedup below that means the vectorized
    kernel lost more than 25% of its advantage — a perf regression —
    and the script exits 1.  Entries whose committed speedup is below
    ``GATE_MIN_SPEEDUP`` (near parity) are exempt from the speedup-ratio
    check — 0.75x of ~1.0x is indistinguishable from noise — but they are
    still gated against *absolute* regression: the vectorized kernel must
    finish within ``PARITY_SLOWDOWN`` (1.25x) of the scalar reference in
    the fresh run, so a change that makes a near-parity kernel outright
    slower than the code it replaces cannot pass silently.  Bit-identity
    failures always exit 1, for every entry.

All timings are warmed best-of-N wall clock (cProfile would inflate the
Python-call-dense reference kernels; see ``repro.obs.profiling``).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_suite.py --quick --check BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.kernels import use_kernels  # noqa: E402

SCHEMA = "locusroute-perf/1"
CHECK_RATIO = 0.75  # fresh speedup must keep >= 75% of the committed speedup
#: Entries whose committed speedup is below this are exempt from the
#: speedup-ratio check: 0.75x of a near-parity speedup is
#: indistinguishable from measurement noise, so ratio-gating them would
#: only produce flaky CI failures.  They are still held to the absolute
#: :data:`PARITY_SLOWDOWN` floor below, and bit-identity is gated for
#: every entry regardless.
GATE_MIN_SPEEDUP = 1.5
#: Absolute regression floor for near-parity entries: the vectorized
#: variant may be at most this much slower than the scalar reference in
#: the fresh run.  Catches the failure mode where a "vectorized" kernel
#: quietly becomes slower than the code it replaces while staying under
#: the ratio gate's radar.
PARITY_SLOWDOWN = 1.25

#: Seed-tree wall clocks (quick mode, warmed best-of-5) measured before the
#: kernel work landed, kept for context in reports.  The regression gate
#: never reads these — it compares speedup ratios within one machine/run.
SEED_BASELINE = {
    "t3_quick_s": 0.365,
    "t6_quick_s": 0.263,
    "note": "pre-vectorization tree, same machine as the committed entries",
}


def interleaved_best(
    fns: Dict[str, Callable[[], object]], repeats: int
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Best-of-*repeats* wall time per variant, measured interleaved.

    Round 0 is an untimed warm-up (imports, caches, allocator) whose
    results are kept for the bit-identity check.  Timed rounds alternate
    between the variants so sustained background load on a noisy machine
    slows every variant rather than biasing whichever ran last.
    """
    times = {name: float("inf") for name in fns}
    outputs: Dict[str, object] = {}
    for rep in range(repeats + 1):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - t0
            if rep == 0:
                outputs[name] = out
            else:
                times[name] = min(times[name], elapsed)
    return times, outputs


def _in_mode(mode: str, fn: Callable[[], object]) -> Callable[[], object]:
    """Wrap *fn* to run under kernel mode *mode*."""

    def run() -> object:
        with use_kernels(mode):
            return fn()

    return run


def compare_kernel_modes(
    fn: Callable[[], object], repeats: int
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Interleaved best-of timing of *fn* under each kernel mode."""
    return interleaved_best(
        {mode: _in_mode(mode, fn) for mode in ("reference", "vectorized")}, repeats
    )


def entry(
    entry_id: str,
    kind: str,
    reference_s: float,
    vectorized_s: float,
    bit_identical: bool,
    note: str,
) -> Dict[str, object]:
    return {
        "id": entry_id,
        "kind": kind,
        "reference_s": round(reference_s, 6),
        "vectorized_s": round(vectorized_s, 6),
        "speedup": round(reference_s / vectorized_s, 3) if vectorized_s else 0.0,
        "bit_identical": bit_identical,
        "note": note,
    }


# ---------------------------------------------------------------------------
# Whole-run experiments


def bench_whole_run(exp_id: str, quick: bool, repeats: int) -> Dict[str, object]:
    from repro.harness import run_experiment

    times, results = compare_kernel_modes(
        lambda: run_experiment(exp_id, quick=quick), repeats
    )
    same = (
        results["reference"].rows == results["vectorized"].rows
        and results["reference"].checks == results["vectorized"].checks
    )
    return entry(
        f"{exp_id.lower()}_whole_run",
        "whole_run",
        times["reference"],
        times["vectorized"],
        same,
        f"run_experiment({exp_id!r}, quick={quick}) under each kernel mode",
    )


# ---------------------------------------------------------------------------
# Coherence kernel: scalar replay vs columnar replay on a synthetic trace


def _synthetic_trace(n_records: int, n_procs: int, n_cells: int):
    """Deterministic burst trace with read/write mix and line reuse."""
    import numpy as np

    from repro.memsim.trace import ReferenceTrace

    trace = ReferenceTrace()
    state = 0x2545F4914F6CDD1D
    for i in range(n_records):
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        proc = (state >> 32) % n_procs
        is_write = (state >> 12) % 3 == 0
        base = (state >> 20) % n_cells
        burst = 1 + (state >> 8) % 6
        cells = np.arange(base, base + burst, dtype=np.int64) % n_cells
        trace.add(float(i), proc, is_write, cells)
    return trace


def _bench_replay(entry_id, scalar_replay, columnar_replay, quick, repeats) -> Dict[str, object]:
    """``scalar_replay(trace, n_procs, amap)`` vs ``columnar_replay(flat,
    n_procs, amap)`` over a line-size sweep of one synthetic trace."""
    from repro.memsim.addressing import AddressMap
    from repro.memsim.columnar import ColumnarTrace

    n_records = 2_000 if quick else 20_000
    n_procs = 16
    n_channels, n_grids = 40, 200
    trace = _synthetic_trace(n_records, n_procs, n_channels * n_grids)
    maps = [AddressMap(n_channels, n_grids, ls) for ls in (4, 8, 16, 32)]

    def scalar() -> list:
        with use_kernels("reference"):
            return [scalar_replay(trace, n_procs, amap) for amap in maps]

    def columnar() -> list:
        flat = ColumnarTrace.from_trace(trace)
        return [columnar_replay(flat, n_procs, amap) for amap in maps]

    times, outputs = interleaved_best(
        {"reference": scalar, "vectorized": columnar}, repeats
    )
    return entry(
        entry_id,
        "kernel",
        times["reference"],
        times["vectorized"],
        outputs["reference"] == outputs["vectorized"],
        f"{n_records} bursts x {len(maps)} line sizes, {n_procs} procs",
    )


def bench_coherence_sweep(quick: bool, repeats: int) -> Dict[str, object]:
    """Scalar MSI replay vs the columnar replay."""
    from repro.memsim.coherence import simulate_trace
    from repro.memsim.columnar import ColumnarTrace

    return _bench_replay(
        "coherence_sweep", simulate_trace, ColumnarTrace.replay, quick, repeats
    )


def bench_write_update_replay(quick: bool, repeats: int) -> Dict[str, object]:
    """Scalar ``WriteUpdate`` (the ``reference``-kernel path of
    ``simulate_trace_write_update``) vs the columnar write-update replay."""
    from repro.memsim.columnar import ColumnarTrace
    from repro.memsim.update_protocol import simulate_trace_write_update

    return _bench_replay(
        "write_update_replay",
        simulate_trace_write_update,
        ColumnarTrace.replay_write_update,
        quick,
        repeats,
    )


# ---------------------------------------------------------------------------
# Two-bend routing under commit churn (the router's real access pattern)


def bench_twobend_routing(quick: bool, repeats: int) -> Dict[str, object]:
    from repro.grid.cost_array import CostArray
    from repro.harness.experiments import quick_circuit
    from repro.route.twobend import route_wire

    circuit = quick_circuit("bnrE", True)
    iterations = 2 if quick else 4

    def churn() -> Tuple[bytes, int]:
        # Same loop shape as route.engine: rip-up + reroute with an
        # alternating tie break, committing every path to the cost array.
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        paths = {}
        total_cost = 0
        for iteration in range(iterations):
            for wire_idx in range(circuit.n_wires):
                if wire_idx in paths:
                    cost.remove_path(paths[wire_idx].flat_cells)
                result = route_wire(
                    cost, circuit.wire(wire_idx), tie_break=iteration % 2
                )
                total_cost += result.cost
                cost.apply_path(result.path.flat_cells)
                paths[wire_idx] = result.path
        return cost.data.tobytes(), total_cost

    times, outputs = compare_kernel_modes(churn, repeats)
    return entry(
        "twobend_routing",
        "kernel",
        times["reference"],
        times["vectorized"],
        outputs["reference"] == outputs["vectorized"],
        f"{circuit.n_wires} wires x {iterations} rip-up/reroute iterations",
    )


# ---------------------------------------------------------------------------
# Wave-front batched routing (the full engine loop, not per-wire calls)


def bench_wavefront_routing(quick: bool, repeats: int) -> Dict[str, object]:
    from repro.harness.experiments import quick_circuit
    from repro.route.engine import SequentialRouter

    # The engine is where the wave-front kernel actually engages: under
    # vectorized kernels SequentialRouter hands each iteration's wire list
    # to route_iteration_wavefront, which partitions it into independence
    # classes and routes each wave as one fused evaluation with grouped
    # rip-up/commit passes.  The reference mode runs the scalar per-wire
    # loop over the same wires in the same order.
    circuit = quick_circuit("bnrE", True)
    iterations = 2 if quick else 4

    def run() -> Tuple[object, ...]:
        res = SequentialRouter(circuit, iterations=iterations).run()
        return (
            res.cost.data.tobytes(),
            res.quality,
            res.work_cells,
            tuple(res.per_iteration_height),
            {w: p.flat_cells.tobytes() for w, p in res.paths.items()},
        )

    times, outputs = compare_kernel_modes(run, repeats)
    return entry(
        "wavefront_routing",
        "kernel",
        times["reference"],
        times["vectorized"],
        outputs["reference"] == outputs["vectorized"],
        f"SequentialRouter, {circuit.n_wires} wires x {iterations} iterations; "
        f"scalar loop vs wave-front batches",
    )


# ---------------------------------------------------------------------------
# Driver


def bench_live_sm(quick: bool, repeats: int) -> Dict[str, object]:
    """Live SM router wall clock, 1 vs N processes (kind="live").

    Host-dependent by nature (real cores, real scheduler), so
    :func:`check_against` reports it without gating on it.
    """
    try:  # script execution ("python benchmarks/bench_perf_suite.py")
        from bench_live_vs_sim import bench_live_sm_speedup
    except ImportError:  # package import (pytest collects benchmarks/)
        from .bench_live_vs_sim import bench_live_sm_speedup
    return bench_live_sm_speedup(quick, repeats)


def _s1_bench(name: str) -> Callable[[bool, int], Dict[str, object]]:
    """Late-bound S-series scaling entries (bench_s1_scaling.py)."""

    def run(quick: bool, repeats: int) -> Dict[str, object]:
        try:  # script execution ("python benchmarks/bench_perf_suite.py")
            from bench_s1_scaling import S1_BENCHES
        except ImportError:  # package import (pytest collects benchmarks/)
            from .bench_s1_scaling import S1_BENCHES
        return S1_BENCHES[name](quick, repeats)

    return run


BENCHES = {
    "t3_whole_run": lambda quick, repeats: bench_whole_run("T3", quick, repeats),
    "t6_whole_run": lambda quick, repeats: bench_whole_run("T6", quick, repeats),
    "coherence_sweep": bench_coherence_sweep,
    "write_update_replay": bench_write_update_replay,
    "twobend_routing": bench_twobend_routing,
    "wavefront_routing": bench_wavefront_routing,
    "live_sm_speedup": bench_live_sm,
    "s1_plan_waves_10k": _s1_bench("s1_plan_waves_10k"),
    "s1_route_scaling_10k": _s1_bench("s1_route_scaling_10k"),
}


def run_suite(quick: bool, repeats: int, only: Optional[List[str]] = None) -> Dict:
    entries = []
    for name, bench in BENCHES.items():
        if only and name not in only:
            continue
        print(f"[bench] {name} ...", flush=True)
        e = bench(quick, repeats)
        print(
            f"[bench] {name}: reference {e['reference_s'] * 1e3:.1f}ms, "
            f"vectorized {e['vectorized_s'] * 1e3:.1f}ms, "
            f"speedup {e['speedup']}x, bit_identical={e['bit_identical']}",
            flush=True,
        )
        entries.append(e)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "entries": entries,
        "seed_baseline": SEED_BASELINE,
    }


def results_table(results: Dict) -> str:
    """The results as the Markdown table ``docs/PERFORMANCE.md`` carries.

    ``tests/test_docs_performance.py`` holds the committed document to
    this rendering of the committed JSON, so the two cannot drift.
    """
    lines = [
        "| entry | kind | reference | vectorized | speedup |",
        "|---|---|---|---|---|",
    ]
    for e in results["entries"]:
        lines.append(
            f"| `{e['id']}` | {e['kind']} | {e['reference_s'] * 1e3:.1f} ms "
            f"| {e['vectorized_s'] * 1e3:.1f} ms | {e['speedup']:.2f}× |"
        )
    return "\n".join(lines)


def check_against(fresh: Dict, baseline_path: Path) -> int:
    """Ratio gate: fail if any entry lost >25% of its committed speedup."""
    committed = json.loads(baseline_path.read_text())
    committed_by_id = {e["id"]: e for e in committed.get("entries", [])}
    failures = []
    for e in fresh["entries"]:
        if not e["bit_identical"]:
            failures.append(f"{e['id']}: outputs diverged between kernel modes")
            continue
        if e.get("kind") == "live":
            # Real-parallelism wall clock depends on the host's core count
            # and scheduler; report it, never gate on it.  (Replay
            # integrity rode in through bit_identical above.)
            print(
                f"[bench] {e['id']}: live speedup {e['speedup']}x "
                f"(informational, not gated)",
                flush=True,
            )
            continue
        base = committed_by_id.get(e["id"])
        if base is None:
            continue
        if base["speedup"] < GATE_MIN_SPEEDUP:
            # Near parity: exempt from the speedup-ratio check, but the
            # vectorized kernel must not be outright slower than the
            # scalar reference it is supposed to replace.
            limit = PARITY_SLOWDOWN * e["reference_s"]
            if e["vectorized_s"] > limit:
                failures.append(
                    f"{e['id']}: vectorized {e['vectorized_s'] * 1e3:.1f}ms "
                    f"exceeds {PARITY_SLOWDOWN} x reference "
                    f"{e['reference_s'] * 1e3:.1f}ms (near-parity absolute gate)"
                )
            else:
                print(
                    f"[bench] {e['id']}: committed speedup {base['speedup']}x "
                    f"is near parity; ratio check skipped, absolute gate "
                    f"(<= {PARITY_SLOWDOWN}x reference) passed",
                    flush=True,
                )
            continue
        floor = CHECK_RATIO * base["speedup"]
        if e["speedup"] < floor:
            failures.append(
                f"{e['id']}: speedup {e['speedup']}x fell below "
                f"{floor:.2f}x ({CHECK_RATIO} x committed {base['speedup']}x)"
            )
    if failures:
        print("[bench] PERF REGRESSION:", flush=True)
        for f in failures:
            print(f"  - {f}", flush=True)
        return 1
    print(
        f"[bench] OK: all {len(fresh['entries'])} entries bit-identical and "
        f"within {CHECK_RATIO} of committed speedups",
        flush=True,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workloads (CI)")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats after warm-up (best-of)"
    )
    parser.add_argument(
        "--only", nargs="*", choices=sorted(BENCHES), help="subset of benchmarks"
    )
    parser.add_argument("--out", type=Path, help="write fresh results JSON here")
    parser.add_argument(
        "--check",
        type=Path,
        metavar="BASELINE",
        help="compare against a committed results file; exit 1 on regression",
    )
    parser.add_argument(
        "--table",
        type=Path,
        metavar="RESULTS",
        help="print a results file as the docs/PERFORMANCE.md table and exit",
    )
    args = parser.parse_args(argv)
    if args.table:
        print(results_table(json.loads(args.table.read_text())))
        return 0

    fresh = run_suite(args.quick, args.repeats, args.only)
    if args.out:
        args.out.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"[bench] wrote {args.out}", flush=True)
    if args.check:
        return check_against(fresh, args.check)
    bad = [e["id"] for e in fresh["entries"] if not e["bit_identical"]]
    if bad:
        print(f"[bench] outputs diverged: {', '.join(bad)}", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
