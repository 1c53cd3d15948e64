#!/usr/bin/env python
"""Live (real-core) routers vs the event-driven simulators.

Times the live shared-memory router at 1 and N worker processes (wall
clock of the routing phase, process setup excluded), the live
message-passing router, and the two simulators on the same circuit, then
prints the side-by-side comparison the X7 experiment tabulates.

Also exports :func:`bench_live_sm_speedup`, the ``live_sm_speedup`` entry
of the main perf suite (``bench_perf_suite.py``): ``reference_s`` is the
1-process live wall, ``vectorized_s`` the N-process wall, ``speedup``
their ratio, and ``bit_identical`` the commit-log replay verdict of every
run.  The entry's ``kind`` is ``"live"`` — real-parallelism wall clock
depends on the host's core count, so the suite's regression gate reports
it without gating on it.

Usage::

    PYTHONPATH=src python benchmarks/bench_live_vs_sim.py --quick
    PYTHONPATH=src python benchmarks/bench_live_vs_sim.py --procs 8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _default_procs() -> int:
    return max(2, min(4, os.cpu_count() or 1))


def _replayed(live) -> bool:
    """The commit-log replay verdict of a live run."""
    return live.meta["verification"]["ok"]


def bench_live_sm_speedup(quick: bool, repeats: int) -> Dict[str, object]:
    """The perf-suite entry: live SM wall at 1 process vs N processes."""
    from repro.harness.experiments import quick_circuit
    from repro.parallel.live import run_live_shared_memory

    circuit = quick_circuit("bnrE", quick)
    iterations = 2 if quick else 3
    n_procs = _default_procs()
    solo_s = parallel_s = float("inf")
    replay_ok = True
    for rep in range(repeats + 1):  # round 0 is the untimed warm-up
        solo = run_live_shared_memory(circuit, n_procs=1, iterations=iterations)
        many = run_live_shared_memory(
            circuit, n_procs=n_procs, iterations=iterations
        )
        replay_ok = replay_ok and _replayed(solo) and _replayed(many)
        if rep:
            solo_s = min(solo_s, solo.exec_time_s)
            parallel_s = min(parallel_s, many.exec_time_s)
    return {
        "id": "live_sm_speedup",
        "kind": "live",
        "reference_s": round(solo_s, 6),
        "vectorized_s": round(parallel_s, 6),
        "speedup": round(solo_s / parallel_s, 3) if parallel_s else 0.0,
        "bit_identical": replay_ok,
        "note": f"live SM router wall, 1 vs {n_procs} worker processes on "
        f"{os.cpu_count()} cores (informational: host-dependent)",
    }


def run_comparison(
    quick: bool, n_procs: int, iterations: int
) -> List[Dict[str, object]]:
    """One row per implementation: quality, time, clock kind, messages."""
    from repro.harness.experiments import quick_circuit
    from repro.parallel import run_message_passing, run_shared_memory
    from repro.parallel.live import run_live_message_passing, run_live_shared_memory
    from repro.updates import UpdateSchedule

    circuit = quick_circuit("bnrE", quick)
    schedule = UpdateSchedule.sender_initiated(1, 1)

    rows: List[Dict[str, object]] = []

    def add(impl, procs, quality, time_s, clock, messages=None, replay=None):
        rows.append(
            {
                "implementation": impl,
                "procs": procs,
                "ckt_height": quality.circuit_height,
                "occupancy": quality.occupancy_factor,
                "time_s": round(time_s, 4),
                "clock": clock,
                "messages": messages,
                "replay_ok": replay,
            }
        )

    sm_sim = run_shared_memory(
        circuit, n_procs=n_procs, iterations=iterations, collect_trace=False
    )
    add("sm simulated", n_procs, sm_sim.quality, sm_sim.exec_time_s, "virtual")
    for procs in (1, n_procs):
        live = run_live_shared_memory(
            circuit, n_procs=procs, iterations=iterations
        )
        add(
            "sm live", procs, live.quality, live.exec_time_s, "wall",
            replay=_replayed(live),
        )

    mp_sim = run_message_passing(
        circuit, schedule, n_procs=n_procs, iterations=iterations
    )
    add(
        "mp simulated", n_procs, mp_sim.quality, mp_sim.exec_time_s, "virtual",
        messages=mp_sim.network.n_messages,
    )
    live_mp = run_live_message_passing(
        circuit, schedule, n_procs=n_procs, iterations=iterations
    )
    add(
        "mp live", n_procs, live_mp.quality, live_mp.exec_time_s, "wall",
        messages=live_mp.meta["traffic"]["messages_sent"],
        replay=_replayed(live_mp),
    )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small circuit (CI)")
    parser.add_argument(
        "--procs", type=int, default=_default_procs(), help="parallel process count"
    )
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats for the speedup entry"
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    args = parser.parse_args(argv)
    iterations = args.iterations or (2 if args.quick else 3)

    rows = run_comparison(args.quick, args.procs, iterations)
    speedup_entry = bench_live_sm_speedup(args.quick, args.repeats)
    if args.json:
        print(json.dumps({"rows": rows, "live_sm_speedup": speedup_entry}, indent=1))
    else:
        for row in rows:
            msgs = "" if row["messages"] is None else f"  messages={row['messages']}"
            replay = "" if row["replay_ok"] is None else f"  replay_ok={row['replay_ok']}"
            print(
                f"{row['implementation']:>14} procs={row['procs']:<2} "
                f"height={row['ckt_height']:<4} occupancy={row['occupancy']:<7} "
                f"{row['time_s']:.4f}s ({row['clock']}){msgs}{replay}"
            )
        print(
            f"live SM speedup: {speedup_entry['speedup']}x "
            f"({speedup_entry['note']})"
        )
    ok = all(r["replay_ok"] in (None, True) for r in rows) and speedup_entry[
        "bit_identical"
    ]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
