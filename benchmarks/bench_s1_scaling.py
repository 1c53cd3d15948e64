#!/usr/bin/env python
"""S-series scaling benchmarks: the router at 10k-100k wires.

The paper's circuits are ~500 wires; this family measures the scaling
work that makes big inputs practical (see docs/PERFORMANCE.md):

``s1_plan_waves_10k``
    The grid-paint wave planner (``route.wavefront.plan_waves``) against
    the O(n^2) layering recurrence it replaced
    (``plan_waves_reference``), on a 10k-wire ``generate_scaled``
    circuit.  Bit-identity is the oracle check: both must produce the
    same wave decomposition.

``s1_route_scaling_10k``
    End-to-end ``SequentialRouter`` superlinearity gate.  ``reference_s``
    is the 1k-wire wall time extrapolated linearly to 10k wires;
    ``vectorized_s`` is the measured 10k wall time.  The resulting
    "speedup" sits near parity by construction, so the perf suite's
    near-parity absolute gate fires exactly when 10k routing drifts more
    than ``PARITY_SLOWDOWN`` above linear scaling — a superlinear
    regression.  Peak RSS per point rides along in ``extra``.

Usage::

    PYTHONPATH=src python benchmarks/bench_s1_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_s1_scaling.py --full-sweep
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Wire counts of the committed scaling points (quick and full) and of
#: the ``--full-sweep`` report.
S1_POINTS_QUICK = (1_000, 10_000)
S1_SWEEP_POINTS = (1_000, 10_000, 100_000)


def _entry(*args, **kwargs) -> Dict[str, object]:
    try:  # script execution ("python benchmarks/bench_s1_scaling.py")
        from bench_perf_suite import entry
    except ImportError:  # package import (pytest collects benchmarks/)
        from .bench_perf_suite import entry
    return entry(*args, **kwargs)


def _interleaved_best(fns, repeats):
    try:
        from bench_perf_suite import interleaved_best
    except ImportError:
        from .bench_perf_suite import interleaved_best
    return interleaved_best(fns, repeats)


def bench_s1_plan_waves(quick: bool, repeats: int) -> Dict[str, object]:
    """Grid-paint planner vs the quadratic recurrence, 10k wires."""
    import numpy as np

    from repro.circuits import generate_scaled
    from repro.route.wavefront import circuit_geometry, plan_waves, plan_waves_reference

    n_wires = 10_000  # the acceptance point; quick only trims repeats
    circuit = generate_scaled(n_wires)
    boxes = circuit_geometry(circuit).bbox  # the planners' input: one row per wire
    order = np.arange(n_wires)

    times, outputs = _interleaved_best(
        {
            "reference": lambda: plan_waves_reference(order, boxes),
            "vectorized": lambda: plan_waves(order, boxes),
        },
        max(repeats, 3 if quick else 5),
    )
    return _entry(
        "s1_plan_waves_10k",
        "kernel",
        times["reference"],
        times["vectorized"],
        bool(np.array_equal(outputs["reference"], outputs["vectorized"])),
        f"wave decomposition of {n_wires} wires (generate_scaled, Rent 0.6); "
        f"grid-paint skyline vs O(n^2) recurrence, identical waves required",
    )


def _route_point(n_wires: int, repeats: int) -> Dict[str, object]:
    """Best-of wall time and peak RSS for one wire-count point."""
    from repro.circuits import generate_scaled
    from repro.obs import memory_snapshot
    from repro.route import SequentialRouter

    circuit = generate_scaled(n_wires)
    best = float("inf")
    heights = set()
    for rep in range(repeats + 1):
        t0 = time.perf_counter()
        result = SequentialRouter(circuit, iterations=1).run()
        elapsed = time.perf_counter() - t0
        if rep > 0:  # round 0 warms caches, untimed
            best = min(best, elapsed)
        heights.add(result.quality.circuit_height)
    return {
        "n_wires": n_wires,
        "wall_s": round(best, 6),
        "peak_rss_bytes": memory_snapshot()["peak_rss_bytes"],
        "deterministic": len(heights) == 1,
        "height": heights.pop(),
    }


#: Budgeted superlinearity of the 1k->10k route point: the measured wall
#: ratio is 0.85-1.0x linear (a wave's table work is bounded by what the
#: wave reads, so nothing scales as waves x grid), so the extrapolated
#: "reference" time carries this allowance and the perf suite's
#: near-parity absolute gate (PARITY_SLOWDOWN, 1.25x) fires when 10k
#: routing drifts beyond 1.5x over linear.  The allowance must keep the
#: committed "speedup" under the suite's GATE_MIN_SPEEDUP (1.5), or the
#: entry would silently switch to the ratio gate.
S1_SUPERLINEAR_ALLOWANCE = 1.2


def bench_s1_route_scaling(quick: bool, repeats: int) -> Dict[str, object]:
    """Superlinearity gate: 10k route vs budgeted extrapolation from 1k."""
    reps = max(1, repeats if quick else repeats + 2)
    points = [_route_point(n, reps) for n in S1_POINTS_QUICK]
    t_1k = points[0]["wall_s"]
    t_10k = points[1]["wall_s"]
    result = _entry(
        "s1_route_scaling_10k",
        "scaling",
        t_1k * 10.0 * S1_SUPERLINEAR_ALLOWANCE,  # budgeted linear prediction
        t_10k,  # measured
        all(p["deterministic"] for p in points),
        f"SequentialRouter wall at 10k wires vs {S1_SUPERLINEAR_ALLOWANCE} x "
        f"10 x the 1k wall; the near-parity absolute gate fails a "
        f"superlinear drift.  bit_identical = per-point determinism "
        f"across repeats",
    )
    result["extra"] = {"points": points}
    return result


S1_BENCHES = {
    "s1_plan_waves_10k": bench_s1_plan_waves,
    "s1_route_scaling_10k": bench_s1_route_scaling,
}


def full_sweep(repeats: int) -> List[Dict[str, object]]:
    """Wall time and peak RSS at every S-series point (docs table)."""
    return [_route_point(n, repeats) for n in S1_SWEEP_POINTS]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workloads (CI)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--full-sweep",
        action="store_true",
        help="route-time/RSS table at 1k/10k/100k wires instead of the entries",
    )
    args = parser.parse_args(argv)
    if args.full_sweep:
        print(json.dumps(full_sweep(args.repeats), indent=2))
        return 0
    entries = []
    for name, bench in S1_BENCHES.items():
        print(f"[bench] {name} ...", flush=True)
        e = bench(args.quick, args.repeats)
        print(
            f"[bench] {name}: reference {e['reference_s'] * 1e3:.1f}ms, "
            f"vectorized {e['vectorized_s'] * 1e3:.1f}ms, "
            f"speedup {e['speedup']}x, bit_identical={e['bit_identical']}",
            flush=True,
        )
        entries.append(e)
    print(json.dumps(entries, indent=2))
    return 0 if all(e["bit_identical"] for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
