"""Compare two sets of untraced runs: ``compare.py A.json B.json``.

A set is the file ``run.py --out`` writes: every invocation with the same
``--out`` appends one run (one seed, every workload) to it.  For every
workload and end-to-end metric this prints both medians, the ratio B/A
and a verdict against the metric's bound:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of either set is wider than the
                bound, so the medians decide nothing — unless every run
                of B reads better than every run of A, which is ``ok``

For every seed both sets ran it also prints whether each workload's
``sim_digest`` and exact counts are identical.  Exit status 1 on any
``worse`` or any increase of ``failed_frac``.
"""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List, Optional, Tuple

import measure

#: Metrics only ``service_mix`` produces, so ``BENCHMARK.json`` (whose
#: end-to-end metrics every workload must report) cannot carry them.
EXTRA_METRICS = {
    "job_p95_ms": ("lower", 0.25),
    "job_new_p50_ms": ("lower", 0.25),
    "job_repeat_p50_ms": ("lower", 0.25),
    "job_force_p50_ms": ("lower", 0.25),
}


def load_set(path: str) -> List[dict]:
    runs = [run for run in measure.load_runs(path) if not run["trace"]]
    if not runs:
        raise SystemExit(f"error: {path} holds no untraced run")
    return runs


def metric_rules() -> Dict[str, Tuple[str, float]]:
    rules = {m["name"]: (m["better"], m["bound"]) for m in measure.load_spec()["end_to_end"]}
    rules.update(EXTRA_METRICS)
    return rules


def values(runs: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            out.append(entry["value"])
    return out


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, Optional[float]]:
    """(verdict, widest spread of the two sets; None with one run each)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
    spreads = [measure.spread(v) for v in (a, b) if len(v) >= 2]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if all_better else "unresolved"), widest
    return ("worse" if worse_by > bound else "ok"), widest


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    rules = metric_rules()
    workloads = [
        w["name"]
        for w in measure.load_spec()["workloads"]
        if w["name"] in set_a[0]["workloads"] and w["name"] in set_b[0]["workloads"]
    ]
    bad = 0
    print(f"A = {argv[0]} ({len(set_a)} runs)   B = {argv[1]} ({len(set_b)} runs)")
    print(f"{'workload':<13}{'metric':<19}{'median A':>12}{'median B':>12}{'B/A':>8}{'spread':>8}{'bound':>7}  verdict")
    for workload in workloads:
        for metric, (better, bound) in rules.items():
            a, b = values(set_a, workload, metric), values(set_b, workload, metric)
            if not a or not b:
                continue
            what, widest = verdict(a, b, better, bound)
            bad += what == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_text = "n=1" if widest is None else f"{widest:.3f}"
            print(
                f"{workload:<13}{metric:<19}{med_a:>12.5g}{med_b:>12.5g}"
                f"{med_b / med_a:>8.3f}{spread_text:>8}{bound:>7.2f}  {what}"
            )
        fa, fb = values(set_a, workload, "failed_frac"), values(set_b, workload, "failed_frac")
        if fa and fb:
            grew = max(fb) > max(fa)
            bad += grew
            print(
                f"{workload:<13}{'failed_frac':<19}{max(fa):>12.5g}{max(fb):>12.5g}"
                f"{'':>8}{'':>8}{0:>7.2f}  {'worse' if grew else 'ok'}"
            )
    by_seed_b = {run["host"]["seed"]: run for run in set_b}
    for run_a in set_a:
        run_b = by_seed_b.get(run_a["host"]["seed"])
        if run_b is None:
            continue
        for workload in workloads:
            wa, wb = run_a["workloads"][workload], run_b["workloads"][workload]
            digest = "identical" if wa["sim_digest"] == wb["sim_digest"] else "DIFFERENT"
            counts = "identical" if wa["counts"] == wb["counts"] else "DIFFERENT"
            print(f"seed {run_a['host']['seed']} {workload}: sim_digest {digest}, exact counts {counts}")
    print("RESULT", "worse" if bad else "no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
