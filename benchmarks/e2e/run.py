"""The repository's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --trace 1            # the per-layer run
    python3 benchmarks/e2e/run.py --workload mp_sweep --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --smoke              # all checks, reduced size
    python3 benchmarks/e2e/run.py --render             # README results table

Workloads run one after another, each in a fresh subprocess
(``worker.py``), under the default ``vectorized`` kernels.  Every metric
is printed as ``workload metric value unit``; the last line of standard
output is one JSON object with the metrics ``BENCHMARK.json`` declares
for the chosen mode.  ``--out FILE`` appends the full record of this run
to the set of runs in FILE, which is what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import measure
from measure import HERE, RECORD_SCHEMA, REPO_ROOT

DEFAULT_SEED = 19890816
#: Set-ups per run: ``setup_s`` is their median (the measuring worker's
#: own set-up is one of them).
SETUPS = 5
WORKER_TIMEOUT_S = 170.0


def worker(args: List[str]) -> Dict[str, object]:
    """Run ``worker.py`` to completion; its last stdout line is its report."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--spawned-at", repr(time.time())]
    proc = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode or 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, spans: Optional[str]) -> Dict[str, object]:
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        base.append("--smoke")
    # setup_s is an end-to-end metric: the traced run does not repeat set-up.
    extra = 0 if smoke or trace else SETUPS - 1
    setups = [worker(base + ["--setup-only"])["setup_s"] for _ in range(extra)]
    report = worker(base + (["--spans", spans] if spans else []))
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    if not trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return report


def print_metrics(report: Dict[str, object], label: str) -> None:
    for name, metric in report["metrics"].items():
        note = f"  n={report['job_samples']}" if name.startswith("job_p") else ""
        print(f"{report['workload']} {name} {metric['value']:.6g} {metric['unit']}{label}{note}")
    print(f"{report['workload']} sim_digest {report['sim_digest']}")
    for problem in report["problems"]:
        print(f"{report['workload']} PROBLEM {problem}")


def result_line(reports: List[Dict[str, object]], spec: Dict[str, object], trace: int) -> Dict[str, object]:
    """The driver's contract: exactly the declared metrics of the mode."""
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if len(reports) == 1:
        metrics = {name: reports[0]["metrics"][name] for name in declared}
    else:
        metrics = {
            f"{r['workload']}.{name}": r["metrics"][name] for r in reports for name in declared
        }
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def append_run(path: str, run: Dict[str, object]) -> None:
    """Add *run* to the set of runs in *path* (created when missing)."""
    runs = measure.load_runs(path) if os.path.exists(path) else []
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": RECORD_SCHEMA, "runs": runs + [run]}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None, help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="one pass, reduced size, all checks; never a result of record")
    parser.add_argument("--out", default=None, help="append this run to the set of runs in FILE (JSON)")
    parser.add_argument("--spans", default=None, help="with --trace 1 and one workload: write raw spans here")
    parser.add_argument("--render", action="store_true", help="rewrite the README's results table from runs/")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        sys.stderr.write("error: no program to measure: src/repro is missing\n")
        return 2
    spec = measure.load_spec()
    if args.render:
        import render

        return render.main()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} (have: {', '.join(names)})")
        names = [args.workload]
    if args.spans and (len(names) != 1 or not args.trace):
        parser.error("--spans needs --trace 1 and one --workload")
    if args.smoke and args.out:
        parser.error("--smoke results are never written to a run record")
    seconds = 0.0 if args.smoke else (spec["run_seconds"] if args.seconds is None else args.seconds)

    started = time.time()
    reports = []
    for name in names:
        report = run_workload(name, args.seed, seconds, args.trace, args.smoke, args.spans)
        print_metrics(report, "  smoke" if args.smoke else "")
        reports.append(report)
    if args.out:
        append_run(
            args.out,
            {
                "started_unix": started,
                "seconds": seconds,
                "trace": args.trace,
                "host": reports[0]["host"],
                "workloads": {r["workload"]: {k: v for k, v in r.items() if k != "host"} for r in reports},
            },
        )
    print(json.dumps(result_line(reports, spec, args.trace)))
    # A failed check is reported in the result line; only the smoke run,
    # which exists to gate CI, also turns it into the exit status.
    return 1 if args.smoke and any(r["failed"] for r in reports) else 0


if __name__ == "__main__":
    raise SystemExit(main())
