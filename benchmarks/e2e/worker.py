"""Run one workload in this process and print its report as one JSON line.

``run.py`` starts this file in a fresh subprocess per workload, so that
``setup_s`` (spawn -> inputs ready) and ``peak_rss_mb`` belong to one
workload only.  Phases: set-up, one untimed warm-up pass with every
check on, then the timed window (see README.md, "How one run measures").
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import measure
from measure import HERE, REPO_ROOT

#: Scratch for the service's databases and caches: inside the checkout.
WORK_DIR = os.path.join(HERE, ".work")


def _pin_to_one_core() -> None:
    """Keep this process and its threads on one core.

    One driver process and a ``jobs=1`` daemon have no use for a second
    core, and the daemon's GIL-bound threads migrating between two
    throttled virtual cores were measured 30% slower and noisier than on
    one (service_mix pass: 2.65 s free, 2.04 s pinned).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    """Put ``src/`` on the path; exit 2 when the program is not there."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"error: no program to measure: {src}/repro is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, src)


class Sample:
    """One execution of one slot."""

    __slots__ = ("start", "end", "outcome", "counts", "trace", "factor")

    def __init__(self, start, end, outcome, counts, trace) -> None:
        self.start, self.end = start, end
        self.outcome, self.counts, self.trace = outcome, counts, trace
        #: Host-speed scale (measure.SpeedSampler.factor), set once the
        #: window is over and the samples on both sides of a short slot exist.
        self.factor = 1.0

    @property
    def raw_wall(self) -> float:
        return self.end - self.start

    @property
    def wall(self) -> float:
        return (self.end - self.start) * self.factor


class Runner:
    """Executes passes of one workload and keeps the operation counts."""

    def __init__(self, workloads, workload, tracer) -> None:
        self.workloads, self.workload, self.tracer = workloads, workload, tracer
        self.attempted = self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def run_slot(self, slot, check: bool, traced: bool) -> Sample:
        before = self.workloads.obs_counters()
        start = time.perf_counter()
        try:
            outcome = slot.run(check)
        except Exception:  # a failed operation is counted, not fatal
            outcome = self.workloads.Outcome(
                stats=None, wires=0, problems=[f"{slot.name}: {traceback.format_exc()}"]
            )
        end = time.perf_counter()
        counts = dict(outcome.counts)
        for name, value in self.workloads.obs_delta(before).items():
            counts[name] = counts.get(name, 0) + value
        self.attempted += 1
        self.failed += bool(outcome.problems)
        self.problems.extend(outcome.problems)
        if traced:
            self.tracer.run_id = self.attempted
        return Sample(start, end, outcome, counts, self.tracer.collect() if traced else None)

    def one_pass(self, check: bool, traced: bool, deadline: Optional[float]) -> List[Sample]:
        """Every slot once, in order; stops early once *deadline* has passed."""
        if traced:
            self.tracer.install()
        samples: List[Sample] = []
        try:
            self.workload.begin_pass()
            for slot in self.workload.slots:
                samples.append(self.run_slot(slot, check, traced))
                if deadline is not None and time.perf_counter() >= deadline:
                    break
        finally:
            self.workload.end_pass()
            if traced:
                self.tracer.uninstall()
        return samples

    def window(self, seconds: float, modes: List[bool]) -> List[Tuple[bool, List[Sample]]]:
        """Timed passes, cycling through *modes* (traced or not).

        Runs until *seconds* have passed **and** every mode has one
        complete pass; the last pass may stop at a slot boundary.
        """
        n_slots = len(self.workload.slots)
        passes: List[Tuple[bool, List[Sample]]] = []
        complete = {mode: False for mode in modes}
        deadline = time.perf_counter() + seconds
        while not (all(complete.values()) and time.perf_counter() >= deadline):
            traced = modes[len(passes) % len(modes)]
            stop_at = deadline if all(complete.values()) else None
            samples = self.one_pass(check=False, traced=traced, deadline=stop_at)
            passes.append((traced, samples))
            complete[traced] = complete[traced] or len(samples) == n_slots
        return passes


def measure_workload(args, sampler) -> Dict[str, object]:
    _import_program()
    import workloads
    from trace import Tracer

    os.makedirs(WORK_DIR, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.smoke, WORK_DIR)
    raw_setup_s = time.time() - args.spawned_at
    # Scaled to the reference host's speed like every other time, by the
    # samples taken since this process armed the timer.
    setup_s = raw_setup_s * sampler.factor(sampler.started, time.perf_counter())
    if args.setup_only:
        workload.close()
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}

    tracer = Tracer(keep_spans=bool(args.spans)) if args.trace else None
    runner = Runner(workloads, workload, tracer)
    try:
        reference = [s.outcome.stats for s in runner.one_pass(check=True, traced=False, deadline=None)]
        window_start = time.perf_counter()
        passes = runner.window(args.seconds, [True, False] if args.trace else [False])
        window_s = time.perf_counter() - window_start
    finally:
        workload.close()

    n_slots = len(workload.slots)
    names = [slot.name for slot in workload.slots]
    first_full = next(samples for _mode, samples in passes if len(samples) == n_slots)
    for _mode, samples in passes:
        for i, sample in enumerate(samples):
            sample.factor = sampler.factor(sample.start, sample.end)
            if sample.outcome.stats != reference[i] and not sample.outcome.problems:
                runner.fail(f"{names[i]}: simulated statistics differ from the warm-up pass")
            if sample.counts != first_full[i].counts:
                runner.fail(f"{names[i]}: exact counts differ between passes")

    def per_slot(traced: bool, value: Callable[[Sample], float]) -> List[List[float]]:
        """value(sample) of every sample of one mode, grouped by slot."""
        columns: List[List[float]] = [[] for _ in range(n_slots)]
        for mode, samples in passes:
            if mode == traced:
                for i, sample in enumerate(samples):
                    columns[i].append(value(sample))
        return columns

    counts: Dict[str, float] = {}
    for sample in first_full:
        for name, value in sample.counts.items():
            counts[name] = counts.get(name, 0) + value
    wall_s = measure.pass_estimate(per_slot(False, lambda s: s.wall))
    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "sim_digest": measure.digest(reference),
        "slots": n_slots,
        "passes": sum(len(samples) == n_slots for _mode, samples in passes),
        "window_s": window_s,
        "speed_sample_mean_s": statistics.fmean(sampler.values),
        "speed_samples": len(sampler.values),
        "counts": counts,
        "host": measure.host_fingerprint(args.seed),
    }
    if args.trace:
        report.update(_per_layer(per_slot, first_full, passes, counts, wall_s))
        if args.spans:
            tracer.dump(args.spans)
    else:
        report.update(_end_to_end(per_slot, first_full, passes, names, wall_s))
        report["metrics"]["failed_frac"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
    report.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20])
    return report


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _end_to_end(per_slot, first_full, passes, names, wall_s) -> Dict[str, object]:
    """The untraced run's metrics.

    Latency of "a job" is one slot's.  The p50 is the median over slots of
    the slot's median, so that a window that ends mid-pass does not weight
    the early slots; the p95 needs the pooled samples, and 200 of them.
    """
    slot_ms = [statistics.median(column) * 1e3 for column in per_slot(False, lambda s: s.wall)]
    pooled_ms = [s.wall * 1e3 for _mode, samples in passes for s in samples]
    wires = sum(s.outcome.wires for s in first_full)
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "raw_wall_s": _metric(measure.pass_estimate(per_slot(False, lambda s: s.raw_wall)), "s"),
        "wires_per_s": _metric(wires / wall_s, "1/s"),
        "jobs_per_s": _metric(len(slot_ms) / wall_s, "1/s"),
        "job_p50_ms": _metric(statistics.median(slot_ms), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if len(pooled_ms) >= 200:
        metrics["job_p95_ms"] = _metric(measure.percentile(pooled_ms, 95), "ms")
    for klass in ("new", "repeat", "force"):
        of_klass = [ms for ms, s in zip(slot_ms, first_full) if s.outcome.klass == klass]
        if of_klass:
            metrics[f"job_{klass}_p50_ms"] = _metric(statistics.median(of_klass), "ms")
    out: Dict[str, object] = {"metrics": metrics, "job_samples": len(pooled_ms)}
    if len(names) <= 20:
        out["slot_ms"] = dict(zip(names, slot_ms))
    return out


def _per_layer(per_slot, first_full, passes, counts, wall_s) -> Dict[str, object]:
    """The traced run's metrics: bucket self times, counts, tracing cost."""
    from trace import layer_calls, layer_metrics

    n_slots = len(first_full)
    buckets = sorted({b for mode, ss in passes if mode for s in ss for b in s.trace.self_s})
    self_s = {
        bucket: measure.pass_estimate(
            per_slot(True, lambda s, b=bucket: s.trace.self_s.get(b, 0.0) * s.factor)
        )
        for bucket in buckets
    }
    traced_full = next(ss for mode, ss in passes if mode and len(ss) == n_slots)
    calls: Dict[str, int] = {}
    work: Dict[str, int] = {}
    for sample in traced_full:
        for name, n in sample.trace.calls.items():
            calls[name] = calls.get(name, 0) + n
        for name, n in sample.trace.work.items():
            work[name] = work.get(name, 0) + n
    traced_wall = measure.pass_estimate(per_slot(True, lambda s: s.wall))
    root_s = measure.pass_estimate(per_slot(True, lambda s: s.trace.root_s * s.factor))
    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in layer_metrics(self_s, counts, calls, work).items()
    }
    metrics["trace.spans"] = _metric(sum(s.trace.spans for s in traced_full), "count")
    metrics["trace.residual_frac"] = _metric(1.0 - root_s / traced_wall, "ratio")
    metrics["trace.overhead_frac"] = _metric(traced_wall / wall_s - 1.0, "ratio")
    return {
        "metrics": metrics,
        "layer_calls": layer_calls(calls),
        "self_s": self_s,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": wall_s,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None, help="epoch seconds at spawn")
    parser.add_argument("--spans", default=None, help="write the raw spans here at exit")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    _pin_to_one_core()
    sampler = measure.SpeedSampler()
    sampler.start()
    try:
        report = measure_workload(args, sampler)
    finally:
        sampler.stop()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
