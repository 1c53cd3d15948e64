"""Measurement helpers shared by the runner, the comparer and the self-check.

Importing this file does not import the program under test (only
:func:`host_fingerprint` asks it for its kernel mode): percentiles and
spreads, the robust per-pass estimator, the host-speed sampler, the
``sim_digest`` hash and the host fingerprint.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
#: Format of the file ``run.py --out`` appends runs to.
RECORD_SCHEMA = "locusroute-e2e/1"


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: command, workloads, metrics and bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def load_runs(path: str) -> List[dict]:
    """The runs of one ``run.py --out`` set."""
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema") != RECORD_SCHEMA:
        raise SystemExit(f"error: {path} is not a {RECORD_SCHEMA} record")
    return record["runs"]


#: A p95 needs ten samples beyond it before it is a percentile and not a
#: maximum (choosing-metrics section 1): 10 / (1 - 0.95) = 200.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0 < q < 100), linear interpolation.

    Refuses a percentile that does not have :data:`MIN_SAMPLES_BEYOND`
    samples on its far side, so ``percentile(x, 95)`` needs 200 samples.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(samples)
    beyond = n * min(q, 100.0 - q) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has only {beyond:.1f} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def pass_estimate(per_slot: Sequence[Sequence[float]]) -> float:
    """One pass's total: the sum over slots of each slot's median sample.

    A pass is a fixed sequence of slots and the timed window repeats it.
    A burst of host noise inflates a few neighbouring slots of *one*
    pass; taking each slot's median over the passes before summing drops
    those samples, where the median of whole-pass totals would keep them
    whenever every pass caught a burst somewhere.
    """
    return sum(statistics.median(samples) for samples in per_slot)


# ----------------------------------------------------------------------
# host-speed sampling
# ----------------------------------------------------------------------
#: What the sampler's kernel takes on this repository's reference host at
#: full speed (the floor of 80 000 samples; it moves by 3% between
#: processes).
SPEED_REF_S = 0.000069
#: How much of the kernel's slow-down a slot shares.  A tight bytecode loop
#: loses more to a busy neighbour than the simulators do: regressing slot
#: time on in-slot kernel time gave 0.54 (scaled routing), 0.55 (shared
#: memory) and 1.27 (message passing) within one process, and over ten
#: runs per workload the spread between runs was least between 0.25 and
#: 1.0 depending on the hour.  At 0.5 no workload's spread exceeded 8.4%
#: in any set, where the raw seconds reached 12% and full correction 10%.
SENSITIVITY = 0.5


class SpeedSampler:
    """Times a short fixed kernel every 1.5 ms, from inside the measured process.

    The sandbox's cores run at anything between full and about half speed,
    in phases that last from a few milliseconds to minutes (no steal time
    is reported for it, and CPU time inflates exactly like wall time):
    the medians of consecutive six-second windows of one unchanged
    simulator run were measured 7-14% apart (inter-quartile), whole runs
    up to 28%.  An interval timer therefore interrupts the main thread
    every :data:`INTERVAL_S` and times a bytecode kernel of about 0.08 ms.
    A duration is divided by ``1 + SENSITIVITY * (mean kernel time over the
    very interval it covers / SPEED_REF_S - 1)``, so that a slot which ran
    through a slow phase is scaled by exactly that phase: reported seconds
    are seconds at the reference host's full speed.  Sampling *inside* the
    slot is what matters; a kernel timed between slots only removed a
    third of the spread of six-second windows, this removes two thirds
    (9.5% -> 3.4% message passing, 5.5% -> 1.9% shared memory, 7.1% ->
    3.0% scaled routing, 120 s of repeated slots each).

    The time the handler itself takes (5-7% of the run) is known exactly and
    is taken out of every duration.
    """

    INTERVAL_S = 0.0015
    KERNEL_ITERATIONS = 1000
    #: A duration shorter than this many samples (a 3 ms service job) is
    #: scaled by this many samples around it.
    MIN_SAMPLES = 32

    def __init__(self) -> None:
        self.times: List[float] = []  #: perf_counter at each sample
        self.values: List[float] = []  #: what the kernel took
        self._busy = False
        self.started = 0.0  #: perf_counter when the timer was armed

    def start(self) -> None:
        """Arm the timer.  Call on the main thread (signal handlers run there)."""
        self.started = time.perf_counter()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a second tick arrived while the kernel ran
            return
        self._busy = True
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(self.KERNEL_ITERATIONS):
            acc += i * i % 7
            table[i & 255] = acc
        self.times.append(start)
        self.values.append(time.perf_counter() - start)
        self._busy = False

    def factor(self, start: float, end: float) -> float:
        """What to multiply a duration measured over [start, end] by."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        handler_share = sum(self.values[lo:hi]) / (end - start)
        missing = self.MIN_SAMPLES - (hi - lo)
        if missing > 0:
            lo, hi = max(lo - (missing + 1) // 2, 0), hi + (missing + 1) // 2
        slow_down = statistics.fmean(self.values[lo:hi]) / SPEED_REF_S - 1.0
        return (1.0 - handler_share) / (1.0 + SENSITIVITY * slow_down)


# ----------------------------------------------------------------------
# digests and fingerprints
# ----------------------------------------------------------------------
def digest(obj: object) -> str:
    """SHA-256 of the canonical JSON of *obj* (floats by ``repr``)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            # A checkout that is not a repository must not find one above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(REPO_ROOT)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def host_fingerprint(seed: int) -> Dict[str, object]:
    """What a number must carry to be comparable: host, versions, commit, seed."""
    import multiprocessing

    import numpy

    from repro.kernels import active_kernels

    return {
        "logical_cores": os.cpu_count(),
        "cores_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": active_kernels(),
        "start_method": os.environ.get("REPRO_MP_START_METHOD")
        or multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "git_commit": _git_commit(),
        "seed": seed,
    }
