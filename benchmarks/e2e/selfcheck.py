"""Checks of the benchmark itself (a plain script; tier-1 does not collect it).

    python3 benchmarks/e2e/selfcheck.py

1. One traced slot's self times add up to its root spans within 1%.
2. Every seam's binding carries a wrapper while installed and the
   original afterwards; on smoke runs each layer records spans on the
   workloads that should exercise it and none on those that should not.
3. The percentile helper refuses a p95 of fewer than 200 samples.
4. Seeds 1 and 2 give different ``sim_digest``s, equal seeds equal ones.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List

import measure
import run

sys.path.insert(0, os.path.join(measure.REPO_ROOT, "src"))

#: layer -> workloads on which it must record spans / must record none,
#: on smoke runs.  (The full service_mix also reaches the generators: its
#: 37 distinct circuits overflow `_named_circuit`'s 32-entry LRU, where the
#: smoke run's 6 are all cached by the warm-up pass.)
BUSY = {
    "circuits": ["route_scaled"],
    "assign": ["mp_sweep", "sm_sweep"],
    "route": ["mp_sweep", "mp_faults", "sm_sweep", "route_scaled", "service_mix"],
    "grid": ["mp_sweep", "mp_faults", "sm_sweep", "route_scaled"],
    "updates": ["mp_sweep", "mp_faults"],
    "netsim": ["mp_sweep", "mp_faults"],
    "events": ["mp_sweep", "mp_faults", "sm_sweep"],
    "parallel": ["mp_sweep", "mp_faults", "sm_sweep", "service_mix"],
    "memsim": ["sm_sweep"],
    "faults": ["mp_faults"],
    "harness": ["service_mix"],
    "service": ["service_mix"],
}
IDLE = {
    "circuits": ["mp_sweep", "mp_faults", "sm_sweep"],
    "updates": ["sm_sweep", "route_scaled"],
    "netsim": ["sm_sweep", "route_scaled"],
    "events": ["route_scaled"],
    "parallel": ["route_scaled"],
    "memsim": ["mp_sweep", "mp_faults", "route_scaled"],
    "faults": ["mp_sweep", "sm_sweep", "route_scaled", "service_mix"],
    "harness": ["mp_sweep", "mp_faults", "sm_sweep", "route_scaled"],
    "service": ["mp_sweep", "mp_faults", "sm_sweep", "route_scaled"],
}

failures: List[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def smoke(seed: int, trace: int) -> Dict[str, dict]:
    """One smoke run of every workload -> the worker's report per workload.

    ``run.py --smoke`` refuses ``--out`` (its numbers are not results), so
    the workers are asked directly.
    """
    return {
        w["name"]: run.worker(
            ["--workload", w["name"], "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
        )
        for w in measure.load_spec()["workloads"]
    }


def check_span_tree() -> None:
    import workloads
    from trace import SEAMS, Tracer, resolve

    def bindings() -> list:
        return [vars(owner)[attr] for owner, attr in (resolve(m, d) for _b, m, d, _c in SEAMS)]

    workload = workloads.build("mp_sweep", 1, True, os.path.join(measure.HERE, ".work"))
    tracer = Tracer()
    originals = bindings()
    tracer.install()
    try:
        wrapped = sum(new is not old for new, old in zip(bindings(), originals))
        check(wrapped == len(SEAMS), f"{wrapped} of {len(SEAMS)} seam bindings carry a wrapper while installed")
        workload.slots[0].run(False)
        slot = tracer.collect()
    finally:
        tracer.uninstall()
    restored = sum(new is old for new, old in zip(bindings(), originals))
    check(restored == len(SEAMS), f"{restored} of {len(SEAMS)} bindings are the originals again after uninstall")
    total = sum(slot.self_s.values())
    check(
        slot.spans > 1000 and abs(total - slot.root_s) <= 0.01 * slot.root_s,
        f"self times of {slot.spans} spans sum to the root: {total:.6f} s vs {slot.root_s:.6f} s",
    )


def check_layers() -> None:
    reports = smoke(1, 1)
    for layer, names in BUSY.items():
        for name in names:
            n = reports[name]["layer_calls"][layer]
            check(n > 0, f"{layer} records spans on {name} ({n})")
    for layer, names in IDLE.items():
        for name in names:
            n = reports[name]["layer_calls"][layer]
            check(n == 0, f"{layer} records no span on {name} ({n})")
    for name, report in reports.items():
        check(report["failed"] == 0, f"{name} traced smoke run has no failed operation {report['problems']}")


def check_percentile() -> None:
    try:
        measure.percentile([float(i) for i in range(199)], 95)
    except ValueError:
        refused = True
    else:
        refused = False
    check(refused, "p95 of 199 samples is refused")
    check(measure.percentile([float(i) for i in range(201)], 95) == 190.0, "p95 of 0..200 is 190")


def check_seeds() -> None:
    first, again, other = smoke(1, 0), smoke(1, 0), smoke(2, 0)
    for name in first:
        check(first[name]["sim_digest"] == again[name]["sim_digest"], f"{name}: seed 1 twice, same sim_digest")
        check(first[name]["sim_digest"] != other[name]["sim_digest"], f"{name}: seeds 1 and 2, different sim_digest")
        check(first[name]["counts"] == again[name]["counts"], f"{name}: seed 1 twice, same exact counts")


def main() -> int:
    check_percentile()
    check_span_tree()
    check_layers()
    check_seeds()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
