"""Verification checks for the live (real-core) parallel routers.

Four properties tie the live executions back to the rest of the
verification story (docs/PARALLEL.md):

- **replay**: the durable commit logs replay into the simulators'
  ground-truth ledger, whose report (the ``replay-*`` and
  ``cost-conservation`` checks) merges into the verdict: the replayed
  array equals the final shared array bit-exactly (shared memory) and
  the union of the final committed paths (both) —
  :mod:`repro.parallel.live.commitlog`;
- **quality**: live runs race real cores, so their solutions legitimately
  differ from the sequential reference run to run — but staleness only
  perturbs routing, it does not break it, so quality must stay within
  :data:`LIVE_QUALITY_TOLERANCE` of the sequential reference;
- **agreement**: live message passing runs the simulator's own
  :class:`~repro.parallel.node.MPNode`, so under the *same* schedule its
  quality must land within the much tighter :data:`LIVE_MP_AGREEMENT` of
  :func:`~repro.parallel.mp_sim.run_message_passing`;
- **exactness**: with one worker process there is no race, so a solo
  run of either paradigm must equal the sequential router exactly —
  quality, truth array and every path.

These checks are scheduling-sensitive (real parallelism!), so they live
behind the same ``repro verify`` umbrella as the simulators' oracles but
assert only schedule-independent properties.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuits.model import Circuit
from ..route.quality import QualityReport
from ..route.engine import SequentialRouter
from .violations import VerificationReport

__all__ = [
    "LIVE_QUALITY_TOLERANCE",
    "LIVE_MP_AGREEMENT",
    "run_live_checks",
    "within_tolerance",
]

#: Maximum relative deviation of a live run's quality (circuit height and
#: occupancy factor) from the sequential reference.  The paper reports
#: low-single-digit-percent degradation at 8 processors; 35% is a loose
#: envelope that still catches a broken router (a corrupt cost array
#: typically inflates quality by integer factors) without flaking on
#: scheduling noise.
LIVE_QUALITY_TOLERANCE = 0.35

#: Maximum relative deviation of live message passing from the simulator
#: under the same schedule.  Both run the same protocol code; what differs
#: is timing (real scheduling and pipe latency against the CBS cost model),
#: so the band is what interleaving noise alone moves.  Measured worst
#: cases: 9.9% height / 3.7% occupancy over 60 full-size runs (bnrE- and
#: MDC-like, 4 and 8 nodes, sender 1/1 and 2/5, mixed, receiver 1/5,
#: blocking; 3 runs each), and 12.2% / 10.2% over 300 runs of the 120-wire
#: ``verify --quick`` circuit at 2 nodes, where one routing track is
#: already 2.4% of the height.  Re-measured in fresh processes with each
#: node prepared before "go" (``mp_live._mp_node``), 15 runs per start
#: method at those 120 wires: worst 12.2% under fork, 9.8% under spawn.
#: The band does not hold at half that size, where a node's whole run is
#: about 6 ms of routing: at 60 wires 60 runs per method read median
#: occupancy 1812-2035 (fork) and 1825-1907 (spawn) against the
#: simulator's 1752, worst 29% and 19%, with 8 of 60 fork runs over the
#: band — all 8 in one batch of 20, a phase of the host, not a start
#: method.  (Before the nodes prepared, spawn read median 2012-2024,
#: worst 30%, 2-4 of 20 over: an unprepared node spent its first
#: milliseconds building geometry the simulator's cost model knows
#: nothing about.)  Tier-1 therefore runs this check at 120 wires.
LIVE_MP_AGREEMENT = 0.20


def within_tolerance(
    live: QualityReport, ref: QualityReport, tolerance: float = LIVE_QUALITY_TOLERANCE
) -> bool:
    """Both quality measures of *live* lie within *tolerance* of *ref*'s."""
    for attr in ("circuit_height", "occupancy_factor"):
        ref_v = getattr(ref, attr)
        live_v = getattr(live, attr)
        if ref_v and abs(live_v - ref_v) / ref_v > tolerance:
            return False
    return True


def run_live_checks(
    circuit: Circuit,
    n_procs: int = 2,
    iterations: int = 2,
    start_method: Optional[str] = None,
) -> VerificationReport:
    """Run both live routers and return one report of every check.

    Each live run's ledger report (its ``replay-*`` and conservation
    checks) merges in beside the ``live-*`` quality, agreement and
    solo-exact checks.
    """
    from ..harness.simjobs import SimConfig, run_sim_config
    from ..parallel.live import run_live_message_passing, run_live_shared_memory
    from ..updates.schedule import UpdateSchedule

    reference = SequentialRouter(circuit, iterations=iterations).run()
    report = VerificationReport()

    sm = run_live_shared_memory(
        circuit, n_procs=n_procs, iterations=iterations, start_method=start_method
    )
    report.merge(sm.meta["verification_report"])
    report.check(
        "live-sm-quality",
        within_tolerance(sm.quality, reference.quality),
        f"live {sm.quality} vs sequential {reference.quality} "
        f"(tolerance {LIVE_QUALITY_TOLERANCE:.0%})",
    )

    schedule = UpdateSchedule.sender_initiated(1, 1)
    mp = run_live_message_passing(
        circuit,
        schedule,
        n_procs=n_procs,
        iterations=iterations,
        start_method=start_method,
    )
    mp_sim = run_sim_config(
        SimConfig(kind="mp", schedule=schedule, n_procs=n_procs, iterations=iterations),
        circuit,
    )
    report.merge(mp.meta["verification_report"])
    report.check(
        "live-mp-quality",
        within_tolerance(mp.quality, reference.quality),
        f"live {mp.quality} vs sequential {reference.quality} "
        f"(tolerance {LIVE_QUALITY_TOLERANCE:.0%})",
    )
    report.check(
        "live-mp-agreement",
        within_tolerance(mp.quality, mp_sim.quality, LIVE_MP_AGREEMENT),
        f"live {mp.quality} vs simulated {mp_sim.quality} under "
        f"{schedule.describe()} (band {LIVE_MP_AGREEMENT:.0%})",
    )

    solos = {
        "sm": run_live_shared_memory(
            circuit, n_procs=1, iterations=iterations, start_method=start_method
        ),
        "mp": run_live_message_passing(
            circuit, schedule, n_procs=1, iterations=iterations,
            start_method=start_method,
        ),
    }
    for name, solo in solos.items():
        report.merge(solo.meta["verification_report"])
        report.check(
            f"live-{name}-solo-exact",
            solo.quality == reference.quality
            and solo.truth == reference.cost
            and all(
                np.array_equal(solo.paths[w].flat_cells, path.flat_cells)
                for w, path in reference.paths.items()
            ),
            f"1-process run diverged from the sequential router "
            f"({solo.quality} vs {reference.quality})",
        )
    return report
