"""Live (real-core) execution of both parallel LocusRoute paradigms.

Where :mod:`repro.parallel.sm_sim` and :mod:`repro.parallel.mp_sim`
*model* the paper's two implementations under simulated time, this
package actually runs them: real worker processes on real cores, a real
``multiprocessing.shared_memory`` cost array for the shared-memory
router, and real pickled update packets over pipes for the
message-passing router.  Durable per-worker commit logs make every run
replay-verifiable: the logs replay into the ground-truth ledger the
simulators use (:mod:`repro.parallel.live.commitlog`), and both routers
return :class:`~repro.parallel.results.ParallelRunResult`.
"""

from .commitlog import (
    COMMIT,
    RIPUP,
    CommitLogWriter,
    CommitRecord,
    read_log,
    read_logs,
    replay_records,
)
from .mp_live import DEFAULT_LIVE_POLICY, run_live_message_passing
from .sm_live import KILL_POINTS, KillPlanEntry, run_live_shared_memory

__all__ = [
    "run_live_shared_memory",
    "run_live_message_passing",
    "DEFAULT_LIVE_POLICY",
    "KillPlanEntry",
    "KILL_POINTS",
    "CommitRecord",
    "CommitLogWriter",
    "read_log",
    "read_logs",
    "replay_records",
    "COMMIT",
    "RIPUP",
]
