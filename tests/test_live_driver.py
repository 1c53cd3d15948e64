"""The live routers' shared driver cleans up however a run ends.

Both live routers run their workers through one
:class:`~repro.parallel.live.driver.LiveFleet`; its teardown must not
wait for garbage collection, because a caller that holds the exception
(a test's ``excinfo``, a logged traceback) keeps the aborted run's frames
alive.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import tempfile

import pytest

from repro.circuits import tiny_test_circuit
from repro.errors import SimulationError
from repro.parallel.live import run_live_message_passing, run_live_shared_memory


def shm_entries():
    """What ``/dev/shm`` holds (segments, named semaphores); empty off Linux."""
    return set(os.listdir("/dev/shm")) if sys.platform.startswith("linux") else set()


@pytest.mark.parametrize(
    "router", [run_live_shared_memory, run_live_message_passing], ids=["sm", "mp"]
)
def test_an_aborted_run_leaves_nothing_behind(router, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    circuit = tiny_test_circuit(seed=7, n_wires=24)
    # Earlier tests' pools may still hold children; only this run's count.
    children, shm = set(multiprocessing.active_children()), shm_entries()
    with pytest.raises(SimulationError, match="exceeded") as excinfo:
        router(circuit, n_procs=2, iterations=2, timeout_s=0.0)
    assert excinfo.value.__traceback__ is not None
    assert list(tmp_path.glob("locusroute-live*")) == []
    assert set(multiprocessing.active_children()) - children == set()
    assert shm_entries() - shm == set()
