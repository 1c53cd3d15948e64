"""The named-circuit memo (harness.simjobs.named_circuit).

Every caller that names a benchmark circuit — sim keys and runs, the
experiment keys and drivers, the service's route key and execution —
reads through one memo entry holding the circuit and its fingerprint.
These tests count builds with the ``circuits.named_builds`` counter.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import bnre_like, mdc_like
from repro.errors import ExperimentError
from repro.harness import simjobs
from repro.harness.cache import circuit_fingerprint
from repro.harness.simjobs import (
    CIRCUIT_CACHE_WIRES,
    SimConfig,
    named_circuit,
    run_sim_config,
    sim_fingerprint,
    sim_key,
)
from repro.obs import telemetry as obs
from repro.parallel import run_shared_memory
from repro.service.jobs import JobSpec, execute_job, job_key
from repro.updates import UpdateSchedule


def builds() -> float:
    return obs.get_telemetry().count("circuits.named_builds")


def fresh_memo(monkeypatch, max_wires=CIRCUIT_CACHE_WIRES):
    memo = simjobs._CircuitMemo(max_wires)
    monkeypatch.setattr(simjobs, "_MEMO", memo)
    return memo


@pytest.fixture
def memo(monkeypatch):
    return fresh_memo(monkeypatch)


def test_a_cycle_longer_than_32_circuits_builds_each_once(memo):
    # 40 > 32: an LRU of 32 entries would miss on every access of this cycle.
    names = [("bnrE" if i % 2 else "MDC", 3 + i) for i in range(40)]
    before = builds()
    for which, n in names:
        named_circuit(which, False, n)
    assert builds() == before + 40
    for which, n in names:
        named_circuit(which, False, n)
    assert builds() == before + 40
    assert len(memo._entries) == 40
    assert memo.wires == sum(n for _which, n in names)


def test_equal_keys_share_one_object_and_a_fresh_fingerprint(memo):
    first = named_circuit("MDC", False, 31)
    again = named_circuit("MDC", False, 31)
    assert again is first
    assert again.circuit is first.circuit
    assert first.fingerprint == circuit_fingerprint(mdc_like(n_wires=31))
    assert first.fingerprint == circuit_fingerprint(first.circuit)


@pytest.mark.parametrize(
    "which, maker, quick_wires, full_wires",
    [("bnrE", bnre_like, 160, 420), ("MDC", mdc_like, 200, 573)],
)
def test_aliases_of_one_circuit_cost_one_build(memo, which, maker, quick_wires, full_wires):
    before = builds()
    quick = named_circuit(which, True, None)
    assert named_circuit(which, False, quick_wires) is quick
    assert named_circuit(which, True, quick_wires) is quick
    assert builds() == before + 1
    full = named_circuit(which, False, None)
    assert named_circuit(which, False, full_wires) is full
    assert named_circuit(which, True, full_wires) is full
    assert builds() == before + 2
    assert quick.fingerprint == circuit_fingerprint(maker(n_wires=quick_wires))
    assert full.fingerprint == circuit_fingerprint(maker())
    assert (quick.circuit.n_wires, full.circuit.n_wires) == (quick_wires, full_wires)


def test_an_unknown_name_is_refused(memo):
    with pytest.raises(ExperimentError, match="unknown circuit"):
        named_circuit("bnre", False, 10)
    assert len(memo._entries) == 0


def test_the_least_recently_used_entry_goes_first(monkeypatch):
    memo = fresh_memo(monkeypatch, max_wires=30)
    a = named_circuit("bnrE", False, 10)
    named_circuit("bnrE", False, 11)
    named_circuit("bnrE", False, 9)
    assert named_circuit("bnrE", False, 10) is a  # a hit refreshes it
    before = builds()
    named_circuit("MDC", False, 8)  # 38 wires: the 11-wire circuit goes
    assert memo.wires == 27 and len(memo._entries) == 3
    assert named_circuit("bnrE", False, 10) is a
    assert named_circuit("bnrE", False, 9).circuit.n_wires == 9
    assert builds() == before + 1
    named_circuit("bnrE", False, 11)
    assert builds() == before + 2


def test_the_entry_just_used_stays_however_large(monkeypatch):
    memo = fresh_memo(monkeypatch, max_wires=20)
    named_circuit("bnrE", False, 5)
    big = named_circuit("bnrE", False, 60)
    assert len(memo._entries) == 1 and memo.wires == 60
    before = builds()
    assert named_circuit("bnrE", False, 60) is big
    assert builds() == before
    named_circuit("bnrE", False, 5)
    assert len(memo._entries) == 1 and memo.wires == 5


def test_a_route_job_key_and_its_execution_share_one_build(memo):
    spec = JobSpec.from_params("route", {"n_wires": 37, "iterations": 1})
    before = builds()
    job_key(spec)
    execute_job(spec)
    assert builds() == before + 1


def test_a_sim_key_and_its_run_share_one_build(memo):
    config = SimConfig(
        kind="mp",
        n_wires=23,
        schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=10),
        n_procs=4,
        iterations=1,
    )
    before = builds()
    sim_key(config)
    run_sim_config(config)
    assert builds() == before + 1


def test_a_circuit_seed_runs_the_seeded_circuit(memo):
    seeded = bnre_like(seed=5, n_wires=20)
    config = SimConfig(kind="sm", n_wires=20, circuit_seed=5, n_procs=2, iterations=1)
    assert named_circuit("bnrE", False, 20, 5).fingerprint == circuit_fingerprint(seeded)
    assert sim_fingerprint(config)["circuit"] == circuit_fingerprint(seeded)
    assert sim_key(config) != sim_key(replace(config, circuit_seed=None))
    by_hand = run_shared_memory(seeded, n_procs=2, iterations=1)
    assert run_sim_config(config).summary_dict() == by_hand.summary_dict()


@settings(max_examples=30, deadline=None)
@given(
    max_wires=st.integers(1, 120),
    requests=st.lists(
        st.tuples(st.sampled_from(["bnrE", "MDC"]), st.integers(1, 50)),
        min_size=1,
        max_size=12,
    ),
)
def test_the_memo_holds_its_bound_or_one_entry(max_wires, requests):
    with pytest.MonkeyPatch.context() as monkeypatch:
        memo = fresh_memo(monkeypatch, max_wires)
        for which, n in requests:
            entry = named_circuit(which, False, n)
            assert memo.wires <= max_wires or len(memo._entries) == 1
            assert memo.wires == sum(e.circuit.n_wires for e in memo._entries.values())
            assert list(memo._entries)[-1] == (which, n, None)
            assert memo._entries[(which, n, None)] is entry


def test_racing_threads_get_one_entry(memo, monkeypatch):
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    build = simjobs._build

    def build_together(which, n_wires, seed):
        barrier.wait(timeout=30)  # every thread has missed before any stores
        return build(which, n_wires, seed)

    monkeypatch.setattr(simjobs, "_build", build_together)
    got = [None] * n_threads

    def ask(i):
        got[i] = named_circuit("bnrE", False, 29)

    before = builds()
    threads = [threading.Thread(target=ask, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert all(entry is got[0] for entry in got)
    assert len({entry.fingerprint for entry in got}) == 1
    assert builds() == before + n_threads  # each build counted, one kept
    assert len(memo._entries) == 1 and memo.wires == 29


def test_threads_evicting_under_a_tight_bound_keep_the_books(monkeypatch):
    memo = fresh_memo(monkeypatch, max_wires=25)
    keys = [(which, n) for which in ("bnrE", "MDC") for n in range(3, 10)]
    fingerprints = {
        key: circuit_fingerprint(simjobs._build(*key, None).circuit) for key in keys
    }
    wrong = []

    def ask(seed):
        for i in range(60):
            key = keys[(seed * 7 + i * 5) % len(keys)]
            if named_circuit(key[0], False, key[1]).fingerprint != fingerprints[key]:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert memo.wires == sum(e.circuit.n_wires for e in memo._entries.values()) <= 25


def test_a_build_that_lost_the_race_still_refreshes_the_entry(monkeypatch):
    memo = fresh_memo(monkeypatch, max_wires=30)
    building, go = threading.Event(), threading.Event()
    build = simjobs._build

    def build_late(which, n_wires, seed):
        if threading.current_thread() is late:
            building.set()
            assert go.wait(timeout=30)
        return build(which, n_wires, seed)

    monkeypatch.setattr(simjobs, "_build", build_late)
    got = []
    late = threading.Thread(target=lambda: got.append(named_circuit("bnrE", False, 12)))
    late.start()
    assert building.wait(timeout=30)
    stored = named_circuit("bnrE", False, 12)  # built while the thread waits
    named_circuit("bnrE", False, 13)
    go.set()
    late.join(timeout=60)
    assert not late.is_alive()
    assert got == [stored] and got[0] is stored  # its own build was dropped
    before = builds()
    named_circuit("bnrE", False, 14)  # 39 wires: the 13-wire circuit is older now
    assert named_circuit("bnrE", False, 12) is stored
    assert builds() == before + 1
    assert memo.wires == 26


def _ask_in_child(queue):
    queue.put(named_circuit("bnrE", False, 6).circuit.n_wires)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_forked_child_does_not_inherit_a_held_lock(memo):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    with memo._lock:  # held while the child is forked
        child = ctx.Process(target=_ask_in_child, args=(queue,))
        child.start()
    try:
        assert queue.get(timeout=60) == 6
    finally:
        child.join(timeout=60)
    assert child.exitcode == 0
