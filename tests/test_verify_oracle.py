"""The differential oracle and the ``repro verify`` CLI.

The acceptance path for the verification subsystem: a clean run passes
everything and exits 0; a deliberately corrupted delta schedule (a node
silently dropping its remote deltas instead of shipping them) makes the
oracle — and the CLI — fail with a structured violation naming the
first differing cell.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits import bnre_like
from repro.cli import main
from repro.harness import simjobs
from repro.harness.cache import ResultCache
from repro.obs import telemetry as obs
from repro.parallel.node import MPNode
from repro.verify import run_differential_oracle, run_verification, runner

SIMULATOR_INVARIANTS = (
    "cost-conservation",
    "msi-legality",
    "flit-conservation",
    "replica-convergence",
    "wire-set",
    "pin-coverage",
)


@pytest.fixture
def corrupt_node_zero(monkeypatch):
    """Node 0 drops its accumulated remote deltas instead of sending them."""
    original = MPNode._send_rmt_data

    def corrupted(self):
        if self.proc == 0:
            for owner in range(self.regions.n_procs):
                if owner != self.proc:
                    self.delta.clear_region(self.regions.region(owner))
            return
        original(self)

    monkeypatch.setattr(MPNode, "_send_rmt_data", corrupted)


class TestOracle:
    def test_clean_run_passes(self, small_bnre):
        run = run_differential_oracle(small_bnre, n_procs=4, iterations=2)
        assert run.ok
        assert not run.report.violations
        # every engine reported quality, all checkers fired
        assert set(run.quality) == {
            "sequential",
            "shared_memory",
            "message_passing",
        }
        for name in SIMULATOR_INVARIANTS:
            assert run.report.checks_run[name] > 0, name

    def test_corrupted_deltas_diverge_with_first_cell(
        self, small_bnre, corrupt_node_zero
    ):
        run = run_differential_oracle(small_bnre, n_procs=4, iterations=2)
        assert not run.ok
        convergence = [
            v
            for v in run.report.violations
            if "replica" in v.message or "diverges from ground truth" in v.message
        ]
        assert convergence, [v.invariant for v in run.report.violations]
        first = convergence[0]
        assert first.message.startswith("message_passing: ")
        assert first.cell is not None  # the first differing cell, named
        assert first.event_time_s is not None
        # structured, not a bare assert: survives JSON round-trip
        payload = json.loads(json.dumps(run.as_dict()))
        assert payload["ok"] is False
        assert payload["violations"][0]["cell"] is not None

    def test_render_mentions_divergence(self, small_bnre, corrupt_node_zero):
        run = run_differential_oracle(small_bnre, n_procs=4, iterations=2)
        text = run.render()
        assert "verdict: FAIL" in text
        assert "VIOLATION [replica-convergence] message_passing: " in text
        assert "cell=(c=" in text


class TestRunner:
    def test_quick_sweep_passes(self, monkeypatch):
        """Every family reaches the verdict, the extra checked message
        passing runs (mixed, blocking receiver-initiated) included: their
        reports' counts add to the oracle's."""
        extra, oracle = [], []
        run_mp = simjobs.run_message_passing
        run_oracle = runner.run_differential_oracle

        def recording_mp(circuit, schedule, **kwargs):
            result = run_mp(circuit, schedule, **kwargs)
            # Runs after the oracle's; the kernel pairs run unchecked.
            if oracle and kwargs.get("check_invariants"):
                extra.append((schedule, result))
            return result

        def recording_oracle(*args, **kwargs):
            run = run_oracle(*args, **kwargs)
            oracle.append(dict(run.report.checks_run))
            return run

        monkeypatch.setattr(simjobs, "run_message_passing", recording_mp)
        monkeypatch.setattr(runner, "run_differential_oracle", recording_oracle)
        # The quick preset's own 120 wires: the live-vs-simulated band was
        # measured there and does not hold at half the size (verify/live.py).
        run = run_verification(quick=True)
        assert run.ok, run.render()
        assert [schedule for schedule, _ in extra] == list(runner.EXTRA_SCHEDULES)
        for name in SIMULATOR_INVARIANTS:
            alone = oracle[0].get(name, 0) + sum(
                r.meta["verification_report"].checks_run.get(name, 0)
                for _, r in extra
            )
            assert run.report.checks_run[name] >= alone, name
        assert run.report.checks_run["flit-conservation"] > oracle[0][
            "flit-conservation"
        ]
        for name in SIMULATOR_INVARIANTS:
            assert run.report.checks_run[name] > 0, name
        for label in ("coherence", "write_update", "twobend", "wavefront", "mp_push"):
            assert run.report.checks_run[f"kernel-{label}"] == 1, label
        families = {name.split("-")[0] for name in run.report.checks_run}
        assert {"live", "replay"} <= families


    def test_reads_no_cache(self, tmp_path):
        """A cache hit would check nothing: under an installed result
        cache, a repeated sweep still simulates every run."""
        counts = ("cache.sim.hits", "cache.sim.misses")
        before = [obs.get_telemetry().count(name) for name in counts]
        circuit = bnre_like(n_wires=24)
        with simjobs.strategy(cache=ResultCache(tmp_path)):
            for _ in range(2):
                run_verification(circuit=circuit, n_procs=2, iterations=1)
        assert [obs.get_telemetry().count(name) for name in counts] == before


class TestCli:
    def test_verify_quick_exits_zero(self, capsys):
        assert main(["verify", "--quick"]) == 0  # 120 wires, see above
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_quick_corrupted_exits_nonzero(self, corrupt_node_zero, capsys):
        assert main(["verify", "--quick", "--wires", "60"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION [replica-convergence]" in out
        assert "cell=(c=" in out

    def test_verify_json_reports_structure(self, corrupt_node_zero, capsys):
        assert main(["verify", "--quick", "--wires", "60", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        cells = [
            v.get("cell")
            for v in payload["violations"]
            if v.get("cell") is not None
        ]
        assert cells, "expected a violation naming the first differing cell"

    def test_mp_check_invariants_flag(self, capsys):
        code = main(
            [
                "mp",
                "--wires",
                "40",
                "--procs",
                "4",
                "--iterations",
                "1",
                "--send-rmt",
                "2",
                "--send-loc",
                "10",
                "--check-invariants",
            ]
        )
        assert code == 0
        assert "invariants:" in capsys.readouterr().out

    def test_sm_check_invariants_flag(self, capsys):
        code = main(
            [
                "sm",
                "--wires",
                "40",
                "--procs",
                "4",
                "--iterations",
                "1",
                "--check-invariants",
            ]
        )
        assert code == 0
        assert "invariants:" in capsys.readouterr().out
