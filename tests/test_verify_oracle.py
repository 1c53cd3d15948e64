"""The differential oracle and the ``repro verify`` CLI.

The acceptance path for the verification subsystem: a clean run passes
everything and exits 0; a deliberately corrupted delta schedule (a node
silently dropping its remote deltas instead of shipping them) makes the
oracle — and the CLI — fail with a structured divergence report naming
the first differing cell.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits import bnre_like
from repro.cli import main
from repro.parallel.node import MPNode
from repro.verify import run_differential_oracle, run_verification


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
        report = run_differential_oracle(small_bnre, n_procs=4, iterations=2)
        assert report.ok
        assert not report.divergences
        # every engine reported quality, all checkers fired
        assert set(report.quality) == {
            "sequential",
            "shared_memory",
            "message_passing",
        }
        for name in (
            "cost-conservation",
            "msi-legality",
            "flit-conservation",
            "replica-convergence",
            "wire-set",
            "pin-coverage",
        ):
            assert report.verification.checks_run[name] > 0, name

    def test_corrupted_deltas_diverge_with_first_cell(
        self, small_bnre, corrupt_node_zero
    ):
        report = run_differential_oracle(small_bnre, n_procs=4, iterations=2)
        assert not report.ok
        convergence = [
            d
            for d in report.divergences
            if "replica" in d.message or "diverges from ground truth" in d.message
        ]
        assert convergence, [d.kind for d in report.divergences]
        first = convergence[0]
        assert first.engines == ("message_passing",)
        assert first.cell is not None  # the first differing cell, named
        assert first.event_time_s is not None
        # structured, not a bare assert: survives JSON round-trip
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is False
        assert payload["divergences"][0]["cell"] is not None

    def test_render_mentions_divergence(self, small_bnre, corrupt_node_zero):
        report = run_differential_oracle(small_bnre, n_procs=4, iterations=2)
        text = report.render()
        assert "DIVERGED" in text
        assert "first differing cell" in text


class TestRunner:
    def test_quick_sweep_passes(self):
        # The quick preset's own 120 wires: the live-vs-simulated band was
        # measured there and does not hold at half the size (verify/live.py).
        run = run_verification(quick=True)
        assert run.ok
        assert set(run.extra_runs) == {"mixed", "receiver-blocking"}
        assert run.combined.total_checks > run.oracle.verification.total_checks


class TestCli:
    def test_verify_quick_exits_zero(self, capsys):
        assert main(["verify", "--quick"]) == 0  # 120 wires, see above
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_quick_corrupted_exits_nonzero(self, corrupt_node_zero, capsys):
        assert main(["verify", "--quick", "--wires", "60"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "first differing cell" in out

    def test_verify_json_reports_structure(self, corrupt_node_zero, capsys):
        assert main(["verify", "--quick", "--wires", "60", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        cells = [
            d.get("cell")
            for d in payload["oracle"]["divergences"]
            if d.get("cell") is not None
        ]
        assert cells, "expected a divergence naming the first differing cell"

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
