"""Tests for the command line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _sim_config, build_parser, main
from repro.updates import UpdateSchedule


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_mp_defaults(self):
        args = build_parser().parse_args(["mp"])
        assert args.procs == 16 and args.iterations is None
        assert args.send_loc is None
        config, _circuit, _override = _sim_config(args, "mp", schedule=UpdateSchedule())
        assert config.iterations == 3


class TestCircuitCommand:
    def test_describe(self, capsys):
        assert main(["circuit", "--name", "bnrE", "--wires", "50"]) == 0
        out = capsys.readouterr().out
        assert "50 wires" in out

    def test_stats(self, capsys):
        assert main(["circuit", "--name", "MDC", "--wires", "40", "--stats"]) == 0
        assert "mean_x_span" in capsys.readouterr().out

    def test_save_and_reload(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(["circuit", "--wires", "30", "--save-json", str(path)]) == 0
        assert path.exists()
        assert main(["circuit", "--load", str(path)]) == 0

    def test_save_text(self, tmp_path):
        path = tmp_path / "c.txt"
        assert main(["circuit", "--wires", "30", "--save-text", str(path)]) == 0
        assert path.read_text().startswith("#")

    def test_unknown_circuit_name(self):
        with pytest.raises(SystemExit):
            main(["circuit", "--name", "nope"])


class TestRouteCommand:
    def test_route_reports_quality(self, capsys):
        assert main(["route", "--wires", "40", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "circuit height" in out
        assert "occupancy factor" in out


class TestMpCommand:
    def test_sender_initiated_run(self, capsys):
        code = main(
            ["mp", "--wires", "40", "--procs", "4", "--iterations", "2",
             "--send-rmt", "2", "--send-loc", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SLD=5 SRD=2" in out
        assert "mbytes" in out

    def test_circuit_seed_perturbs_the_named_circuit(self, monkeypatch, capsys):
        from repro.circuits import bnre_like
        from repro.harness import simjobs
        from repro.harness.cache import circuit_fingerprint

        routed = []
        real = simjobs.run_message_passing

        def recording(circuit, *args, **kwargs):
            routed.append(circuit)
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(simjobs, "run_message_passing", recording)
        flags = ["mp", "--wires", "40", "--procs", "4", "--iterations", "1", "--send-rmt", "2", "--send-loc", "5"]
        assert main(flags + ["--circuit-seed", "99"]) == 0
        assert main(flags) == 0
        seeded, canonical = map(circuit_fingerprint, routed)
        assert seeded == circuit_fingerprint(bnre_like(seed=99, n_wires=40))
        assert canonical == circuit_fingerprint(bnre_like(n_wires=40)) != seeded

    def test_blocking_receiver_run(self, capsys):
        code = main(
            ["mp", "--wires", "40", "--procs", "4", "--iterations", "2",
             "--req-loc", "1", "--req-rmt", "3", "--blocking"]
        )
        assert code == 0
        assert "blocking" in capsys.readouterr().out


class TestQuick:
    """``--quick`` is one size and one iteration count, the harness's and
    the service's, and sizes the named benchmarks only."""

    def test_mdc_quick_is_the_service_jobs_run(self):
        from repro.harness.simjobs import sim_key
        from repro.service.jobs import JobSpec

        args = build_parser().parse_args(["mp", "--name", "MDC", "--quick"])
        schedule = UpdateSchedule.receiver_initiated(1, 5, blocking=True)
        config, circuit, override = _sim_config(args, "mp", schedule=schedule)
        assert override is None
        assert circuit.n_wires == 200 and config.iterations == 2
        # The service spelling of the same run, the schedule `mp --quick`
        # defaults to included.
        params = {"which": "MDC", "quick": True, "req_loc": 1, "req_rmt": 5, "blocking": True}
        job = JobSpec.from_params("mp", params).sim_config()
        assert job.iterations == 2
        assert sim_key(job) == sim_key(config)

    @pytest.mark.parametrize("source", [["--name", "scaled"], ["--load", "c.json"]])
    def test_refused_beside_another_circuit_source(self, source, capsys):
        assert main(["mp", "--quick", *source]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --quick sizes the named benchmarks")

    @pytest.mark.parametrize(
        "flags, wires", [(["--name", "MDC"], 200), (["--name", "MDC", "--wires", "30"], 30), ([], None)]
    )
    def test_verify_sizes_a_named_circuit_by_the_quick_rule(self, monkeypatch, flags, wires):
        # No circuit (None) is the verification sweep's own quick preset.
        import repro.verify

        routed = []

        class Passed:
            ok = True

            def render(self):
                return "PASS"

        def recording(quick, circuit, n_procs, iterations):
            routed.append(None if circuit is None else circuit.n_wires)
            return Passed()

        monkeypatch.setattr(repro.verify, "run_verification", recording)
        assert main(["verify", "--quick", *flags]) == 0
        assert routed == [wires]

    def test_an_explicit_count_wins(self):
        # 3, the unset default's value, too: it once read as unset.
        args = build_parser().parse_args(["mp", "--quick", "--iterations", "3"])
        config, _circuit, _override = _sim_config(args, "mp", schedule=UpdateSchedule())
        assert config.iterations == 3


class TestSmCommand:
    def test_line_size_sweep(self, capsys):
        code = main(
            ["sm", "--wires", "40", "--procs", "4", "--iterations", "2",
             "--line-sizes", "4", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "line  4B" in out and "line  8B" in out


class TestRunCommand:
    def test_live_sm(self, capsys):
        code = main(
            ["run", "--live", "sm", "--wires", "24", "--procs", "2",
             "--iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shared_memory_live" in out
        assert "checks, 0 violations" in out

    def test_live_mp_with_schedule(self, capsys):
        code = main(
            ["run", "--live", "mp", "--wires", "24", "--procs", "2",
             "--iterations", "2", "--send-rmt", "1", "--send-loc", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "message_passing_live" in out
        assert "traffic:" in out

    def test_live_sm_json(self, capsys):
        import json

        code = main(
            ["run", "--live", "sm", "--wires", "24", "--procs", "1",
             "--iterations", "2", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["paradigm"] == "shared_memory_live"
        assert data["meta"]["verification"]["ok"] is True
        assert data["n_wires"] == 24

    def test_failed_replay_exits_1(self, capsys, monkeypatch):
        from repro.parallel.live import driver

        real = driver.replay_records

        def corrupted(records, circuit, iterations):
            ledger = real(records, circuit, iterations)
            ledger.truth.data[0, 0] += 1
            return ledger

        monkeypatch.setattr(driver, "replay_records", corrupted)
        code = main(
            ["run", "--live", "sm", "--wires", "24", "--procs", "1",
             "--iterations", "2"]
        )
        assert code == 1
        assert "VIOLATION [replay-shared-segment]" in capsys.readouterr().err

    def test_quick_defaults(self):
        args = build_parser().parse_args(["run", "--live", "sm", "--quick"])
        assert args.procs == 2 and args.iterations is None and args.quick
        config, circuit, _override = _sim_config(args, "sm")
        assert config.iterations == 2 and circuit.n_wires == 160

    def test_requires_live_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_only_run_loads_the_live_twins(self):
        # `import repro` and the CLI module leave the live routers (and the
        # multiprocessing.shared_memory they pull in) unloaded; a fresh
        # interpreter is the only clean sys.modules.
        probe = (
            "import sys, repro, repro.cli; "
            "print([m for m in ('repro.parallel.live', 'multiprocessing.shared_memory') "
            "if m in sys.modules])"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[]"


class TestExperimentCommand:
    def test_single_quick_experiment(self, capsys, tmp_path):
        code = main(["experiment", "X4", "--quick", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "x4.json").exists()
        assert "[X4]" in capsys.readouterr().out

    def test_parser_defaults_for_harness_flags(self):
        args = build_parser().parse_args(["experiment", "all"])
        assert args.jobs == 1
        assert args.cache_dir == ".locusroute_cache"
        assert args.no_cache is False
        assert args.timeout is None

    def test_jobs_flag_runs_parallel(self, capsys, tmp_path):
        code = main(
            ["experiment", "X4", "T6", "--quick", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[X4]" in out and "[T6]" in out
        assert (tmp_path / "BENCH_harness.json").exists()

    def test_cache_dir_warm_second_run(self, capsys, tmp_path):
        import json

        argv = ["experiment", "X4", "--quick",
                "--cache-dir", str(tmp_path / "cache"),
                "--bench", str(tmp_path / "bench.json")]
        assert main(argv) == 0
        assert all(p.name.startswith("results.sqlite") for p in (tmp_path / "cache").iterdir())
        assert (tmp_path / "cache" / "results.sqlite").exists()
        assert main(argv) == 0  # warm pass serves from the cache
        assert "[X4]" in capsys.readouterr().out
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert bench["totals"]["cache"]["experiment.hits"] == 1

    def test_no_cache_flag_writes_nothing(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(
            ["experiment", "X4", "--quick", "--no-cache",
             "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        assert not cache_dir.exists()

    def test_bench_flag_explicit_path(self, capsys, tmp_path):
        import json

        bench = tmp_path / "bench.json"
        code = main(
            ["experiment", "X4", "--quick", "--no-cache",
             "--bench", str(bench)]
        )
        assert code == 0
        payload = json.loads(bench.read_text())
        assert payload["schema"] == "bench-harness/1"
        assert payload["experiments"][0]["exp_id"] == "X4"


class TestJsonOutput:
    def test_mp_json(self, capsys):
        import json

        code = main(
            ["mp", "--wires", "30", "--procs", "4", "--iterations", "1",
             "--send-rmt", "2", "--send-loc", "5", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["paradigm"] == "message_passing"
        assert data["n_wires"] == 30
        assert "network" in data and len(data["nodes"]) == 4

    def test_sm_json_with_protocol(self, capsys):
        import json

        code = main(
            ["sm", "--wires", "30", "--procs", "4", "--iterations", "1",
             "--protocol", "update", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["protocol"] == "update"
        assert "coherence" in data


class TestDynamicCommand:
    def test_dynamic_run(self, capsys):
        code = main(["dynamic", "--wires", "30", "--procs", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamic (polled)" in out
        assert "mean task wait" in out

    def test_dynamic_interrupts(self, capsys):
        code = main(["dynamic", "--wires", "30", "--procs", "4", "--interrupts"])
        assert code == 0
        assert "dynamic (interrupt)" in capsys.readouterr().out


class TestPacketStructureOption:
    def test_full_region_encoding(self, capsys):
        code = main(
            ["mp", "--wires", "30", "--procs", "4", "--iterations", "1",
             "--send-rmt", "2", "--send-loc", "5",
             "--packet-structure", "full-region"]
        )
        assert code == 0
        assert "full-region" in capsys.readouterr().out


class TestErrorBoundary:
    def test_library_errors_become_clean_messages(self, capsys):
        code = main(["mp", "--wires", "30", "--blocking"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_experiment_clean_error(self, capsys):
        code = main(["experiment", "T99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "valid ids" in err and "T1" in err and "X5" in err
        assert "Traceback" not in err

    def test_unknown_id_mixed_with_valid_runs_nothing(self, capsys):
        code = main(["experiment", "X4", "NOPE", "--quick"])
        assert code == 2
        captured = capsys.readouterr()
        assert "NOPE" in captured.err
        assert "[X4]" not in captured.out  # rejected before any run

    def test_corrupt_circuit_file_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        code = main(["route", "--load", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_defaults(self, capsys):
        assert main(["profile", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "kernels: vectorized" in out
        assert "T3" in out and "share" in out
        assert "hot-path counters:" in out

    def test_profile_json(self, capsys):
        import json as json_mod

        assert main(["profile", "T6", "--quick", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["kernels"] == "vectorized"
        assert payload["passed"] == {"T6": True}
        assert payload["timing"]["phases"][0]["name"] == "T6"

    def test_profile_with_cprofile_table(self, capsys):
        assert main(["profile", "T6", "--quick", "--cprofile", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "--- cProfile T6" in out
        assert "function calls" in out

    def test_kernels_flag_selects_reference_mode(self, capsys):
        from repro.kernels import active_kernels, set_kernels

        try:
            assert main(["--kernels", "reference", "profile", "T6", "--quick"]) == 0
            assert "kernels: reference" in capsys.readouterr().out
            assert active_kernels() == "reference"
        finally:
            set_kernels("vectorized")

    def test_kernels_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--kernels", "turbo", "profile"])

    def test_unknown_experiment_clean_error(self, capsys):
        assert main(["profile", "T99", "--quick"]) == 2
        assert "error:" in capsys.readouterr().err


class TestProfileReadsTheRunRecord:
    """``profile`` takes each experiment's wall and CPU time from the
    record ``run_one_cached`` returns; it times nothing itself."""

    def test_timed_once(self):
        from repro import obs

        obs.reset()
        assert main(["profile", "T3", "T6", "--quick"]) == 0
        spans = obs.get_telemetry().spans
        assert spans["harness.experiment"]["calls"] == 2
        assert [name for name in spans if name.startswith("profile.")] == []

    def test_phases_follow_the_ids(self, capsys):
        import json

        assert main(["profile", "T6", "X4", "--quick", "--json"]) == 0
        timing = json.loads(capsys.readouterr().out)["timing"]
        phases = timing["phases"]
        assert [p["name"] for p in phases] == ["T6", "X4"]
        for p in phases:
            assert p["wall_s"] >= 0 and p["cpu_s"] >= 0
        assert timing["total_wall_s"] == pytest.approx(sum(p["wall_s"] for p in phases))

    def test_repeated_id_keeps_its_own_row(self, capsys):
        import json

        assert main(["profile", "T6", "X4", "T6", "--quick", "--json"]) == 0
        phases = json.loads(capsys.readouterr().out)["timing"]["phases"]
        assert [p["name"] for p in phases] == ["T6", "X4", "T6"]

    def test_table_row_per_id(self, capsys):
        assert main(["profile", "T6", "X4", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["phase", "wall", "cpu", "share", "peakRSS"]
        rows = [line.split() for line in lines[2:5]]
        assert [row[0] for row in rows] == ["T6", "X4", "total"]
        assert sum(float(row[3].rstrip("%")) for row in rows[:2]) == pytest.approx(100, abs=0.2)

    def test_peak_rss_per_id(self, capsys):
        import json

        assert main(["profile", "T6", "X4", "--quick", "--json"]) == 0
        phases = json.loads(capsys.readouterr().out)["timing"]["phases"]
        assert all(p["peak_rss_bytes"] > 0 for p in phases)
        assert main(["profile", "T6", "X4", "--quick"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:4]]
        assert [row[0] for row in rows] == ["T6", "X4"]
        assert all(row[4].endswith("MB") for row in rows)


class TestScaledCircuit:
    def test_circuit_scaled_name(self, capsys):
        assert main(["circuit", "--name", "scaled", "--wires", "500"]) == 0
        out = capsys.readouterr().out
        assert "scaled-500w" in out

    def test_scaled_rent_and_seed_flags(self, capsys):
        assert (
            main(
                [
                    "circuit",
                    "--name",
                    "scaled",
                    "--wires",
                    "500",
                    "--rent",
                    "0.75",
                    "--circuit-seed",
                    "42",
                    "--stats",
                ]
            )
            == 0
        )
        assert "p0.75" in capsys.readouterr().out

    def test_circuit_seed_zero_is_a_seed(self):
        from repro.cli import _get_circuit
        from repro.harness.cache import circuit_fingerprint

        def fingerprint(*extra):
            args = build_parser().parse_args(["route", "--name", "scaled", "--wires", "300", *extra])
            return circuit_fingerprint(_get_circuit(args))

        assert fingerprint("--circuit-seed", "0") != fingerprint()

    def test_route_scaled_circuit(self, capsys):
        assert (
            main(
                ["route", "--name", "s1", "--wires", "400", "--iterations", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "height" in out.lower()

    def test_profile_reports_memory(self, capsys):
        assert main(["profile", "--quick"]) == 0
        assert "peak rss" in capsys.readouterr().out

    def test_profile_json_includes_memory(self, capsys):
        import json as _json

        assert main(["profile", "T6", "--quick", "--json"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert payload["memory"]["peak_rss_bytes"] > 0
