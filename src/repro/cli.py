"""Command line interface.

Installed as ``locusroute`` (also ``python -m repro``).  Subcommands:

``circuit``
    Generate / inspect benchmark circuits and write them to disk.
``route``
    Run the sequential LocusRoute on a circuit and report quality.
``mp``
    Run the message passing simulation with a chosen update schedule.
``sm``
    Run the shared memory simulation with chosen cache line sizes.
``run``
    Run a *live* parallel router — real worker processes on real cores
    instead of the event-driven simulators (docs/PARALLEL.md).
``experiment``
    Run paper experiments (T1-T6, X1-X5, or ``all``) and print the
    paper-vs-measured tables.
``verify``
    Run the consistency verification sweep: every invariant checker
    plus the three-way differential oracle (see docs/VERIFICATION.md).
``profile``
    Time experiments one by one (wall/CPU from the harness's run record,
    peak RSS), dump the kernels' hot path counters, and optionally attach
    cProfile (docs/PERFORMANCE.md).
``serve``
    Run the routing service daemon: a JSON/HTTP job queue over the
    salvage process pool with a SQLite result repository
    (docs/SERVICE.md).
``jobs``
    Talk to a running daemon: submit jobs, poll status, fetch results,
    list the submission history.

The global ``--kernels {vectorized,reference}`` flag (before the
subcommand) selects the simulation kernel implementation process-wide;
both produce bit-identical results (see :mod:`repro.kernels`).

Examples
--------
::

    locusroute circuit --name bnrE --stats
    locusroute route --name bnrE --iterations 3
    locusroute mp --name bnrE --send-rmt 2 --send-loc 10 --procs 16
    locusroute sm --name bnrE --line-sizes 4 8 16 32
    locusroute run --live sm --procs 4 --quick
    locusroute run --live mp --procs 4 --send-rmt 1 --send-loc 1 --quick
    locusroute experiment T1 T6
    locusroute experiment all --quick --out results/
    locusroute verify --quick
    locusroute profile T3 --quick
    locusroute --kernels reference profile T3 T6 --quick --cprofile
    locusroute serve --port 8642 --jobs 4
    locusroute jobs submit route --wires 160 --iterations 2 --wait
    locusroute jobs submit experiment --exp-id T1 --quick --wait
    locusroute jobs list --timeline
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Dict, List, Optional

from . import __version__
from .circuits import (
    SCALED_SEED,
    bnre_like,
    compute_stats,
    generate_scaled,
    load_json,
    mdc_like,
    save_json,
    save_text,
)
from .errors import ReproError
from .faults import FaultPlan, random_crashes
from .harness.pool import default_jobs
from .harness.runner import BENCH_FILENAME, run_all, run_one_cached
from .harness.simjobs import SimConfig, run_params
from .kernels import KERNEL_MODES, set_kernels
from .parallel import run_dynamic_assignment, run_message_passing, run_shared_memory
from .route import SequentialRouter
from .updates import UpdateSchedule

__all__ = ["main", "build_parser"]


def _get_circuit(args: argparse.Namespace):
    """Resolve the circuit from --name or --load."""
    if getattr(args, "load", None):
        return load_json(args.load)
    name = args.name.lower()
    seed = getattr(args, "circuit_seed", None)
    if name in ("bnre", "bnre-like"):
        return bnre_like(seed=seed, n_wires=args.wires)
    if name in ("mdc", "mdc-like"):
        return mdc_like(seed=seed, n_wires=args.wires)
    if name in ("scaled", "s1"):
        return generate_scaled(
            args.wires if args.wires is not None else 10_000,
            rent_exponent=getattr(args, "rent", None) or 0.6,
            seed=SCALED_SEED if seed is None else seed,
        )
    raise SystemExit(f"unknown circuit name {args.name!r} (use bnrE, MDC, or scaled)")


#: Every flag that describes a run, declared once.  The run parameters
#: are the fields of SimConfig, UpdateSchedule and FaultPlan that carry
#: ``metadata`` (``repro.harness.simjobs.run_params``: default, help and
#: flag name live on the field, and ``field`` names it); the rest describe
#: the invocation.  Sub-commands list the names they take
#: (:func:`_run_flags`), with a default of their own only where theirs
#: differs.
_RUN_FLAGS: Dict[str, Dict[str, Any]] = {
    **run_params(SimConfig, UpdateSchedule, FaultPlan),
    "fault_crash": dict(
        type=int,
        default=0,
        metavar="N",
        help="fail-stop crash N processors mid-run (deterministic per "
        "--fault-seed; survivors detect the deaths and adopt the work)",
    ),
    "crash_at": dict(
        type=float,
        default=0.01,
        metavar="T",
        help="base virtual time (seconds) of the --fault-crash crashes; "
        "actual times spread deterministically over [T, 1.5*T]",
    ),
    "timeout": dict(type=float, metavar="SECONDS"),
    "jobs": dict(type=int, default=1),
    "cache_dir": dict(
        default=".locusroute_cache",
        help="result cache directory (entries in DIR/results.sqlite); the "
        "service's executions run through it (default: %(default)s)",
    ),
    "no_cache": dict(
        action="store_true", help="bypass the result cache (neither read nor write it)"
    ),
    "json": dict(action="store_true", help="print JSON instead of text"),
}


def _run_flags(parser: argparse.ArgumentParser, *names: str, **own: Any) -> None:
    """Add the named :data:`_RUN_FLAGS` to *parser*.

    ``own[name]`` is this sub-command's default for the flag — or a dict
    of ``add_argument`` keywords (its default *and* its help) where the
    flag means something of its own there.
    """
    for name in names:
        spec = {k: v for k, v in _RUN_FLAGS[name].items() if k != "field"}
        if name in own:
            spec.update(own[name] if isinstance(own[name], dict) else {"default": own[name]})
        parser.add_argument("--" + name.replace("_", "-"), **spec)


def _add_circuit_args(parser: argparse.ArgumentParser) -> None:
    _run_flags(
        parser, "name", "wires", name=dict(help="benchmark circuit (bnrE, MDC, or scaled)")
    )
    parser.add_argument("--load", help="load a circuit JSON file instead")
    parser.add_argument(
        "--rent",
        type=float,
        default=None,
        help="Rent exponent for --name scaled (default 0.6; lower = more local)",
    )
    parser.add_argument(
        "--circuit-seed",
        type=int,
        default=None,
        help="RNG seed for --name scaled (default: fixed S-series seed)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="locusroute",
        description="LocusRoute message passing vs shared memory reproduction "
        "(Martonosi & Gupta, ICPP 1989)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--kernels",
        choices=list(KERNEL_MODES),
        default=None,
        help="simulation kernel implementation (default: vectorized; both "
        "modes produce bit-identical results)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_circuit = sub.add_parser("circuit", help="generate / inspect circuits")
    _add_circuit_args(p_circuit)
    p_circuit.add_argument("--stats", action="store_true", help="print netlist statistics")
    p_circuit.add_argument("--save-json", help="write the circuit as JSON")
    p_circuit.add_argument("--save-text", help="write the circuit as text")

    p_route = sub.add_parser("route", help="sequential LocusRoute")
    _add_circuit_args(p_route)
    _run_flags(
        p_route,
        "iterations",
        "json",
        json=dict(help="print the JSON payload (same shape as a service route job)"),
    )

    p_mp = sub.add_parser("mp", help="message passing simulation")
    _add_circuit_args(p_mp)
    _run_flags(
        p_mp,
        "procs", "iterations", "send_loc", "send_rmt", "req_loc", "req_rmt",
        "blocking", "packet_structure", "interrupts", "check_invariants", "quick", "json",
        "fault_drop", "fault_duplicate", "fault_delay", "fault_reorder", "fault_crash",
        "crash_at", "fault_seed",
        quick=dict(
            help="CI-scale smoke run: 160-wire circuit, 2 iterations, and (when "
            "no schedule flags are given) the blocking receiver-initiated 1/5 "
            "schedule so fault flags exercise the recovery path"
        ),
    )

    p_dyn = sub.add_parser("dynamic", help="dynamic wire assignment (§4.2)")
    _add_circuit_args(p_dyn)
    _run_flags(p_dyn, "procs", "send_loc", "send_rmt", "interrupts", "json")

    p_sm = sub.add_parser("sm", help="shared memory simulation")
    _add_circuit_args(p_sm)
    _run_flags(p_sm, "procs", "iterations", "protocol", "check_invariants", "json")
    p_sm.add_argument(
        "--line-sizes",
        type=int,
        nargs="+",
        default=[_RUN_FLAGS["line_size"]["default"]],
        help="cache line sizes (bytes)",
    )

    p_run = sub.add_parser(
        "run", help="live parallel execution on real cores (docs/PARALLEL.md)"
    )
    _add_circuit_args(p_run)
    p_run.add_argument(
        "--live",
        choices=["sm", "mp"],
        required=True,
        help="which paradigm to run live: shared memory or message passing",
    )
    _run_flags(
        p_run,
        "procs", "iterations", "send_loc", "send_rmt", "req_rmt", "blocking",
        "timeout", "quick", "json",
        procs=dict(default=2, help="worker processes"),
        timeout=dict(default=120.0, help="abort the live run after this much wall time"),
    )
    p_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="wire-order shuffle seed for the shared-memory distributed loop "
        "(default: natural order)",
    )
    p_run.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: platform default, or "
        "the REPRO_MP_START_METHOD environment variable)",
    )

    p_exp = sub.add_parser("experiment", help="run paper experiments")
    p_exp.add_argument("ids", nargs="+", help="experiment ids (T1..T6, X1..X5, or 'all')")
    p_exp.add_argument("--out", help="directory for JSON results")
    _run_flags(
        p_exp,
        "quick", "jobs", "cache_dir", "no_cache", "timeout",
        jobs=dict(
            help="process-pool width (0 = one per CPU); many ids fan out per "
            "experiment, a single id fans out its sweep rows",
        ),
        timeout=dict(help="per-task timeout for parallel execution (retried once)"),
    )
    p_exp.add_argument(
        "--bench",
        metavar="PATH",
        help=f"write the {BENCH_FILENAME} telemetry record here "
        "(default: into --out when given)",
    )

    p_verify = sub.add_parser(
        "verify",
        help="invariant checkers + three-way differential oracle",
    )
    _add_circuit_args(p_verify)
    _run_flags(p_verify, "quick", "procs", "iterations", "json", procs=None, iterations=None)

    p_profile = sub.add_parser(
        "profile",
        help="per-experiment wall/CPU/peak RSS, hot-path counters, "
        "optional cProfile",
    )
    p_profile.add_argument(
        "ids", nargs="*", default=["T3"], help="experiment ids (default: T3)"
    )
    _run_flags(p_profile, "quick", "json")
    p_profile.add_argument(
        "--cprofile",
        action="store_true",
        help="attach cProfile and print the top functions per experiment "
        "(inflates Python-call-dense code; compare kernel modes by wall "
        "clock, not by profiler output)",
    )
    p_profile.add_argument(
        "--sort",
        default="cumulative",
        help="cProfile sort key (cumulative, tottime, calls, ...)",
    )
    p_profile.add_argument(
        "--top", type=int, default=20, help="cProfile rows to print"
    )

    p_serve = sub.add_parser(
        "serve",
        help="routing service daemon: HTTP job queue + SQLite repository "
        "(docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument(
        "--db",
        default=".locusroute_service.sqlite",
        help="SQLite repository file (default: %(default)s)",
    )
    _run_flags(
        p_serve,
        "jobs", "cache_dir", "no_cache", "timeout",
        jobs=dict(help="salvage-pool width for job execution (0 = one per CPU)"),
        timeout=dict(help="per-job pool timeout (retried once, then the job fails)"),
    )

    p_jobs = sub.add_parser(
        "jobs", help="client for a running routing service daemon"
    )
    p_jobs.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="service base URL (default: %(default)s)",
    )
    jsub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    j_submit = jsub.add_parser("submit", help="submit one job")
    j_submit.add_argument(
        "kind", choices=["route", "mp", "sm", "experiment"], help="job kind"
    )
    _run_flags(
        j_submit,
        "name", "wires", "iterations", "procs", "quick", "send_loc", "send_rmt",
        "req_loc", "req_rmt", "blocking", "line_size", "protocol", "timeout", "json",
        name=None,
        iterations=None,
        procs=None,
        line_size=None,
        protocol=None,
        timeout=dict(default=600.0, help="--wait poll budget (seconds)"),
    )
    j_submit.add_argument("--exp-id", default=None, help="experiment id (T1..)")
    j_submit.add_argument(
        "--force",
        action="store_true",
        help="execute even on a stored result (mp/sm/experiment jobs still "
        "read the daemon's result cache)",
    )
    j_submit.add_argument(
        "--wait", action="store_true", help="poll until done and print the result"
    )

    j_status = jsub.add_parser("status", help="one job's status record")
    j_status.add_argument("job_id")
    _run_flags(j_status, "json")

    j_result = jsub.add_parser("result", help="a finished job's payload")
    j_result.add_argument("job_id")

    j_list = jsub.add_parser("list", help="submission history")
    j_list.add_argument("--status", default=None, help="filter by status")
    j_list.add_argument("--limit", type=int, default=20)
    j_list.add_argument(
        "--timeline",
        action="store_true",
        help="render the latency/status timeline (repro.viz)",
    )
    _run_flags(j_list, "json")

    jsub.add_parser("stats", help="queue depth, counters, repository counts")

    return parser


def _cmd_circuit(args: argparse.Namespace) -> int:
    circuit = _get_circuit(args)
    print(circuit.describe())
    if args.stats:
        for key, value in compute_stats(circuit).as_dict().items():
            print(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")
    if args.save_json:
        save_json(circuit, args.save_json)
        print(f"wrote {args.save_json}")
    if args.save_text:
        save_text(circuit, args.save_text)
        print(f"wrote {args.save_text}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    circuit = _get_circuit(args)
    result = SequentialRouter(circuit, iterations=args.iterations).run()
    if args.json:
        from .service.jobs import route_payload

        print(json.dumps(route_payload(result), indent=1, sort_keys=True))
        return 0
    print(circuit.describe())
    print(f"circuit height:   {result.quality.circuit_height}")
    print(f"occupancy factor: {result.quality.occupancy_factor}")
    print(f"height by iteration: {result.per_iteration_height}")
    print(f"evaluation work:  {result.work_cells} candidate cells")
    return 0


def _verification_exit(result, args: argparse.Namespace) -> int:
    """Exit status for a run that may carry a verification report.

    A simulator run carries one under ``--check-invariants``, a live run
    always.  Without one (or when every check passed) the run exits 0;
    violations print to stderr (unless ``--json`` already carried them)
    and exit 1.
    """
    report = result.meta.get("verification_report")
    if report is None:
        return 0
    if report.ok:
        if not args.json:
            print(f"invariants: {report.total_checks} checks, 0 violations")
        return 0
    if not args.json:
        for violation in report.violations:
            print(f"VIOLATION {violation.describe()}", file=sys.stderr)
    return 1


def _build_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The FaultPlan implied by the --fault-* flags (None when fault-free).

    Out-of-range values (a negative probability or crash count) fail the
    plan's own validation.
    """
    crashes = ()
    if args.fault_crash != 0:
        crashes = random_crashes(args.procs, args.fault_crash, args.crash_at, args.fault_seed)
    plan = FaultPlan(
        **{row["field"]: getattr(args, flag) for flag, row in run_params(FaultPlan).items()},
        node_crashes=crashes,
    )
    return plan if plan.has_packet_faults or plan.node_crashes else None


def _get_quick_circuit(args: argparse.Namespace):
    """The circuit of an ``mp`` / ``run`` invocation, at ``--quick`` scale
    (160 wires, 2 iterations) where that flag is given and nothing more
    specific overrides it."""
    if args.quick:
        if args.wires is None and args.load is None:
            args.wires = 160
        if args.iterations == _RUN_FLAGS["iterations"]["default"]:
            args.iterations = 2
    return _get_circuit(args)


def _cmd_mp(args: argparse.Namespace) -> int:
    no_schedule_flags = all(
        v is None for v in (args.send_loc, args.send_rmt, args.req_loc, args.req_rmt)
    )
    circuit = _get_quick_circuit(args)
    if args.quick and no_schedule_flags:
        schedule = UpdateSchedule.receiver_initiated(1, 5, blocking=True)
    else:
        schedule = UpdateSchedule.from_flags(vars(args))
    faults = _build_fault_plan(args)
    result = run_message_passing(
        circuit,
        schedule,
        n_procs=args.procs,
        iterations=args.iterations,
        check_invariants=args.check_invariants,
        faults=faults,
    )
    if args.json:
        print(json.dumps(result.summary_dict(), indent=1))
        return _verification_exit(result, args)
    print(f"{circuit.describe()}")
    print(f"schedule: {schedule.describe()}  processors: {args.procs}")
    for key, value in result.table_row().items():
        print(f"  {key}: {value}")
    print(f"  messages: {result.network.n_messages}")
    print(f"  mean latency: {result.network.mean_latency_s * 1e6:.1f} us")
    if faults is not None:
        fmeta = result.meta["faults"]
        injected, recovery = fmeta["injected"], fmeta["recovery"]
        print(f"faults: {fmeta['plan']}")
        print(
            f"  injected: {injected['send_attempts']} attempts, "
            f"{injected['dropped']} dropped, {injected['duplicated']} duplicated, "
            f"{injected['delayed']} delayed, {injected['reordered']} reordered"
        )
        print(
            f"  recovery: {recovery['retries_sent']} retries, "
            f"{recovery['requests_abandoned']} abandoned, "
            f"{recovery['duplicate_responses_ignored']} duplicate responses ignored"
        )
        crash = fmeta.get("crash")
        if crash is not None:
            lats = [lat for _dead, lat in crash["recovery_latency_s"]]
            worst = f"{max(lats):.3f}s" if lats else "n/a"
            print(
                f"  crashes: {len(crash['planned'])} planned, "
                f"{len(crash['confirmed'])} confirmed dead "
                f"(procs {crash['confirmed']}), worst detection {worst}"
            )
            print(
                f"  re-ownership: {crash['regions_reassigned']} regions "
                f"reassigned, {crash['wires_adopted']} wires adopted, "
                f"{recovery['probes_sent']} probes, "
                f"{recovery['death_notices_received']} death notices"
            )
    return _verification_exit(result, args)


def _cmd_sm(args: argparse.Namespace) -> int:
    circuit = _get_circuit(args)
    primary, extra = args.line_sizes[0], args.line_sizes[1:]
    result = run_shared_memory(
        circuit,
        n_procs=args.procs,
        iterations=args.iterations,
        line_size=primary,
        extra_line_sizes=extra,
        protocol=args.protocol,
        check_invariants=args.check_invariants,
    )
    if args.json:
        print(json.dumps(result.summary_dict(), indent=1))
        return _verification_exit(result, args)
    print(f"{circuit.describe()}")
    print(f"processors: {args.procs}  (dynamic distributed loop)")
    for key, value in result.table_row().items():
        print(f"  {key}: {value}")
    for ls, stats in sorted(result.meta.get("coherence_by_line_size", {}).items()):
        print(
            f"  line {ls:2d}B: {stats['mbytes']:.3f} MB "
            f"(write-caused {stats['write_caused_fraction']:.0%})"
        )
    return _verification_exit(result, args)


def _cmd_run(args: argparse.Namespace) -> int:
    # The live twins pull in multiprocessing.shared_memory: only `run --live` pays for them.
    from .parallel.live import run_live_message_passing, run_live_shared_memory

    circuit = _get_quick_circuit(args)
    if args.live == "sm":
        result = run_live_shared_memory(
            circuit,
            n_procs=args.procs,
            iterations=args.iterations,
            seed=args.seed,
            start_method=args.start_method,
            timeout_s=args.timeout,
        )
    else:
        if all(v is None for v in (args.send_loc, args.send_rmt, args.req_rmt)):
            schedule = None  # library default: the SRD=1 SLD=1 push schedule
        else:
            schedule = UpdateSchedule.from_flags(vars(args))
        result = run_live_message_passing(
            circuit,
            schedule,
            n_procs=args.procs,
            iterations=args.iterations,
            start_method=args.start_method,
            timeout_s=args.timeout,
        )
    if args.json:
        print(json.dumps(result.summary_dict(), indent=1))
        return _verification_exit(result, args)
    print(f"{circuit.describe()}")
    print(
        f"live {result.paradigm}: {args.procs} processes "
        f"({result.meta['start_method']} start, {result.meta['kernel_mode']} kernels)"
    )
    for key, value in result.table_row().items():
        print(f"  {key}: {value}")
    print(f"  total wall: {result.meta['wall_s']:.3f}s (routing {result.exec_time_s:.3f}s)")
    if args.live == "mp":
        traffic = result.meta["traffic"]
        print(
            f"  traffic: {traffic['messages_sent']} packets, "
            f"{traffic['bytes_sent']} bytes, "
            f"{traffic['requests_sent']} requests "
            f"({traffic['requests_abandoned']} abandoned)"
        )
        print(f"  max node-view divergence: {result.meta['view_divergence_max']}")
    else:
        crash = result.meta.get("crash", {})
        if crash.get("confirmed"):
            print(
                f"  crashes: {len(crash['confirmed'])} confirmed, "
                f"{crash['requeued_wires']} wires requeued"
            )
    return _verification_exit(result, args)


def _cmd_dynamic(args: argparse.Namespace) -> int:
    circuit = _get_circuit(args)
    schedule = UpdateSchedule.from_flags(vars(args))
    result = run_dynamic_assignment(circuit, schedule, n_procs=args.procs)
    if args.json:
        print(json.dumps(result.summary_dict(), indent=1))
        return 0
    print(f"{circuit.describe()}")
    print(f"assignment: {result.meta['assignment']}  processors: {args.procs}")
    for key, value in result.table_row().items():
        print(f"  {key}: {value}")
    print(f"  mean task wait: {result.meta['mean_task_wait_s'] * 1e3:.2f} ms")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = None if [i.lower() for i in args.ids] == ["all"] else args.ids
    jobs = default_jobs() if args.jobs == 0 else args.jobs
    results = run_all(
        ids,
        quick=args.quick,
        out_dir=args.out,
        jobs=jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        timeout_s=args.timeout,
        bench_path=args.bench,
    )
    return 0 if all(r.passed for r in results) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    circuit = None
    if args.load or args.wires is not None or args.name.lower() not in ("bnre", "bnre-like"):
        circuit = _get_circuit(args)
    run = run_verification(
        quick=args.quick,
        circuit=circuit,
        n_procs=args.procs,
        iterations=args.iterations,
    )
    if args.json:
        print(json.dumps(run.as_dict(), indent=1))
    else:
        print(run.render())
    return 0 if run.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from .kernels import active_kernels
    from .obs import hot_counters, memory_snapshot, profile_call

    # Each experiment is timed by the record the harness already makes
    # (the one BENCH_harness.json holds); the peak RSS is read after it.
    phases = []
    profiles = {}
    passed = {}
    for exp_id in args.ids:
        run = partial(run_one_cached, exp_id, args.quick, None)
        if args.cprofile:
            (result, record), profiles[exp_id] = profile_call(
                run, sort=args.sort, top=args.top
            )
        else:
            result, record = run()
        passed[exp_id] = result.passed
        phases.append(
            {
                "name": exp_id,
                "wall_s": record["wall_s"],
                "cpu_s": record["cpu_s"],
                "peak_rss_bytes": memory_snapshot()["peak_rss_bytes"],
            }
        )
    total = sum(p["wall_s"] for p in phases)
    counters = hot_counters()
    memory = memory_snapshot()
    if args.json:
        print(
            json.dumps(
                {
                    "kernels": active_kernels(),
                    "quick": args.quick,
                    "timing": {"phases": phases, "total_wall_s": total},
                    "memory": memory,
                    "hot_counters": counters,
                    "passed": passed,
                },
                indent=1,
            )
        )
    else:
        print(f"kernels: {active_kernels()}  quick: {args.quick}")
        width = max(len("phase"), *(len(p["name"]) for p in phases))
        print(
            f"{'phase':<{width}}  {'wall':>9}  {'cpu':>9}  {'share':>6}  "
            f"{'peakRSS':>9}"
        )
        for p in phases:
            share = p["wall_s"] / total * 100.0 if total > 0 else 0.0
            print(
                f"{p['name']:<{width}}  {p['wall_s'] * 1e3:7.1f}ms  "
                f"{p['cpu_s'] * 1e3:7.1f}ms  {share:5.1f}%  "
                f"{p['peak_rss_bytes'] / 2**20:7.1f}MB"
            )
        print(f"{'total':<{width}}  {total * 1e3:7.1f}ms")
        print(
            f"memory: rss {memory['rss_bytes'] / 2**20:.1f}MB  "
            f"peak rss {memory['peak_rss_bytes'] / 2**20:.1f}MB"
        )
        if counters:
            print("hot-path counters:")
            for name, value in counters.items():
                print(f"  {name}: {value:.0f}")
        for exp_id, text in profiles.items():
            print(f"--- cProfile {exp_id} (sort={args.sort}) ---")
            print(text)
    return 0 if all(passed.values()) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    server = serve(
        host=args.host,
        port=args.port,
        db=args.db,
        cache_dir=None if args.no_cache else args.cache_dir,
        jobs=default_jobs() if args.jobs == 0 else args.jobs,
        timeout_s=args.timeout,
    )
    host, port = server.server_address[:2]
    print(f"routing service listening on http://{host}:{port}")
    print(f"repository: {server.service.repository.path}")
    cache = server.service.cache
    print(f"execution result cache: {cache.path if cache else 'disabled'}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.service.stop()
        server.service.repository.close()
    return 0


def _jobs_submit_params(args: argparse.Namespace) -> dict:
    """The params dict implied by the ``jobs submit`` flags (sparse: only
    flags the user set are sent; the service fills canonical defaults).

    A loop over the parameter names the service lists for the kind; a
    flag the kind does not take is not sent.  A parameter named after a
    field reads that field's flag.
    """
    from .service.jobs import PARAM_SCHEMA

    flag_of = {row["field"]: flag for flag, row in _RUN_FLAGS.items() if "field" in row}
    params = {}
    for name in PARAM_SCHEMA[args.kind]:
        value = getattr(args, flag_of.get(name, name))
        if value is not None and value is not False:
            params[name] = value
    return params


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.jobs_command == "submit":
        record = client.submit(
            args.kind, _jobs_submit_params(args), force=args.force
        )
        if args.wait and record["status"] not in ("done", "failed"):
            record = client.wait(record["job_id"], timeout_s=args.timeout)
        if record["status"] == "failed":
            full = client.status(record["job_id"])
            print(f"error: {full.get('error') or 'job failed'}", file=sys.stderr)
            return 1
        if args.wait:
            payload = client.result(record["job_id"])["payload"]
            print(json.dumps(payload, indent=1, sort_keys=True))
            return 0
        if args.json:
            print(json.dumps(record, indent=1))
        else:
            extra = f" (dedup of {record['dedup_of']})" if "dedup_of" in record else ""
            print(f"job {record['job_id']}: {record['status']}{extra}")
            print(f"fingerprint: {record['fingerprint']}")
        return 0
    if args.jobs_command == "status":
        record = client.status(args.job_id)
        if args.json:
            print(json.dumps(record, indent=1))
        else:
            for key in ("job_id", "kind", "status", "source", "dedup_of", "error"):
                if record.get(key) is not None:
                    print(f"  {key}: {record[key]}")
        return 0 if record["status"] != "failed" else 1
    if args.jobs_command == "result":
        print(json.dumps(client.result(args.job_id)["payload"], indent=1, sort_keys=True))
        return 0
    if args.jobs_command == "list":
        records = client.list_jobs(status=args.status, limit=args.limit)
        if args.json:
            print(json.dumps(records, indent=1))
            return 0
        if args.timeline:
            from .viz import ascii_job_timeline

            print(ascii_job_timeline(records))
            return 0
        from .harness.tables import render_table

        rows = [
            {
                "job": r["job_id"],
                "kind": r["kind"],
                "status": r["status"],
                "source": r.get("source", ""),
                "wall_s": (
                    round(r["finished_unix"] - r["started_unix"], 3)
                    if r.get("finished_unix") and r.get("started_unix")
                    else ""
                ),
                "fingerprint": r["fingerprint"][:12],
            }
            for r in records
        ]
        print(
            render_table(
                "jobs", ["job", "kind", "status", "source", "wall_s", "fingerprint"], rows
            )
        )
        return 0
    # stats
    print(json.dumps(client.stats(), indent=1))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (bad parameters, malformed files, protocol misuse)
    surface as one-line ``error:`` messages with exit code 2 instead of
    tracebacks.
    """
    args = build_parser().parse_args(argv)
    if args.kernels is not None:
        set_kernels(args.kernels)
    handlers = {
        "circuit": _cmd_circuit,
        "route": _cmd_route,
        "mp": _cmd_mp,
        "sm": _cmd_sm,
        "run": _cmd_run,
        "dynamic": _cmd_dynamic,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "jobs": _cmd_jobs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
