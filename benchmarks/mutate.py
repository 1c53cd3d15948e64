#!/usr/bin/env python
"""Mutation audit of the verification spine: which checks carry weight.

A *mutant* is one small edit to one target module:

- a flipped comparison (``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <->
  ``!=``, ``is`` <-> ``is not``, ``in`` <-> ``not in``);
- an integer constant moved by one (``n + 1`` and ``n - 1``);
- ``min`` <-> ``max`` (also ``minimum`` / ``maximum`` and ``argmin`` /
  ``argmax``, as a name or as an attribute);
- ``+=`` <-> ``-=``;
- a dropped call statement (the statement becomes ``pass``);
- swapped slice bounds (``a:b`` -> ``b:a``).

Every mutant runs on a throwaway copy of the tree, never on the checkout:
first against its target's mapped test files, fastest first, stopping at
the first failure, with a fixed hypothesis seed and a timeout that counts
as a kill; then, if every test passed, through ``locusroute verify
--quick``.  A mutant that survives both is a finding, and it gets one
verdict: *equivalent* (listed in :data:`EQUIVALENT` with the reason),
*missing check* (a test that kills it is added) or *dead code* (the code
is deleted).  The mutants fan out over ``pool_map_salvage``.

Usage::

    python benchmarks/mutate.py > matrix.md            # every mutant
    python benchmarks/mutate.py --sample 50 --seed 1   # a fixed-seed sample

The matrix (markdown) goes to stdout and progress to stderr.  The exit
status is 1 when a mutant not listed in :data:`EQUIVALENT` survives.  The
run writes nothing inside the checkout; its copies live in the system
temporary directory and are removed at the end.
"""

from __future__ import annotations

import argparse
import ast
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.harness.pool import pool_map_salvage  # noqa: E402

#: Every test run of every mutant draws the same hypothesis examples.
HYPOTHESIS_SEED = 0
#: A mutant's time budget is this many times its unmutated run, plus slack.
TIMEOUT_FACTOR = 3.0
TIMEOUT_SLACK_S = 30.0
VERIFY_CMD = ("-m", "repro", "verify", "--quick")


@dataclass(frozen=True)
class Target:
    """One module (or some of its names) and its test files."""

    label: str
    path: str  #: under ``src/repro``
    #: Top-level defs / assignments, or ``Class.method``; None: all.
    names: Optional[Tuple[str, ...]]
    tests: Tuple[str, ...]
    #: ``(path, names)`` of the same target in further modules.
    more: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()


_WAVEFRONT_TESTS = (
    "tests/test_route_wavefront_index.py",
    "tests/test_route_twobend_vectorized.py",
    "tests/test_route_wavefront.py",
    "tests/test_memsim_tango.py",
)

TARGETS: Tuple[Target, ...] = (
    Target(
        "memsim/columnar.py: line events and epochs", "memsim/columnar.py",
        ("MAX_PROCS", "_WRITE", "_CODE_BIT", "_ZERO", "_M1", "_popcount", "_cells_int32",
         "_LineEvents", "_line_events", "_first_of_runs", "_shift_in", "_prefix_or", "_Epochs",
         "_epochs", "ColumnarTrace.per_reference", "ColumnarTrace._events",
         "ColumnarTrace._begin"),
        (
            "tests/test_memsim_columnar.py",
            "tests/test_memsim_reference_level.py",
            "tests/test_memsim_tango.py",
            "tests/test_parallel_sm.py",
        ),
    ),
    Target(
        "memsim: the sharded replay", "memsim/columnar.py",
        ("SHARD_REFS", "_GRANULE_SHIFT", "_expand", "_cut", "_Pieces",
         "_partition", "ColumnarTrace.from_trace", "ColumnarTrace._shards",
         "ColumnarTrace.replay", "ColumnarTrace.replay_write_update"),
        ("tests/test_memsim_columnar.py", "tests/test_memsim_update_protocol.py"),
    ),
    Target(
        "route/wavefront.py: plan_waves", "route/wavefront.py",
        ("plan_waves", "_ordered_boxes", "_COARSE_SHIFT", "_COARSE", "_NARROW",
         "_MAX_GRID_CELLS"),
        _WAVEFRONT_TESTS,
    ),
    Target(
        "route/wavefront.py: lone-wire evaluator", "route/wavefront.py",
        ("WireTables", "wire_geometry", "_evaluate_single", "_segment_routes",
         "_build_path", "route_wire_fused", "_PAD"),
        _WAVEFRONT_TESTS,
    ),
    Target(
        "grid/delta.py", "grid/delta.py", None,
        (
            "tests/test_grid_delta.py",
            "tests/test_updates_packets.py",
            "tests/test_parallel_node_unit.py",
            "tests/test_parallel_mp_identity.py",
        ),
    ),
    Target(
        "parallel/ledger.py", "parallel/ledger.py", None,
        (
            "tests/test_parallel_ledger.py",
            "tests/test_parallel_mp.py",
            "tests/test_crash_recovery.py",
        ),
    ),
    Target(
        "updates/packets.py", "updates/packets.py", None,
        (
            "tests/test_updates_packets.py",
            "tests/test_updates_structures.py",
            "tests/test_parallel_node_unit.py",
            "tests/test_parallel_mp_identity.py",
        ),
    ),
    Target(
        "netsim/wormhole.py", "netsim/wormhole.py", None,
        (
            "tests/test_netsim.py",
            "tests/test_netsim_reservation.py",
            "tests/test_faults.py",
            "tests/test_parallel_mp_identity.py",
        ),
    ),
    Target("events/queue.py", "events/queue.py", None, ("tests/test_events.py",)),
    Target(
        "verify/invariants.py", "verify/invariants.py", None,
        (
            "tests/test_verify_invariants.py",
            "tests/test_verify_oracle.py",
            "tests/test_crash_recovery.py",
        ),
    ),
    Target(
        "parallel/sm_sim.py: SM step", "parallel/sm_sim.py", ("sm_step", "_SimServices"),
        (
            "tests/test_parallel_sm.py",
            "tests/test_crash_recovery.py",
            "tests/test_memsim_tango.py",
            "tests/test_benchmark_seams.py",
        ),
    ),
    Target(
        "harness/cache.py: fingerprints", "harness/cache.py",
        ("_TAGGED_KEY", "_jsonify_key", "jsonify", "stable_hash", "circuit_fingerprint"),
        (
            "tests/test_harness_cache.py",
            "tests/test_circuits_columns.py",
            "tests/test_determinism.py",
        ),
    ),
    Target(
        "harness/cache.py: result store", "harness/cache.py",
        ("open_sqlite", "_CACHE_SQL", "_UNREADABLE", "_experiment_payload",
         "_sim_result", "_OPEN", "_INHERITED", "_after_fork_in_child", "ResultCache"),
        (
            "tests/test_harness_cache.py",
            "tests/test_service_repository.py",
            "tests/test_cli.py",
        ),
    ),
    Target(
        "service/wire.py", "service/wire.py", None,
        ("tests/test_service_wire.py", "tests/test_service_daemon.py"),
    ),
    Target(
        "service: job keys and the stored-result reader", "service/jobs.py",
        ("job_fingerprint", "job_key", "KEY_CACHE_SIZE", "_job_key"),
        (
            "tests/test_harness_cache.py",
            "tests/test_service_repository.py",
            "tests/test_service_daemon.py",
        ),
        more=(
            (
                "service/repository.py",
                ("_RESULT_FIELDS", "_JSON_COLUMNS", "_dumps", "_stored",
                 "Repository._read", "Repository.get_result", "Repository.job_result"),
            ),
        ),
    ),
    Target(
        "harness: the named-circuit memo", "harness/simjobs.py",
        ("CIRCUIT_CACHE_WIRES", "_SIZES", "_CircuitMemo", "_build", "_MEMO",
         "_after_fork_in_child", "named_circuit"),
        ("tests/test_harness_circuits.py", "tests/test_harness_cache.py"),
    ),
)

#: Surviving mutants that cannot change any observable result, keyed by
#: :attr:`Mutant.key`, with the reason.  A survivor missing here fails
#: the run.
EQUIVALENT: Dict[str, str] = {
    'harness/cache.py:open_sqlite:cmp: if "locked" not in str(exc) or '
    'time.monotonic() >= deadline: [>= -> >]':
        "the retry deadline is a wall-clock instant: reaching it exactly "
        "or one tick later gives up the same way",
    "harness/cache.py:open_sqlite:dropcall: time.sleep(0.01) [dropped]":
        "the pause only spaces the retries; without it the loop retries "
        "sooner and ends at the same deadline",
    "service/jobs.py:KEY_CACHE_SIZE:const: KEY_CACHE_SIZE = 4096 [4096 -> 4097]":
        "the bound of a memo: a key computed again is the same key",
    "service/jobs.py:KEY_CACHE_SIZE:const: KEY_CACHE_SIZE = 4096 [4096 -> 4095]":
        "the bound of a memo: a key computed again is the same key",
    "harness/simjobs.py:CIRCUIT_CACHE_WIRES:const: CIRCUIT_CACHE_WIRES = 16_384 [16384 -> 16385]":
        "the bound of a memo: a circuit built again is the same circuit",
    "harness/simjobs.py:CIRCUIT_CACHE_WIRES:const: CIRCUIT_CACHE_WIRES = 16_384 [16384 -> 16383]":
        "the bound of a memo: a circuit built again is the same circuit",
    "service/repository.py:Repository.get_result:const: return "
    "_stored(rows[0] if rows else None, text=False) [0 -> -1]":
        "fingerprint is the results table's primary key: at most one row",
    "service/repository.py:Repository.job_result:const: row = rows[0] [0 -> -1]":
        "job_id is the jobs table's primary key and the join is on the "
        "results table's: at most one row",
    "memsim/columnar.py:SHARD_REFS:const: SHARD_REFS = 1 << 17 [17 -> 16]":
        "the shard bound: smaller shards sum to the same statistics, and a "
        "replay's memory only shrinks",
    "memsim/columnar.py:_partition:const: return _Pieces(*[np.zeros(0, dtype=np.int32)] * 5) [0 -> 1]":
        "an empty trace's shard table: with one edge or none it has no "
        "shard, and its replay reads nothing",
    "memsim/columnar.py:_partition:cmp: "
    "if int(counts.sum()) <= SHARD_REFS:  # one shard: a piece per burst [<= -> <]":
        "a trace of exactly SHARD_REFS references is one shard either way: "
        "the greedy cut takes every granule and cuts no slice",
    "memsim/columnar.py:ColumnarTrace.from_trace:const: "
    "n_procs_used=int(procs.max()) + 1 if procs.size else 0, [0 -> 1]":
        "an empty trace references no processor; a replay needs at least "
        "one, so 0 and 1 reject the same counts",
    "memsim/columnar.py:ColumnarTrace.from_trace:const: "
    "n_procs_used=int(procs.max()) + 1 if procs.size else 0, [0 -> -1]":
        "an empty trace references no processor; a replay needs at least "
        "one, so 0 and -1 reject the same counts",
    "memsim/columnar.py:ColumnarTrace._shards:cmp: "
    "if b - a > 1:  # merged shards: back to global order [> -> >=]":
        "one shard's pieces are already in (record, pool position) order: "
        "sorting them again is the identity",
    "memsim/columnar.py:ColumnarTrace._shards:const: "
    "if b - a > 1:  # merged shards: back to global order [1 -> 0]":
        "one shard's pieces are already in (record, pool position) order: "
        "sorting them again is the identity",
    **{
        "route/wavefront.py:plan_waves:cmp: if w > max_wave: [> -> >=]"
        + ("" if n == 1 else f" #{n}"):
        "max_wave is a running maximum: where w equals it, assigning w "
        "leaves it as it was"
        for n in range(1, 8)
    },
}


# ----------------------------------------------------------------------
# making mutants
# ----------------------------------------------------------------------
_CMP_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_CMP_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in",
}
_MINMAX = {
    "min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum",
    "argmin": "argmax", "argmax": "argmin",
}


@dataclass(frozen=True)
class Mutant:
    """One edit: bytes ``start:end`` of the module become *text*."""

    target: str
    path: str
    key: str  #: ``path:scope:op: line [change]``, stable under line moves
    line: int
    start: int
    end: int
    text: str

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.text.encode() + source[self.end :]


def _edits(node: ast.AST) -> Iterator[Tuple[str, ast.AST, str, str]]:
    """``(op, node to replace, replacement text, change)`` for one node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            flip = _CMP_FLIP.get(type(op))
            if flip is None:
                continue
            ops = list(node.ops)
            ops[i] = flip()
            new = ast.Compare(left=node.left, ops=ops, comparators=node.comparators)
            yield "cmp", node, ast.unparse(new), f"{_CMP_TEXT[type(op)]} -> {_CMP_TEXT[flip]}"
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta in (1, -1):
            yield "const", node, str(node.value + delta), f"{node.value} -> {node.value + delta}"
    elif isinstance(node, ast.Name) and node.id in _MINMAX:
        yield "minmax", node, _MINMAX[node.id], f"{node.id} -> {_MINMAX[node.id]}"
    elif isinstance(node, ast.Attribute) and node.attr in _MINMAX:
        new = ast.Attribute(value=node.value, attr=_MINMAX[node.attr], ctx=node.ctx)
        yield "minmax", node, ast.unparse(new), f".{node.attr} -> .{_MINMAX[node.attr]}"
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        flip = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
        new = ast.AugAssign(target=node.target, op=flip, value=node.value)
        change = "+= -> -=" if isinstance(node.op, ast.Add) else "-= -> +="
        yield "augassign", node, ast.unparse(new), change
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        yield "dropcall", node, "pass", "dropped"
    elif isinstance(node, ast.Slice) and node.lower is not None and node.upper is not None:
        step = "" if node.step is None else f":{ast.unparse(node.step)}"
        text = f"{ast.unparse(node.upper)}:{ast.unparse(node.lower)}{step}"
        yield "slice", node, text, "bounds swapped"


def _scoped(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """``(top-level name, scope, node)`` of every node worth mutating.

    Docstrings, f-strings and ``raise`` statements (error messages) are
    skipped, as is ``__all__``.
    """

    def walk(node: ast.AST, top: str, scope: str) -> Iterator[Tuple[str, str, ast.AST]]:
        if isinstance(node, (ast.JoinedStr, ast.Raise)):
            return
        yield top, scope, node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, top, f"{scope}.{child.name}")
            else:
                yield from walk(child, top, scope)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from walk(stmt, stmt.name, stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names and names[0] != "__all__":
                yield from walk(stmt, names[0], names[0])


def make_mutants(target: Target) -> List[Mutant]:
    """Every mutant of *target*, module by module in source order."""
    parts = ((target.path, target.names), *target.more)
    return [m for path, names in parts for m in _module_mutants(target.label, path, names)]


def _module_mutants(
    label: str, path: str, names: Optional[Tuple[str, ...]]
) -> List[Mutant]:
    """Every mutant of *names* (None: all) in one module, in source order."""
    source = (ROOT / "src" / "repro" / path).read_bytes()
    tree = ast.parse(source)
    baseline = ast.dump(tree)
    lines = source.split(b"\n")
    line_at = [0]
    for raw in lines:
        line_at.append(line_at[-1] + len(raw) + 1)
    mutants: List[Mutant] = []
    seen: Counter = Counter()
    for _top, scope, node in _scoped(tree):
        if names is not None and not any(
            scope == name or scope.startswith(name + ".") for name in names
        ):
            continue
        for op, where, text, change in _edits(node):
            start = line_at[where.lineno - 1] + where.col_offset
            end = line_at[where.end_lineno - 1] + where.end_col_offset
            mutated = source[:start] + text.encode() + source[end:]
            try:
                if ast.dump(ast.parse(mutated)) == baseline:
                    continue
            except SyntaxError:
                continue
            code = lines[where.lineno - 1].decode().strip()
            key = f"{path}:{scope}:{op}: {code} [{change}]"
            seen[key] += 1
            if seen[key] > 1:
                key += f" #{seen[key]}"
            mutants.append(
                Mutant(label, path, key, where.lineno, start, end, text)
            )
    return mutants


def sample(mutants: Sequence[Mutant], n: int, seed: int) -> List[Mutant]:
    """*n* mutants drawn round-robin across the targets, shuffled by *seed*."""
    rng = random.Random(seed)
    queues: Dict[str, List[Mutant]] = defaultdict(list)
    for m in mutants:
        queues[m.target].append(m)
    for queue in queues.values():
        rng.shuffle(queue)
    picked: List[Mutant] = []
    while len(picked) < n and any(queues.values()):
        for target in TARGETS:
            queue = queues[target.label]
            if queue and len(picked) < n:
                picked.append(queue.pop())
    return picked


# ----------------------------------------------------------------------
# running them
# ----------------------------------------------------------------------
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info",
    ".benchmarks", "build", "dist", ".locusroute_cache", ".work",
)


def _tree(base: str) -> Path:
    """This process's private copy of the checkout under *base*, made once.

    Sources are precompiled with hash-checked bytecode and the runs write
    none, so a restored module never runs a mutant's stale bytecode.
    """
    tree = Path(base) / f"tree-{os.getpid()}"
    if not tree.exists():
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "--invalidation-mode",
             "checked-hash", "src", "tests"],
            cwd=tree, check=True, stdout=subprocess.DEVNULL,
        )
    return tree


def _run(tree: Path, args: Sequence[str], timeout_s: float) -> Tuple[Optional[int], str, float]:
    """``(exit status or None on timeout, output, seconds)`` of one run in *tree*."""
    env = dict(
        os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "", time.perf_counter() - t0
    return proc.returncode, out, time.perf_counter() - t0


_FAILED = re.compile(r"^(?:FAILED|ERROR) (tests/[\w/]+\.py)(?:::(\S+))?", re.M)


def _pytest_args(files: Sequence[str]) -> List[str]:
    return ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *files]


def _task(item: Tuple[str, str, object]) -> Dict[str, object]:
    """One pool task: a baseline run (``"base"``) or a mutant (``"mutant"``)."""
    base, kind, payload = item
    tree = _tree(base)
    if kind == "base":
        args = list(VERIFY_CMD) if payload == "verify" else _pytest_args([payload])
        code, out, seconds = _run(tree, args, 1800.0)
        print(f"baseline {payload}: {seconds:.1f} s", file=sys.stderr, flush=True)
        return {"name": payload, "ok": code == 0, "seconds": seconds, "output": out[-2000:]}

    mutant, files, test_timeout_s, verify_timeout_s = payload
    module = tree / "src" / "repro" / mutant.path
    original = module.read_bytes()
    module.write_bytes(mutant.apply(original))
    try:
        code, out, seconds = _run(tree, _pytest_args(files), test_timeout_s)
        if code is None:
            killer, test = "timeout", ""
        elif code != 0:
            found = _FAILED.search(out)
            killer = found.group(1) if found else f"pytest exit {code}"
            test = (found.group(2) or "") if found else ""
        else:
            code, _, more = _run(tree, VERIFY_CMD, verify_timeout_s)
            seconds += more
            killer = "survived" if code == 0 else ("timeout" if code is None else "verify")
            test = ""
    finally:
        module.write_bytes(original)
    print(f"{killer:>36}  {mutant.key}", file=sys.stderr, flush=True)
    return {"key": mutant.key, "killer": killer, "test": test, "seconds": seconds}


def run(mutants: Sequence[Mutant], jobs: int) -> Tuple[List[Dict[str, object]], float]:
    """Run *mutants*; returns one record per mutant and the wall clock."""
    t0 = time.perf_counter()
    used = [t for t in TARGETS if any(m.target == t.label for m in mutants)]
    files = sorted({f for t in used for f in t.tests})
    base = tempfile.mkdtemp(prefix="mutate-")
    try:
        report = pool_map_salvage(
            _task, [(base, "base", name) for name in [*files, "verify"]], jobs=jobs
        )
        seconds: Dict[str, float] = {}
        for rec in report.results:
            if rec is None or not rec["ok"]:
                raise SystemExit(f"the unmutated tree fails: {rec}")
            seconds[rec["name"]] = rec["seconds"]
        plans = {}
        for t in used:
            ordered = sorted(t.tests, key=seconds.__getitem__)
            budget = TIMEOUT_FACTOR * sum(seconds[f] for f in ordered) + TIMEOUT_SLACK_S
            plans[t.label] = (ordered, budget)
        verify_budget = TIMEOUT_FACTOR * seconds["verify"] + TIMEOUT_SLACK_S
        tasks = [(base, "mutant", (m, *plans[m.target], verify_budget)) for m in mutants]
        report = pool_map_salvage(_task, tasks, jobs=jobs)
        records = [
            rec or {"key": m.key, "killer": "task failed", "test": "", "seconds": 0.0}
            for m, rec in zip(mutants, report.results)
        ]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return records, time.perf_counter() - t0


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def _short(killer: str) -> str:
    return killer[len("tests/"):-len(".py")] if killer.startswith("tests/") else killer


def matrix(
    mutants: Sequence[Mutant], records: Sequence[Dict[str, object]], wall_s: float,
    jobs: int, title: str,
) -> Tuple[str, List[Mutant]]:
    """The markdown matrix, and the survivors not listed as equivalent."""
    killer = {r["key"]: str(r["killer"]) for r in records}
    test = {r["key"]: str(r["test"]) for r in records}
    survived = [m for m in mutants if killer[m.key] == "survived"]
    equivalent = {m.key for m in survived if m.key in EQUIVALENT}
    unexplained = [m for m in survived if m.key not in EQUIVALENT]
    out = [
        f"### {title}",
        "",
        f"{len(mutants)} mutants, wall clock {wall_s / 60:.1f} min with {jobs} "
        f"workers on {os.cpu_count()} CPUs ({platform.machine()}, Python "
        f"{platform.python_version()}), hypothesis seed {HYPOTHESIS_SEED}.  "
        "Kill rate = killed / (mutants - equivalent).",
        "",
        "| target | mutants | killed | equivalent | surviving | kill rate | killed by |",
        "|---|---:|---:|---:|---:|---:|---|",
    ]
    for t in TARGETS:
        mine = [m for m in mutants if m.target == t.label]
        if not mine:
            continue
        n_survived = sum(1 for m in mine if killer[m.key] == "survived")
        n_equivalent = sum(1 for m in mine if m.key in equivalent)
        killed = len(mine) - n_survived
        live = len(mine) - n_equivalent
        rate = f"{100 * killed / live:.0f}%" if live else "-"
        by = Counter(killer[m.key] for m in mine if killer[m.key] != "survived")
        out.append(
            f"| `{t.label}` | {len(mine)} | {killed} | {n_equivalent} | "
            f"{n_survived - n_equivalent} | {rate} | "
            + ", ".join(f"{_short(k)} {n}" for k, n in by.most_common()) + " |"
        )
    live = len(mutants) - len(equivalent)
    if live:
        killed = len(mutants) - len(survived)
        out += ["", f"Overall {killed} of {live} non-equivalent mutants killed "
                f"({100 * killed / live:.1f}%)."]
    if survived:
        out += ["", "Survivors:", "", "| line | mutant | verdict |", "|---:|---|---|"]
        for m in survived:
            verdict = f"equivalent: {EQUIVALENT[m.key]}" if m.key in EQUIVALENT else "**unexplained**"
            out.append(f"| {m.line} | `{m.key}` | {verdict} |")
    out += [
        "",
        "<details><summary>Every mutant and what killed it</summary>",
        "",
        "| line | mutant | killed by |",
        "|---:|---|---|",
    ]
    for m in mutants:
        where = f" `{test[m.key]}`" if test[m.key] else ""
        out.append(f"| {m.line} | `{m.key}` | {_short(killer[m.key])}{where} |")
    out += ["", "</details>"]
    return "\n".join(out) + "\n", unexplained


def all_mutants() -> List[Mutant]:
    return [m for t in TARGETS for m in make_mutants(t)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, default=None, metavar="N",
                        help="run N mutants drawn across the targets (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the --sample draw")
    args = parser.parse_args(argv)
    mutants = all_mutants()
    if args.sample is not None:
        mutants = sample(mutants, args.sample, args.seed)
        title = f"Mutation sample ({args.sample} mutants, seed {args.seed})"
    else:
        for key in sorted(set(EQUIVALENT) - {m.key for m in mutants}):
            print(f"warning: EQUIVALENT names no mutant: {key}", file=sys.stderr)
        title = "Mutation matrix"
    jobs = max(1, min(os.cpu_count() or 1, 4))
    print(f"{len(mutants)} mutants, {jobs} workers", file=sys.stderr, flush=True)
    records, wall_s = run(mutants, jobs)
    text, unexplained = matrix(mutants, records, wall_s, jobs, title)
    sys.stdout.write(text)
    for m in unexplained:
        print(f"unexplained survivor: {m.key}", file=sys.stderr)
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
