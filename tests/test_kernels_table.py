"""The ``repro.kernels`` ledger of kernel pairs, held to the code it names.

The module docstring's table is the one place that says which hot paths
have a reference engine beside a vectorized one.  A row whose module or
attribute has been renamed or deleted fails here, ``locusroute verify``'s
kernel equivalence is held to the checks the table names (and a diverging
fused router fails its check), and a module
that forks on the kernel mode without a row — a new "kernel" nobody
declared an oracle for — fails too.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import repro.kernels
from repro.circuits import tiny_test_circuit
from repro.cli import main
from repro.route import wavefront
from repro.route.segments import WireRoute
from repro.verify.kernels import run_kernel_equivalence

TABLE_RULE = re.compile(r"^=+(  =+)+$", flags=re.MULTILINE)
#: A comparison of the mode, as opposed to forwarding it to a worker.
MODE_FORK = re.compile(r"active_kernels\(\)\s*[!=]=")
SRC = Path(repro.kernels.__file__).parent


def table_rows():
    doc = repro.kernels.__doc__
    rules = [m.start() for m in TABLE_RULE.finditer(doc)]
    assert len(rules) == 3, "expected a header rule, a body rule and a closing rule"
    body = doc[rules[1] : rules[2]].splitlines()[1:]
    return [row for row in body if row.strip()]


def table_column(name: str):
    """The cells of column *name*, one per row (cells are 2+ spaces apart)."""
    doc = repro.kernels.__doc__
    header = doc[TABLE_RULE.search(doc).end() :].splitlines()[1]
    index = re.split(r"\s{2,}", header.strip()).index(name)
    return [re.split(r"\s{2,}", row.strip())[index] for row in table_rows()]


def resolve(dotted: str):
    """``pkg.mod.Class.attr`` under ``repro``: longest module, then getattr."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module("repro." + ".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(f"no module under repro for {dotted!r}")


def test_every_dotted_name_in_the_table_imports():
    names = re.findall(r"``([\w.]+\.[\w.]+)``", "\n".join(table_rows()))
    assert len(names) >= 10
    for dotted in names:
        assert resolve(dotted) is not None, dotted


def test_verify_runs_one_check_per_replayable_pair():
    named = [cell.strip("`") for cell in table_column("verify check") if "`" in cell]
    assert 0 < len(named) <= len(table_rows())
    report = run_kernel_equivalence(tiny_test_circuit(n_wires=24), n_procs=4)
    assert report.checks_run == {name: 1 for name in named}
    assert report.ok, report.render()


def test_a_moved_bend_column_fails_verify(monkeypatch, capsys):
    """The fused router moving one bend column is a ``kernel-twobend`` violation."""
    moved = []

    def fused_with_one_bend_moved(cost, wire, tie_break=0):
        tables, w = wavefront.wire_geometry(wire, cost.n_grids)
        row = tables.layout[w].tolist()
        first, n_seg, work_cells = row[12:]
        segs = tables.segs[first : first + n_seg].tolist()
        xvs = wavefront._evaluate_single(cost, tables, row, tie_break)[0].tolist()
        bends = [(x1, x2) for c1, x1, c2, x2, *_ in segs if c1 != c2]
        if not moved and bends and bends[0][0] < bends[0][1]:
            x1, x2 = bends[0]
            xvs[0] = x2 if xvs[0] == x1 else x1
            moved.append(wire)
        path = wavefront._build_path(tables, segs, xvs)
        return WireRoute(path, cost.path_cost(path.flat_cells), work_cells, ())

    monkeypatch.setattr(wavefront, "route_wire_fused", fused_with_one_bend_moved)
    assert main(["verify", "--quick", "--json"]) == 1
    assert moved
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    failed = {v["invariant"] for v in payload["violations"]}
    assert failed == {"kernel-twobend"}, payload["violations"]


def test_every_fork_on_the_kernel_mode_has_a_row():
    forking = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if MODE_FORK.search(path.read_text())
    }
    declared = {cell.strip("`") for cell in table_column("selected in")}
    assert forking == declared
