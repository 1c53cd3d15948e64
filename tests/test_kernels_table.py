"""The ``repro.kernels`` ledger of kernel pairs, held to the code it names.

The module docstring's table is the one place that says which hot paths
have a reference engine beside a vectorized one.  A row whose module or
attribute has been renamed or deleted fails here, ``locusroute verify``'s
kernel equivalence is held to the checks the table names, and a module
that forks on the kernel mode without a row — a new "kernel" nobody
declared an oracle for — fails too.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import repro.kernels
from repro.circuits import tiny_test_circuit
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
    checks = run_kernel_equivalence(tiny_test_circuit(n_wires=24), n_procs=4)
    assert sorted(checks) == sorted(named)
    assert all(check["identical"] for check in checks.values()), checks


def test_every_fork_on_the_kernel_mode_has_a_row():
    forking = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if MODE_FORK.search(path.read_text())
    }
    declared = {cell.strip("`") for cell in table_column("selected in")}
    assert forking == declared
