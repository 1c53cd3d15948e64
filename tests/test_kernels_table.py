"""The ``repro.kernels`` ledger of kernel pairs, held to the code it names.

The module docstring's table is the one place that says which hot paths
have a reference engine beside a vectorized one.  A row whose module or
attribute has been renamed or deleted fails here, and ``locusroute
verify``'s kernel equivalence is held to one check per replayable pair.
"""

from __future__ import annotations

import importlib
import re

import repro.kernels
from repro.circuits import tiny_test_circuit
from repro.verify.kernels import run_kernel_equivalence

TABLE_RULE = re.compile(r"^=+(  =+)+$", flags=re.MULTILINE)


def table_rows():
    doc = repro.kernels.__doc__
    rules = [m.start() for m in TABLE_RULE.finditer(doc)]
    assert len(rules) == 3, "expected a header rule, a body rule and a closing rule"
    body = doc[rules[1] : rules[2]].splitlines()[1:]
    return [row for row in body if row.strip()]


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


def test_table_lists_seven_pairs():
    assert len(table_rows()) == 7


def test_verify_runs_one_check_per_replayable_pair():
    checks = run_kernel_equivalence(tiny_test_circuit(n_wires=24), n_procs=4)
    assert sorted(checks) == [
        "coherence", "event_queue", "twobend", "wavefront", "write_update",
    ]
    assert all(check["identical"] for check in checks.values()), checks
