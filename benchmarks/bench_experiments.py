"""Every registered experiment at full benchmark scale, one bench per id.

Each bench regenerates one paper artefact (``-k T4`` picks one), prints
the paper-vs-measured table (bypassing pytest capture so it lands in the
console / tee'd log), asserts the experiment's shape checks, and reports
its wall time through pytest-benchmark; see EXPERIMENTS.md for the
recorded rows.
"""

from __future__ import annotations

import pytest

from repro.harness import EXPERIMENTS, run_experiment


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_experiment(benchmark, capsys, exp_id):
    """Reproduce one experiment and verify its qualitative claims."""
    result = benchmark.pedantic(
        lambda: run_experiment(exp_id, quick=False), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(result.render())
    failing = [name for name, ok in result.checks.items() if not ok]
    assert not failing, f"{exp_id} failed shape checks: {failing}"
