"""Golden regression fixtures for the quick-mode harness tables.

``tests/golden/`` holds the full quick-mode output (title, columns,
rows, shape checks, notes) of every deterministic experiment — all of
the registry except X7, whose rows are wall clock.  Everything the
simulators produce is deterministic — fixed circuit seeds, virtual time
— so any diff against these fixtures is a behaviour change, not noise.
``columns`` pins each table's row-key order, which the drivers derive
from their rows.

After an *intentional* change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --regen-golden

then review the fixture diff like any other code change
(see docs/VERIFICATION.md).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENTS, ExperimentResult, run_experiment
from repro.harness.report import HOST_DEPENDENT
from repro.harness.runner import payload_to_result, result_to_payload

GOLDEN_DIR = Path(__file__).parent / "golden"
EXP_IDS = sorted(set(EXPERIMENTS) - HOST_DEPENDENT)

#: Relative tolerance for float comparisons.  Simulated times are exact
#: in principle, but summing float work terms is sensitive to operation
#: order, which legitimate refactors may change.
FLOAT_RTOL = 1e-6


def golden_path(exp_id: str) -> Path:
    return GOLDEN_DIR / f"{exp_id.lower()}.json"


@lru_cache(maxsize=None)
def quick_result(exp_id: str) -> ExperimentResult:
    return run_experiment(exp_id, quick=True)


def build_payload(exp_id: str) -> dict:
    """The stored form of the table (what a cache or service hit returns)."""
    payload = result_to_payload(quick_result(exp_id))
    del payload["extras"]
    return payload


def assert_matches(actual, expected, where: str) -> None:
    """Exact for ints/strings/bools/None; tolerant for floats."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=FLOAT_RTOL), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {type(actual)} != dict"
        assert sorted(actual) == sorted(expected), (
            f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{where}: {type(actual)} != list"
        assert len(actual) == len(expected), (
            f"{where}: length {len(actual)} != {len(expected)}"
        )
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("exp_id", EXP_IDS)
def test_quick_table_matches_golden(exp_id, regen_golden):
    path = golden_path(exp_id)
    payload = build_payload(exp_id)
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with --regen-golden"
    )
    expected = json.loads(path.read_text())
    assert_matches(payload, expected, exp_id)


def test_golden_fixtures_checked_in():
    present = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    # one table per experiment, plus tests/test_cli_surface.py's fixture
    assert present == sorted([e.lower() for e in EXP_IDS] + ["cli_surface"])


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_stored_payload_round_trips(exp_id):
    """result -> payload -> JSON -> result keeps every name and value."""
    result = quick_result(exp_id)
    back = payload_to_result(json.loads(json.dumps(result_to_payload(result))))
    assert back.title == result.title and back.notes == result.notes
    assert back.columns == result.columns
    assert back.rows == result.rows
    assert [list(row) for row in back.rows] == [list(row) for row in result.rows]
    assert list(back.checks.items()) == list(result.checks.items())
