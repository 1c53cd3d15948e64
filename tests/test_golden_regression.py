"""Golden regression fixtures for the quick-mode harness tables.

``tests/golden/`` holds the full quick-mode outputs (columns, rows,
shape checks) of the three headline sweep experiments: Table 1
(sender-initiated schedules), Table 2 (receiver-initiated schedules),
and Table 6 (the processor-count sweep).  Everything the simulators
produce is deterministic — fixed circuit seeds, virtual time — so any
diff against these fixtures is a behaviour change, not noise.

After an *intentional* change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --regen-golden

then review the fixture diff like any other code change
(see docs/VERIFICATION.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.cache import jsonify
from repro.harness.experiments import run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
EXP_IDS = ["T1", "T2", "T6"]

#: Relative tolerance for float comparisons.  Simulated times are exact
#: in principle, but summing float work terms is sensitive to operation
#: order, which legitimate refactors may change.
FLOAT_RTOL = 1e-6


def golden_path(exp_id: str) -> Path:
    return GOLDEN_DIR / f"{exp_id.lower()}.json"


def build_payload(exp_id: str) -> dict:
    result = run_experiment(exp_id, quick=True)
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": jsonify(result.rows),
        "checks": jsonify(result.checks),
    }


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
    assert present == sorted(e.lower() for e in EXP_IDS)
