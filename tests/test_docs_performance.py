"""``docs/PERFORMANCE.md`` prints ``BENCH_perf.json``; hold it to that.

The results table used to be copied by hand and drifted (it said the T6
whole run was 1.7x faster while the committed JSON said 1.551x).  It is
now ``bench_perf_suite.results_table`` applied to the committed file, and
this test fails when the document and the JSON disagree.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from benchmarks.bench_perf_suite import results_table

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "docs" / "PERFORMANCE.md").read_text()
COMMITTED = json.loads((ROOT / "BENCH_perf.json").read_text())


def test_results_table_is_the_committed_json_rendered():
    assert results_table(COMMITTED) in DOC, (
        "regenerate the table: python benchmarks/bench_perf_suite.py --table BENCH_perf.json"
    )


def test_every_printed_speedup_equals_the_entry_it_names():
    by_id = {e["id"]: e for e in COMMITTED["entries"]}
    rows = re.findall(r"^\| `(\w+)` \|.*\| ([\d.]+)× \|$", DOC, flags=re.MULTILINE)
    assert {entry_id for entry_id, _ in rows} == set(by_id)
    for entry_id, printed in rows:
        assert printed == f"{by_id[entry_id]['speedup']:.2f}", entry_id
