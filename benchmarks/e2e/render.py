"""Rewrite the generated part of ``README.md`` (``run.py --render``).

The workload and metric tables come from ``BENCHMARK.json``; the results
tables come from the committed run sets under ``runs/``.  Nothing between
the two markers in the README is written by hand.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List

import measure

HERE = measure.HERE
README = os.path.join(HERE, "README.md")
RUNS = os.path.join(HERE, "runs")
BEGIN, END = "<!-- generated:begin -->", "<!-- generated:end -->"


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines + [""]


def _fmt(value: float) -> str:
    """Counts in full, measurements to four digits."""
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.4g}"


def _host_line(run: dict) -> str:
    host = run["host"]
    when = time.strftime("%Y-%m-%d", time.gmtime(run["started_unix"]))
    return (
        f"{host['logical_cores']} logical cores, {host['cpu_model']}, Python {host['python']}, "
        f"NumPy {host['numpy']}, `{host['kernel_mode']}` kernels, commit `{host['git_commit'][:12]}`, {when}"
    )


def _end_to_end(spec: dict, path: str) -> List[str]:
    runs = [r for r in measure.load_runs(path) if not r["trace"]]
    seeds = ", ".join(str(r["host"]["seed"]) for r in runs)
    lines = [
        f"### End to end: `{os.path.relpath(path, HERE)}`",
        "",
        f"Median of {len(runs)} runs (seeds {seeds}), each a {runs[0]['seconds']:g} s timed window; "
        "in brackets the inter-quartile spread as a share of the median.  " + _host_line(runs[0]),
        "",
    ]
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in runs[0]["workloads"]]
    extras = sorted(
        {
            name
            for r in runs
            for w in r["workloads"].values()
            for name in w["metrics"]
            if name not in names and name not in ("raw_wall_s", "failed_frac")
        }
    )
    rows = []
    for name in names + extras:
        row = [f"`{name}`"]
        unit = ""
        for workload in workloads:
            values = [
                r["workloads"][workload]["metrics"][name]["value"]
                for r in runs
                if name in r["workloads"][workload]["metrics"]
            ]
            if not values:
                row.append("—")
                continue
            unit = runs[0]["workloads"][workload]["metrics"][name]["unit"]
            cell = _fmt(statistics.median(values))
            if len(values) >= 2:
                cell += f" ({measure.spread(values):.1%})"
            row.append(cell)
        rows.append(row[:1] + [unit] + row[1:])
    lines += _table(["metric", "unit", *workloads], rows)
    failed = sum(w["failed"] for r in runs for w in r["workloads"].values())
    attempted = sum(w["attempted"] for r in runs for w in r["workloads"].values())
    lines += [f"Operations failed: {failed} of {attempted}.", ""]
    return lines


def _per_layer(spec: dict, path: str) -> List[str]:
    runs = [r for r in measure.load_runs(path) if r["trace"]]
    run = runs[-1]
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in run["workloads"]]
    lines = [
        f"### Per layer: `{os.path.relpath(path, HERE)}`",
        "",
        f"One traced run (seed {run['host']['seed']}); seconds are self time per pass, counts are per pass.  "
        + _host_line(run),
        "",
    ]
    rows = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        rows.append(
            [f"`{name}`", metric["unit"]]
            + [_fmt(run["workloads"][w]["metrics"][name]["value"]) for w in workloads]
        )
    lines += _table(["metric", "unit", *workloads], rows)
    rows = [
        ["traced pass wall (s)"] + [_fmt(run["workloads"][w]["traced_wall_s"]) for w in workloads],
        ["untraced pass wall (s)"] + [_fmt(run["workloads"][w]["untraced_wall_s"]) for w in workloads],
    ]
    lines += _table(["", *workloads], rows)
    return lines


def main() -> int:
    spec = measure.load_spec()
    lines = [BEGIN, "", "## Workloads (from `BENCHMARK.json`)", ""]
    lines += _table(["name", "why"], [[f"`{w['name']}`", w["why"]] for w in spec["workloads"]])
    lines += ["## End-to-end metrics (from `BENCHMARK.json`)", ""]
    lines += _table(
        ["name", "unit", "better", "bound"],
        [[f"`{m['name']}`", m["unit"], m["better"], f"{m['bound']:.0%}"] for m in spec["end_to_end"]],
    )
    lines += ["## Latest results", ""]
    for name in sorted(os.listdir(RUNS)):
        path = os.path.join(RUNS, name)
        runs = measure.load_runs(path)
        if any(not r["trace"] for r in runs):
            lines += _end_to_end(spec, path)
        if any(r["trace"] for r in runs):
            lines += _per_layer(spec, path)
    lines.append(END)
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    if BEGIN not in text or END not in text:
        raise SystemExit(f"error: {README} lacks the {BEGIN} / {END} markers")
    head, rest = text.split(BEGIN, 1)
    tail = rest.split(END, 1)[1]
    with open(README, "w", encoding="utf-8") as handle:
        handle.write(head + "\n".join(lines) + tail)
    print(f"rendered {README}")
    return 0
