"""ASCII visualisations of the paper's explanatory figures.

The paper's Figures 1-3 are diagrams rather than data plots:

- **Figure 1** — a standard cell placement and its cost array, with a
  routed wire's cells highlighted: :func:`ascii_cost_array` (pass the
  wire's path to see its footprint marked).
- **Figure 2** — the division of the cost array into owned regions:
  :func:`ascii_regions`.
- **Figure 3** — the classification of update types:
  :func:`ascii_update_taxonomy`.

``examples/figures.py`` renders all three for the tiny demo circuit.
Rendering is terminal-friendly, dependency-free and deterministic.

Beyond the paper's figures, :func:`ascii_job_timeline` renders the
routing service's submission history (docs/SERVICE.md) as a latency bar
chart — ``locusroute jobs list --timeline``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .grid.cost_array import CostArray
from .grid.regions import RegionMap
from .route.path import RoutePath

__all__ = [
    "ascii_cost_array",
    "ascii_regions",
    "ascii_update_taxonomy",
    "ascii_job_timeline",
]

#: Occupancy glyphs: blank for empty, then increasing density.
_DENSITY = " .:-=+*#%@"


def ascii_cost_array(
    cost: CostArray,
    highlight: Optional[RoutePath] = None,
    max_width: int = 100,
) -> str:
    """Render a cost array as ASCII art (Figure 1).

    Cell occupancies map to a density ramp; the optional *highlight* path's
    cells render as ``o`` (empty highlighted cell) or ``O`` (occupied) —
    "the highlighted portions of the cost array will be incremented if
    this route is chosen".  Wide arrays are column-downsampled to
    ``max_width`` (each glyph shows the max of its column bucket).
    """
    data = cost.data
    n_channels, n_grids = data.shape
    step = max(1, -(-n_grids // max_width))
    mark = np.zeros_like(data, dtype=bool)
    if highlight is not None:
        channels, xs = highlight.coords()
        mark[channels, xs] = True

    lines: List[str] = []
    width = -(-n_grids // step)
    lines.append("+" + "-" * width + "+")
    for c in range(n_channels):
        row_chars = []
        for x0 in range(0, n_grids, step):
            block = data[c, x0 : x0 + step]
            marked = bool(mark[c, x0 : x0 + step].any())
            level = int(block.max())
            if marked:
                row_chars.append("O" if level > 0 else "o")
            else:
                glyph = _DENSITY[min(level, len(_DENSITY) - 1)]
                row_chars.append(glyph)
        lines.append("|" + "".join(row_chars) + f"| channel {c}")
    lines.append("+" + "-" * width + "+")
    tracks = cost.channel_maxima()
    lines.append(
        f"circuit height = {int(tracks.sum())} tracks "
        f"(per channel: {' '.join(str(int(t)) for t in tracks)})"
    )
    return "\n".join(lines)


def ascii_regions(regions: RegionMap, max_width: int = 100) -> str:
    """Render the owned-region division of the cost array (Figure 2)."""
    step = max(1, -(-regions.n_grids // max_width))
    width = -(-regions.n_grids // step)
    lines = [
        f"cost array {regions.n_channels}x{regions.n_grids} divided among "
        f"{regions.n_procs} processors ({regions.p_rows}x{regions.p_cols} mesh)"
    ]
    lines.append("+" + "-" * width + "+")
    for c in range(regions.n_channels):
        chars = []
        for x0 in range(0, regions.n_grids, step):
            owner = regions.owner_of(c, min(x0, regions.n_grids - 1))
            chars.append(format(owner, "X") if owner < 16 else "?")
        lines.append("|" + "".join(chars) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append("each glyph is the hex id of the cell's owner processor")
    return "\n".join(lines)


#: Status glyphs of the job timeline (plain ASCII, like everything here).
_STATUS_GLYPHS = {"done": "=", "failed": "x", "running": ">", "queued": "."}


def ascii_job_timeline(
    jobs: Iterable[Dict[str, object]], max_width: int = 50
) -> str:
    """Render routing-service job records as a latency/status timeline.

    One line per job (as returned by ``Repository.jobs()`` — newest
    first): a bar of ``=`` proportional to the job's wall time relative
    to the slowest job shown, the status spelled out, and a marker for
    deduplicated submissions.  Jobs without timing (queued, running,
    served from the repository or result cache) render their status glyph
    instead of a bar.
    """
    jobs = list(jobs)
    if not jobs:
        return "(no jobs)"
    walls = []
    for job in jobs:
        started, finished = job.get("started_unix"), job.get("finished_unix")
        walls.append(
            float(finished) - float(started)
            if isinstance(started, (int, float)) and isinstance(finished, (int, float))
            else None
        )
    slowest = max((w for w in walls if w), default=0.0)
    id_width = max(len(str(j.get("job_id", ""))) for j in jobs)
    lines = []
    for job, wall in zip(jobs, walls):
        status = str(job.get("status", "?"))
        glyph = _STATUS_GLYPHS.get(status, "?")
        if wall is not None and slowest > 0:
            bar = glyph * max(1, round(wall / slowest * max_width))
            timing = f" {wall:.3f}s"
        elif wall is not None:
            bar, timing = glyph, f" {wall:.3f}s"
        else:
            bar, timing = glyph, ""
        dedup = " (dedup)" if job.get("dedup_of") else ""
        source = job.get("source")
        via = f" via {source}" if source and source not in ("executed", "dedup") else ""
        lines.append(
            f"{str(job.get('job_id', '')).ljust(id_width)} "
            f"{str(job.get('kind', '')).ljust(10)} "
            f"{status.ljust(7)} |{bar}|{timing}{dedup}{via}"
        )
    return "\n".join(lines)


def ascii_update_taxonomy() -> str:
    """Render the Figure-3 classification of update transactions."""
    return "\n".join(
        [
            "                     cost array updates",
            "                    /                  \\",
            "        sender initiated            receiver initiated",
            "        /            \\              /               \\",
            "  SendLocData    SendRmtData   ReqLocData        ReqRmtData",
            "  (absolute,     (deltas, to   (owner pulls      (pull absolute",
            "   own region,    the region's  a remote's        data for a",
            "   to N/S/E/W     owner)        deltas in its     remote region",
            "   neighbours)                  own region)       ahead of need)",
            "                                      \\               /",
            "                                    blocking | non-blocking",
        ]
    )
