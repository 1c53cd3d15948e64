"""The command line's accepted surface, pinned sub-command by sub-command.

``cli.py`` builds its parsers from one flag table; this golden is what
keeps a table edit from quietly adding, dropping or re-typing a flag
somewhere.  Per sub-command it records every action's option strings,
dest, type, default, choices, nargs and whether it is required — help
text is free to change.

After an *intentional* surface change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_cli_surface.py --regen-golden
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def surface(parser: argparse.ArgumentParser, name: str = "locusroute") -> dict:
    """``{command path: sorted action rows}`` for *parser* and its sub-parsers."""
    out = {}
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                out.update(surface(sub, f"{name} {sub_name}"))
            continue
        rows.append(
            [
                list(action.option_strings),
                action.dest,
                None if action.type is None else action.type.__name__,
                action.default,
                None if action.choices is None else list(action.choices),
                action.nargs,
                action.required,
            ]
        )
    out[name] = sorted(rows, key=lambda row: (row[0], row[1]))
    return out


def test_cli_surface_matches_golden(regen_golden):
    actual = json.loads(json.dumps(surface(build_parser())))
    if regen_golden:
        commands = [
            f" {json.dumps(command)}: [\n"
            + ",\n".join(f"  {json.dumps(row)}" for row in actual[command])
            + "\n ]"
            for command in sorted(actual)
        ]
        GOLDEN.write_text("{\n" + ",\n".join(commands) + "\n}\n")
        pytest.skip(f"regenerated {GOLDEN}")
    expected = json.loads(GOLDEN.read_text())
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command

