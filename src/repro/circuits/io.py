"""Circuit serialisation: JSON and a simple line-oriented text format.

Two formats are supported:

- **JSON** (:func:`save_json` / :func:`load_json`): a direct dump of the
  circuit structure, stable across versions, used by the harness result
  cache and by users who want to persist generated benchmarks.
- **Text** (:func:`save_text` / :func:`load_text`): a human-editable format
  in the spirit of the era's netlist files::

      CIRCUIT bnrE-like 10 341
      WIRE w0001 3
      PIN 12 0
      PIN 19 1
      PIN 44 0
      WIRE w0002 2
      ...

  ``CIRCUIT name n_channels n_grids`` heads the file; each ``WIRE name
  n_pins`` is followed by exactly ``n_pins`` ``PIN x channel`` lines.
  Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from ..errors import CircuitError
from .model import Circuit, Pin, Wire

__all__ = [
    "circuit_to_dict",
    "circuit_from_dict",
    "save_json",
    "load_json",
    "save_text",
    "load_text",
]

PathLike = Union[str, Path]


def circuit_to_dict(circuit: Circuit) -> dict:
    """Convert a circuit to a JSON-serialisable dict."""
    return {
        "name": circuit.name,
        "n_channels": circuit.n_channels,
        "n_grids": circuit.n_grids,
        "wires": [
            {"name": w.name, "pins": [[p.x, p.channel] for p in w.pins]}
            for w in circuit.wires
        ],
    }


def circuit_from_dict(data: dict) -> Circuit:
    """Inverse of :func:`circuit_to_dict`; validates via the model types."""
    try:
        wires = [
            Wire(w["name"], [Pin(int(x), int(c)) for x, c in w["pins"]])
            for w in data["wires"]
        ]
        return Circuit(
            data["name"], int(data["n_channels"]), int(data["n_grids"]), wires
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitError(f"malformed circuit dict: {exc}") from exc


def save_json(circuit: Circuit, path: PathLike) -> None:
    """Write *circuit* to *path* as JSON."""
    Path(path).write_text(json.dumps(circuit_to_dict(circuit), indent=1))


def load_json(path: PathLike) -> Circuit:
    """Read a circuit previously written by :func:`save_json`."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CircuitError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CircuitError(f"{path} is not valid JSON: {exc}") from exc
    return circuit_from_dict(data)


def save_text(circuit: Circuit, path: PathLike) -> None:
    """Write *circuit* to *path* in the line-oriented text format."""
    lines: List[str] = [
        f"# {circuit.describe()}",
        f"CIRCUIT {circuit.name} {circuit.n_channels} {circuit.n_grids}",
    ]
    for wire in circuit.wires:
        lines.append(f"WIRE {wire.name} {wire.n_pins}")
        for pin in wire.pins:
            lines.append(f"PIN {pin.x} {pin.channel}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_text(path: PathLike) -> Circuit:
    """Parse the line-oriented text format back into a :class:`Circuit`."""
    name = None
    n_channels = n_grids = -1
    wires: List[Wire] = []
    current_name = None
    pending_pins: List[Pin] = []
    expected_pins = 0

    def _flush() -> None:
        nonlocal current_name, pending_pins, expected_pins
        if current_name is not None:
            if len(pending_pins) != expected_pins:
                raise CircuitError(
                    f"wire {current_name!r}: expected {expected_pins} pins, "
                    f"got {len(pending_pins)}"
                )
            wires.append(Wire(current_name, pending_pins))
        current_name, pending_pins, expected_pins = None, [], 0

    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].upper()
        try:
            if keyword == "CIRCUIT":
                if name is not None:
                    raise CircuitError(f"line {lineno}: second CIRCUIT header")
                name = fields[1]
                n_channels, n_grids = int(fields[2]), int(fields[3])
            elif keyword == "WIRE":
                _flush()
                current_name = fields[1]
                expected_pins = int(fields[2])
            elif keyword == "PIN":
                if current_name is None:
                    raise CircuitError(f"line {lineno}: PIN before the first WIRE")
                pending_pins.append(Pin(int(fields[1]), int(fields[2])))
            else:
                raise CircuitError(f"line {lineno}: unknown keyword {keyword!r}")
        except (IndexError, ValueError) as exc:
            raise CircuitError(f"line {lineno}: malformed line {raw!r}") from exc
    _flush()
    if name is None:
        raise CircuitError("missing CIRCUIT header line")
    return Circuit(name, n_channels, n_grids, wires)
