"""Round-trip and error tests for circuit serialisation."""

from __future__ import annotations

import pytest

from repro.circuits import (
    circuit_from_dict,
    circuit_to_dict,
    load_json,
    load_text,
    save_json,
    save_text,
    tiny_test_circuit,
)
from repro.errors import CircuitError


class TestJsonRoundTrip:
    def test_dict_round_trip(self, tiny_circuit):
        assert circuit_from_dict(circuit_to_dict(tiny_circuit)) == tiny_circuit or (
            circuit_from_dict(circuit_to_dict(tiny_circuit)).wires == tiny_circuit.wires
        )

    def test_file_round_trip(self, tiny_circuit, tmp_path):
        path = tmp_path / "c.json"
        save_json(tiny_circuit, path)
        loaded = load_json(path)
        assert loaded.name == tiny_circuit.name
        assert loaded.shape == tiny_circuit.shape
        assert loaded.wires == tiny_circuit.wires

    def test_malformed_dict_raises(self):
        with pytest.raises(CircuitError):
            circuit_from_dict({"name": "x"})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CircuitError, match="cannot read"):
            load_json(tmp_path / "nope.json")

    def test_bad_pin_payload_raises(self):
        data = {
            "name": "x",
            "n_channels": 2,
            "n_grids": 5,
            "wires": [{"name": "w", "pins": [["a", 0], [1, 1]]}],
        }
        with pytest.raises(CircuitError):
            circuit_from_dict(data)


class TestTextRoundTrip:
    def test_file_round_trip(self, tiny_circuit, tmp_path):
        path = tmp_path / "c.txt"
        save_text(tiny_circuit, path)
        loaded = load_text(path)
        assert loaded.shape == tiny_circuit.shape
        assert loaded.wires == tiny_circuit.wires

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# a comment\n\nCIRCUIT demo 2 10\nWIRE w0 2  # trailing comment\nPIN 0 0\nPIN 5 1\n"
        )
        circuit = load_text(path)
        assert circuit.name == "demo"
        assert circuit.n_wires == 1

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("WIRE w0 2\nPIN 0 0\nPIN 5 1\n")
        with pytest.raises(CircuitError):
            load_text(path)

    def test_pin_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("CIRCUIT demo 2 10\nWIRE w0 3\nPIN 0 0\nPIN 5 1\n")
        with pytest.raises(CircuitError):
            load_text(path)

    def test_unknown_keyword_raises(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("CIRCUIT demo 2 10\nBOGUS 1\n")
        with pytest.raises(CircuitError):
            load_text(path)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("CIRCUIT demo 2\n")
        with pytest.raises(CircuitError):
            load_text(path)

    def test_pin_before_first_wire_raises(self, tmp_path):
        # Used to load as "1 wires, 2 pins": the stray pins were dropped.
        path = tmp_path / "c.txt"
        path.write_text("CIRCUIT t 4 10\nPIN 1 1\nPIN 2 2\nWIRE a 2\nPIN 0 0\nPIN 3 1\n")
        with pytest.raises(CircuitError, match="line 2"):
            load_text(path)

    def test_second_header_raises(self, tmp_path):
        # Used to overwrite the dimensions of the wires already read.
        path = tmp_path / "c.txt"
        path.write_text("CIRCUIT t 4 10\nWIRE a 2\nPIN 0 0\nPIN 3 1\nCIRCUIT u 9 99\n")
        with pytest.raises(CircuitError, match="line 5"):
            load_text(path)
