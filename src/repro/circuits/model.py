"""Standard cell circuit model.

LocusRoute (Rose, DAC '88) operates on a *standard cell* circuit abstraction:
rows of cells separated by horizontal *routing channels*, with the horizontal
extent of the chip divided into *routing grids* (columns).  A net ("wire")
is a set of pins, each pin sitting at a (grid column, channel) coordinate.
The router's job is to connect every wire's pins through the channel grid
while minimising congestion, which is proportional to final circuit area.

This module defines the immutable data model used by everything else:

- :class:`Pin` — a single terminal at ``(x, channel)``.
- :class:`Wire` — a named net with two or more pins.
- :class:`Circuit` — a named collection of wires plus grid dimensions.

Two views of one circuit
------------------------
A :class:`Circuit` is the same netlist twice: the ``wires`` tuple of
:class:`Wire` objects, and a CSR *pin table* — ``pin_x``, ``pin_channel``,
``pin_ptr``, where wire ``w`` owns pins ``pin_ptr[w]:pin_ptr[w + 1]``,
sorted by ``(x, channel)`` without duplicates.  Whichever view a circuit
was built from (:class:`Circuit` takes wires, :meth:`Circuit.from_columns`
takes the table), the other is derived from it once.  The rule for
readers: code that looks at the **whole circuit** (geometry, statistics,
``describe``, fingerprints) reads the pin table; code that looks at **one
wire** calls ``circuit.wire(i)``.  A circuit built from columns therefore
never pays for :class:`Wire` objects unless somebody asks for one, and the
``circuits.wires_materialised`` counter says when somebody did.

Coordinates
-----------
``x`` is the horizontal routing-grid index, ``0 <= x < n_grids``.
``channel`` is the horizontal routing-channel index, ``0 <= channel <
n_channels``.  The cost array built over a circuit has shape
``(n_channels, n_grids)``.

Instances validate eagerly, on either construction path: a
:class:`Circuit` can never hold an off-grid pin or a wire with fewer than
two pins, which lets every downstream component assume well-formed input.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import CircuitError
from ..obs import telemetry as obs

__all__ = ["Pin", "Wire", "Circuit", "chain_lengths"]


@dataclass(frozen=True, order=True)
class Pin:
    """A wire terminal at horizontal grid ``x`` on routing ``channel``.

    Pins order lexicographically by ``(x, channel)``; the router relies on
    this when chaining multi-pin wires left to right.
    """

    x: int
    channel: int

    def __post_init__(self) -> None:
        if self.x < 0 or self.channel < 0:
            raise CircuitError(
                f"pin coordinates must be non-negative, got ({self.x}, {self.channel})"
            )

    def as_tuple(self) -> Tuple[int, int]:
        """Return ``(x, channel)`` as a plain tuple."""
        return (self.x, self.channel)


@dataclass(frozen=True)
class Wire:
    """A net: an identifier plus two or more :class:`Pin` terminals.

    The pin tuple is stored sorted by ``(x, channel)`` so that the two-bend
    router can walk pins left to right without re-sorting, and so that two
    wires with the same pin set always compare equal.

    Beside its two fields a wire has three slots for what others derive
    from it, set at construction so that filling them later grows no
    instance: ``_home`` and ``_index``, a weak reference to the circuit
    that last handed the wire out and its index there, and ``_rows``,
    stamped by the router (the wire's rows of a geometry table).  None of
    them compares, hashes or pickles.
    """

    name: str
    pins: Tuple[Pin, ...]

    def __init__(self, name: str, pins: Iterable[Pin]) -> None:
        pin_tuple = tuple(sorted(pins))
        if len(pin_tuple) < 2:
            raise CircuitError(f"wire {name!r} needs >= 2 pins, got {len(pin_tuple)}")
        if len(set(pin_tuple)) != len(pin_tuple):
            raise CircuitError(f"wire {name!r} has duplicate pins")
        self._fill(name, pin_tuple)

    @classmethod
    def _trusted(
        cls, name: str, pins: Tuple[Pin, ...], home: Optional[weakref.ref] = None, index: int = 0
    ) -> "Wire":
        """A wire over *pins* already sorted, duplicate-free and >= 2 long."""
        wire = object.__new__(cls)
        wire._fill(name, pins, home, index)
        return wire

    def _fill(self, name, pins, home=None, index=0) -> None:
        fill = object.__setattr__  # frozen: the dataclass's own refuses
        fill(self, "name", name)
        fill(self, "pins", pins)
        fill(self, "_home", home)
        fill(self, "_index", index)
        fill(self, "_rows", None)

    def __reduce__(self):
        return Wire._trusted, (self.name, self.pins)

    @property
    def n_pins(self) -> int:
        """Number of terminals on this wire."""
        return len(self.pins)

    @property
    def leftmost_pin(self) -> Pin:
        """The pin with the smallest ``x`` (ties broken by channel).

        The ThresholdCost wire-assignment heuristic (paper §4.2) assigns a
        wire to the processor owning the region of its leftmost pin.
        """
        return self.pins[0]

    @property
    def x_span(self) -> int:
        """Horizontal extent in grid columns (max x − min x)."""
        return self.pins[-1].x - self.pins[0].x

    @property
    def channel_span(self) -> int:
        """Vertical extent in channels (max channel − min channel)."""
        channels = [p.channel for p in self.pins]
        return max(channels) - min(channels)

    @property
    def bounding_box(self) -> Tuple[int, int, int, int]:
        """``(channel_lo, x_lo, channel_hi, x_hi)`` inclusive bounds."""
        channels = [p.channel for p in self.pins]
        return (min(channels), self.pins[0].x, max(channels), self.pins[-1].x)

    def length_cost(self) -> int:
        """The wire's *cost measure* used by ThresholdCost assignment.

        Paper §4.2: "A cost measure is computed for each wire, based on its
        length."  We use the total Manhattan length of the left-to-right
        pin chain — the same chain the router actually routes — so the
        measure grows with both span and pin count, and multi-pin nets can
        exceed the chip width (making finite large thresholds such as 1000
        meaningfully different from infinity).
        """
        total = 0
        for a, b in zip(self.pins, self.pins[1:]):
            total += abs(b.x - a.x) + abs(b.channel - a.channel)
        return total

    def segments(self) -> Iterator[Tuple[Pin, Pin]]:
        """Yield consecutive pin pairs of the left-to-right chain."""
        return zip(self.pins, self.pins[1:])


def chain_lengths(
    pin_x: np.ndarray, pin_channel: np.ndarray, pin_ptr: np.ndarray
) -> np.ndarray:
    """Every wire's :meth:`Wire.length_cost`, from a pin table."""
    before = np.zeros(pin_x.size, dtype=np.int64)  # chain length before pin k
    np.cumsum(np.abs(np.diff(pin_x)) + np.abs(np.diff(pin_channel)), out=before[1:])
    return before[pin_ptr[1:] - 1] - before[pin_ptr[:-1]]


@dataclass(frozen=True)
class Circuit:
    """A standard cell circuit: grid dimensions plus a wire list.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"bnrE-like"``).
    n_channels:
        Number of horizontal routing channels (vertical cost-array size).
    n_grids:
        Number of routing grid columns (horizontal cost-array size).
    wires:
        Tuple of :class:`Wire`; order defines wire indices everywhere.
        On a circuit built by :meth:`from_columns` the tuple is derived
        from the pin table on first access.
    pin_x, pin_channel, pin_ptr:
        The pin table (read-only ``int64`` arrays): wire ``w`` owns pins
        ``pin_ptr[w]:pin_ptr[w + 1]``, sorted by ``(x, channel)``.
    """

    name: str
    n_channels: int
    n_grids: int
    wires: Tuple[Wire, ...]  # its default is the cached property below

    def __init__(
        self, name: str, n_channels: int, n_grids: int, wires: Sequence[Wire] = ()
    ) -> None:
        wire_tuple = tuple(wires)
        pins = [p for w in wire_tuple for p in w.pins]
        pin_ptr = np.zeros(len(wire_tuple) + 1, dtype=np.int64)
        np.cumsum([len(w.pins) for w in wire_tuple], out=pin_ptr[1:])
        self._set_columns(
            name, n_channels, n_grids,
            [p.x for p in pins], [p.channel for p in pins], pin_ptr,
            tuple(w.name for w in wire_tuple),
        )
        home = weakref.ref(self)
        for index, wire in enumerate(wire_tuple):
            object.__setattr__(wire, "_home", home)
            object.__setattr__(wire, "_index", index)
        object.__setattr__(self, "wires", wire_tuple)

    @classmethod
    def from_columns(
        cls,
        name: str,
        n_channels: int,
        n_grids: int,
        pin_x: Sequence[int],
        pin_channel: Sequence[int],
        pin_ptr: Sequence[int],
        names: Optional[Sequence[str]] = None,
    ) -> "Circuit":
        """Build a circuit from its pin table, validating it in bulk.

        Everything :class:`Pin`, :class:`Wire` and :class:`Circuit` check
        object by object is checked on the arrays: positive dimensions,
        >= 2 pins per wire, non-negative in-grid coordinates, strictly
        increasing ``(x, channel)`` inside each wire (which is the
        duplicate check) and unique names.  *names* defaults to positional
        ``w000000``, ``w000001``, ..., padded so that name order stays
        index order.
        """
        circuit = object.__new__(cls)
        circuit._set_columns(
            name, n_channels, n_grids, pin_x, pin_channel, pin_ptr,
            None if names is None else tuple(names),
        )
        return circuit

    def _set_columns(
        self, name, n_channels, n_grids, pin_x, pin_channel, pin_ptr, names
    ) -> None:
        """Validate a pin table and store it: the one gate both views pass."""
        if n_channels < 1 or n_grids < 1:
            raise CircuitError(
                f"circuit {name!r}: dimensions must be positive, got "
                f"{n_channels} channels x {n_grids} grids"
            )
        pin_x = np.array(pin_x, dtype=np.int64)
        pin_channel = np.array(pin_channel, dtype=np.int64)
        pin_ptr = np.array(pin_ptr, dtype=np.int64)
        if pin_x.ndim != 1 or pin_x.shape != pin_channel.shape or pin_ptr.ndim != 1:
            raise CircuitError(
                f"circuit {name!r}: pin_x, pin_channel (equally long) and pin_ptr "
                f"must be one-dimensional"
            )
        if pin_ptr.size < 1 or pin_ptr[0] != 0 or pin_ptr[-1] != pin_x.size:
            raise CircuitError(
                f"circuit {name!r}: pin_ptr must run from 0 to the {pin_x.size} pins"
            )
        if names is not None:
            if len(names) != pin_ptr.size - 1:
                raise CircuitError(
                    f"circuit {name!r}: {len(names)} names for {pin_ptr.size - 1} wires"
                )
            if len(set(names)) != len(names):
                raise CircuitError(f"circuit {name!r} has duplicate wire names")

        def owner(pin: int) -> str:
            wire = int(np.searchsorted(pin_ptr, pin, side="right")) - 1
            return f"#{wire}" if names is None else repr(names[wire])

        def first(bad: np.ndarray) -> int:
            return int(np.flatnonzero(bad)[0])

        n_pins = np.diff(pin_ptr)
        if (n_pins < 2).any():
            wire = first(n_pins < 2)
            raise CircuitError(
                f"wire {owner(int(pin_ptr[wire]))} needs >= 2 pins, got {int(n_pins[wire])}"
            )
        negative = (pin_x < 0) | (pin_channel < 0)
        if negative.any():
            pin = first(negative)
            raise CircuitError(
                f"pin coordinates must be non-negative, got "
                f"({int(pin_x[pin])}, {int(pin_channel[pin])})"
            )
        off_grid = (pin_x >= n_grids) | (pin_channel >= n_channels)
        if off_grid.any():
            pin = first(off_grid)
            raise CircuitError(
                f"circuit {name!r}: pin ({int(pin_x[pin])}, {int(pin_channel[pin])}) "
                f"of wire {owner(pin)} lies outside the {n_channels}x{n_grids} grid"
            )
        # In-grid, so x * n_channels + channel orders pins as (x, channel).
        falls = np.diff(pin_x * n_channels + pin_channel) <= 0
        falls[pin_ptr[1:-1] - 1] = False  # the step into the next wire
        if falls.any():
            raise CircuitError(
                f"wire {owner(first(falls))}: pins must be strictly increasing "
                f"in (x, channel), without duplicates"
            )
        for column in (pin_x, pin_channel, pin_ptr):
            column.setflags(write=False)
        for attr, value in (
            ("name", name), ("n_channels", n_channels), ("n_grids", n_grids),
            ("pin_x", pin_x), ("pin_channel", pin_channel), ("pin_ptr", pin_ptr),
            ("_names", names),
        ):
            object.__setattr__(self, attr, value)

    @cached_property
    def wires(self) -> Tuple[Wire, ...]:
        # Reached only on a circuit built from columns, once: the result
        # lands in the instance dict, where ``__init__`` puts it directly.
        pins = list(map(Pin, self.pin_x.tolist(), self.pin_channel.tolist()))
        ptr = self.pin_ptr.tolist()
        obs.incr("circuits.wires_materialised", self.n_wires)
        home = weakref.ref(self)
        return tuple(
            Wire._trusted(name, tuple(pins[lo:hi]), home, index)
            for index, (name, lo, hi) in enumerate(zip(self.wire_names(), ptr, ptr[1:]))
        )

    def __reduce__(self):
        # The pin table is the circuit: the wires and whatever routing hung
        # on the instance (geometry tables, wave plan, region clips) are
        # derived from it again by whoever unpickles.
        return Circuit.from_columns, (
            self.name, self.n_channels, self.n_grids,
            self.pin_x, self.pin_channel, self.pin_ptr, self._names,
        )

    @property
    def n_wires(self) -> int:
        """Number of wires in the circuit."""
        return self.pin_ptr.size - 1

    @property
    def n_pins(self) -> int:
        """Number of pins over all wires."""
        return self.pin_x.size

    @property
    def shape(self) -> Tuple[int, int]:
        """Cost-array shape ``(n_channels, n_grids)``."""
        return (self.n_channels, self.n_grids)

    def wire(self, index: int) -> Wire:
        """Return the wire with the given index."""
        return self.wires[index]

    def wire_names(self) -> Tuple[str, ...]:
        """Wire names in index order; does not build the wires."""
        if self._names is not None:
            return self._names
        width = max(6, len(str(self.n_wires - 1)))
        return tuple(f"w{i:0{width}d}" for i in range(self.n_wires))

    def length_costs(self) -> np.ndarray:
        """Every wire's :meth:`Wire.length_cost`, in index order."""
        return chain_lengths(self.pin_x, self.pin_channel, self.pin_ptr)

    def with_wires(self, wires: Sequence[Wire]) -> "Circuit":
        """Return a copy of this circuit with a different wire list."""
        return Circuit(self.name, self.n_channels, self.n_grids, wires)

    def __iter__(self) -> Iterator[Wire]:
        return iter(self.wires)

    def __len__(self) -> int:
        return self.n_wires

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (
            f"{self.name}: {self.n_wires} wires, {self.n_pins} pins, "
            f"{self.n_channels} channels x {self.n_grids} routing grids"
        )
