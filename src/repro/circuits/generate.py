"""Seeded synthetic benchmark circuit generators.

The paper evaluates on two proprietary circuits:

- **bnrE** — 420 wires, 10 channels x 341 routing grids (Bell-Northern
  Research).
- **MDC** — 573 wires, 12 channels x 386 routing grids (University of
  Toronto Microelectronic Development Centre).

Neither netlist was ever published, so this module builds statistical
stand-ins (see DESIGN.md §2).  What matters for reproducing the paper's
*shapes* is the wirelength distribution of a placed standard cell design:

- most nets are short and local (a cell talks to near neighbours), which is
  what gives locality-based wire assignment its advantage;
- a minority of nets span a large fraction of the chip (clock, control,
  busses), which is what limits exploitable locality (§5.3.3) and what the
  ThresholdCost load-balancing step exists for;
- pin counts are small and geometrically distributed (2-pin nets dominate).

:func:`generate` samples exactly that mixture from a seeded
:class:`numpy.random.Generator`, so every call with the same config is
bit-for-bit reproducible.  :func:`bnre_like` and :func:`mdc_like` pin the
dimensions and wire counts to the paper's circuits with fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..errors import CircuitError
from .model import Circuit, Pin, Wire, chain_lengths

__all__ = [
    "SyntheticCircuitConfig",
    "ScaledCircuitConfig",
    "generate",
    "generate_scaled",
    "bnre_like",
    "mdc_like",
    "tiny_test_circuit",
    "BNRE_SEED",
    "MDC_SEED",
    "SCALED_SEED",
]

#: Fixed seeds so "bnrE-like" / "MDC-like" mean the same circuit everywhere.
BNRE_SEED = 19890808
MDC_SEED = 19890812

#: Default seed of the S-series scale generator (:func:`generate_scaled`).
SCALED_SEED = 19890816


@dataclass(frozen=True)
class SyntheticCircuitConfig:
    """Parameters of the synthetic standard cell netlist sampler.

    Attributes
    ----------
    name:
        Circuit name.
    n_wires, n_channels, n_grids:
        Size of the circuit (matches :class:`~repro.circuits.model.Circuit`).
    seed:
        RNG seed; same seed, same circuit.
    local_fraction:
        Fraction of nets drawn from the short/local population.
    local_mean_span:
        Mean horizontal span (grid columns) of local nets; spans are
        geometric, so short nets dominate heavily.
    global_min_span_frac, global_max_span_frac:
        Long nets draw their span from this fraction of chip width.
    global_span_beta:
        Shape of the long-net span distribution: spans are
        ``lo + (hi - lo) * Beta(1, global_span_beta)``, so values above 1
        skew the tail toward its short end — real standard cell designs
        have very few true chip-crossers, and a fatter tail makes the
        per-wire work distribution impossible to load-balance at any
        ThresholdCost, which the paper's Table 4/5 timings rule out.
    pin_geometric_p:
        Extra pins beyond the first two follow Geometric(p); p close to 1
        means almost all nets are 2-pin.
    max_pins:
        Hard cap on pins per wire.
    channel_spread:
        Maximum channel distance of a local net's extra pins from its seed
        channel (local nets hug one or two channels).
    """

    name: str
    n_wires: int
    n_channels: int
    n_grids: int
    seed: int
    local_fraction: float = 0.8
    local_mean_span: float = 18.0
    global_min_span_frac: float = 0.2
    global_max_span_frac: float = 0.8
    global_span_beta: float = 1.8
    pin_geometric_p: float = 0.55
    max_pins: int = 12
    channel_spread: int = 2

    def validate(self) -> None:
        """Raise :class:`CircuitError` on nonsensical parameters."""
        if self.n_wires < 1:
            raise CircuitError("n_wires must be >= 1")
        if self.n_channels < 2 or self.n_grids < 4:
            raise CircuitError("circuit too small to route in")
        if not (0.0 <= self.local_fraction <= 1.0):
            raise CircuitError("local_fraction must be in [0, 1]")
        if not (0.0 < self.pin_geometric_p <= 1.0):
            raise CircuitError("pin_geometric_p must be in (0, 1]")
        if self.max_pins < 2:
            raise CircuitError("max_pins must be >= 2")
        if not (
            0.0 < self.global_min_span_frac <= self.global_max_span_frac <= 1.0
        ):
            raise CircuitError("global span fractions must satisfy 0 < lo <= hi <= 1")


def _sample_wire(
    rng: np.random.Generator, cfg: SyntheticCircuitConfig, index: int
) -> Wire:
    """Sample one wire according to the local/global mixture."""
    is_local = rng.random() < cfg.local_fraction
    if is_local:
        span = int(min(cfg.n_grids - 1, rng.geometric(1.0 / cfg.local_mean_span)))
    else:
        lo = max(2, int(cfg.global_min_span_frac * (cfg.n_grids - 1)))
        hi = max(lo + 1, int(cfg.global_max_span_frac * (cfg.n_grids - 1)))
        span = lo + int(round((hi - lo) * rng.beta(1.0, cfg.global_span_beta)))
    span = max(1, span)
    x0 = int(rng.integers(0, cfg.n_grids - span))
    x1 = x0 + span

    n_extra = int(min(cfg.max_pins - 2, rng.geometric(cfg.pin_geometric_p) - 1))
    seed_channel = int(rng.integers(0, cfg.n_channels))

    def _channel_near(base: int) -> int:
        jitter = int(rng.integers(-cfg.channel_spread, cfg.channel_spread + 1))
        return min(max(base + jitter, 0), cfg.n_channels - 1)

    if is_local:
        c0, c1 = _channel_near(seed_channel), _channel_near(seed_channel)
    else:
        c0 = int(rng.integers(0, cfg.n_channels))
        c1 = int(rng.integers(0, cfg.n_channels))

    pins = {Pin(x0, c0), Pin(x1, c1)}
    attempts = 0
    while len(pins) < 2 + n_extra and attempts < 16 * (n_extra + 1):
        attempts += 1
        px = int(rng.integers(x0, x1 + 1))
        pc = _channel_near(seed_channel) if is_local else int(
            rng.integers(0, cfg.n_channels)
        )
        pins.add(Pin(px, pc))
    return Wire(f"w{index:04d}", pins)


def generate(cfg: SyntheticCircuitConfig) -> Circuit:
    """Generate a synthetic circuit from *cfg* (deterministic in the seed).

    Wires are emitted in descending length order — the classic netlist
    convention (and router heuristic) of placing big nets first.  Routing
    order follows wire order, and round robin assignment deals wires
    cyclically, so this ordering is what makes plain round robin dealing
    reasonably load-balanced (as the paper's round robin timings show it
    was) despite the heavy-tailed per-wire routing effort.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    wires: List[Wire] = [_sample_wire(rng, cfg, i) for i in range(cfg.n_wires)]
    wires.sort(key=lambda w: (-w.length_cost(), w.name))
    wires = [Wire._trusted(f"w{i:04d}", w.pins) for i, w in enumerate(wires)]
    return Circuit(cfg.name, cfg.n_channels, cfg.n_grids, wires)


@dataclass(frozen=True)
class ScaledCircuitConfig:
    """Parameters of the Rent-exponent-controlled scale generator.

    Unlike :class:`SyntheticCircuitConfig`'s hand-tuned local/global
    mixture, the S-series sampler draws horizontal spans from the
    Donath wirelength distribution implied by Rent's rule,
    ``P(l) ~ l**-(3 - 2p)`` with ``p`` the Rent exponent — one knob
    that smoothly trades locality for chip-crossing traffic.  Typical
    placed designs measure ``p`` between ~0.45 (very local) and ~0.75
    (interconnect-rich); the default 0.6 sits in the middle.

    Attributes
    ----------
    name, n_wires, seed:
        As in :class:`SyntheticCircuitConfig`.
    rent_exponent:
        Donath tail exponent knob ``p`` in ``(0, 1)``.
    n_channels, n_grids:
        Explicit dimensions; when ``None`` they scale as
        ``0.49*sqrt(n_wires)`` x ``16.6*sqrt(n_wires)`` — calibrated so
        420 wires reproduces bnrE's 10 x 341 footprint and cell density
        stays constant as the circuit grows.
    pin_geometric_p, max_pins:
        Extra pins beyond the first two follow ``Geometric(p) - 1``,
        capped at ``max_pins`` (same convention as the seed sampler).
    channel_geometric_p:
        Vertical extents add ``Geometric(p) - 1`` channels on top of a
        span-proportional component, so short nets hug one channel and
        chip-crossers are proportionally taller.
    """

    name: str
    n_wires: int
    seed: int = SCALED_SEED
    rent_exponent: float = 0.6
    n_channels: Optional[int] = None
    n_grids: Optional[int] = None
    pin_geometric_p: float = 0.55
    max_pins: int = 12
    channel_geometric_p: float = 0.65

    def validate(self) -> None:
        """Raise :class:`CircuitError` on nonsensical parameters."""
        if self.n_wires < 1:
            raise CircuitError("n_wires must be >= 1")
        if not (0.0 < self.rent_exponent < 1.0):
            raise CircuitError("rent_exponent must be in (0, 1)")
        if not (0.0 < self.pin_geometric_p <= 1.0):
            raise CircuitError("pin_geometric_p must be in (0, 1]")
        if not (0.0 < self.channel_geometric_p <= 1.0):
            raise CircuitError("channel_geometric_p must be in (0, 1]")
        if self.max_pins < 2:
            raise CircuitError("max_pins must be >= 2")
        if self.n_channels is not None and self.n_channels < 2:
            raise CircuitError("circuit too small to route in")
        if self.n_grids is not None and self.n_grids < 4:
            raise CircuitError("circuit too small to route in")

    def dims(self) -> "tuple[int, int]":
        """Resolved ``(n_channels, n_grids)`` after sqrt scaling."""
        root = float(np.sqrt(self.n_wires))
        n_channels = self.n_channels
        if n_channels is None:
            n_channels = max(4, int(round(0.49 * root)))
        n_grids = self.n_grids
        if n_grids is None:
            n_grids = max(16, int(round(16.6 * root)))
        return n_channels, n_grids


def generate_scaled(
    n_wires: int,
    *,
    rent_exponent: float = 0.6,
    seed: int = SCALED_SEED,
    name: Optional[str] = None,
    config: Optional[ScaledCircuitConfig] = None,
) -> Circuit:
    """Generate an S-series circuit (deterministic in the seed).

    Sampling and construction are array operations end to end — one
    :class:`numpy.random.Generator` stream, no per-wire draw, no
    :class:`Pin` or :class:`Wire` built — and the result, a circuit over
    its pin table (:meth:`Circuit.from_columns`), is bit-for-bit
    reproducible for a given ``(n_wires, rent_exponent, seed, dims)``.
    Wires are emitted in descending length order and named positionally,
    the same netlist convention as :func:`generate`.

    Pass ``config`` to control every knob; the keyword arguments cover
    the common cases and must then be left at their defaults.
    """
    if config is None:
        config = ScaledCircuitConfig(
            name=name or f"scaled-{n_wires}w-p{rent_exponent:g}",
            n_wires=n_wires,
            seed=seed,
            rent_exponent=rent_exponent,
        )
    elif (
        name is not None
        or rent_exponent != 0.6
        or seed != SCALED_SEED
        or n_wires != config.n_wires
    ):
        raise CircuitError(
            "pass either a full ScaledCircuitConfig or keyword overrides, "
            "not both"
        )
    config.validate()
    n = config.n_wires
    n_channels, n_grids = config.dims()
    rng = np.random.default_rng(config.seed)

    # Horizontal spans: inverse-CDF sampling of the truncated Donath
    # power law P(l) ~ l**-(3 - 2p) on [1, n_grids - 1].
    lengths = np.arange(1, n_grids, dtype=np.float64)
    pdf = lengths ** -(3.0 - 2.0 * config.rent_exponent)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    spans = 1 + np.searchsorted(cdf, rng.random(n)).astype(np.int64)
    spans = np.minimum(spans, n_grids - 1)

    # Vertical extents: span-proportional (chip aspect ratio) plus a
    # geometric tail so even unit-span nets occasionally hop channels.
    extents = (spans * n_channels) // n_grids + (
        rng.geometric(config.channel_geometric_p, n) - 1
    )
    extents = np.minimum(extents, n_channels - 1)

    x0 = rng.integers(0, n_grids - spans)
    x1 = x0 + spans
    c0 = rng.integers(0, n_channels - extents)
    c1 = c0 + extents
    flip = rng.random(n) < 0.5  # which end pin sits on which channel

    # Extra pins (vectorised): geometric counts, then one flat draw of
    # every extra pin's coordinates inside its wire's bounding box.
    n_extra = np.minimum(
        rng.geometric(config.pin_geometric_p, n) - 1, config.max_pins - 2
    )
    total = int(n_extra.sum())
    owner = np.repeat(np.arange(n), n_extra)
    ex_frac = rng.random(total)
    ec_frac = rng.random(total)
    ex = x0[owner] + (ex_frac * (spans[owner] + 1)).astype(np.int64)
    ec = c0[owner] + (ec_frac * (extents[owner] + 1)).astype(np.int64)

    # One key per pin, (wire, x, channel) packed: sorted, each wire's pins
    # are contiguous in (x, channel) order and its duplicates adjacent.
    wire = np.arange(n)
    key = np.sort(
        (
            np.concatenate((wire, wire, owner)) * n_grids
            + np.concatenate((x0, x1, ex))
        )
        * n_channels
        + np.concatenate((np.where(flip, c1, c0), np.where(flip, c0, c1), ec))
    )
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    pin_wire, cell = np.divmod(key, n_grids * n_channels)
    pin_x, pin_channel = np.divmod(cell, n_channels)
    n_pins = np.bincount(pin_wire, minlength=n)
    pin_ptr = np.concatenate(([0], np.cumsum(n_pins)))

    # Descending length; ties keep sample order, which is name order.
    order = np.argsort(-chain_lengths(pin_x, pin_channel, pin_ptr), kind="stable")
    sorted_ptr = np.concatenate(([0], np.cumsum(n_pins[order])))
    pins = np.repeat(pin_ptr[order] - sorted_ptr[:-1], n_pins[order]) + np.arange(key.size)
    return Circuit.from_columns(
        config.name, n_channels, n_grids, pin_x[pins], pin_channel[pins], sorted_ptr
    )


def bnre_like(seed: Optional[int] = None, n_wires: Optional[int] = None) -> Circuit:
    """The bnrE stand-in: 420 wires, 10 channels x 341 grids.

    ``seed``/``n_wires`` overrides exist for tests that want smaller or
    perturbed instances; defaults reproduce the canonical benchmark.
    """
    cfg = SyntheticCircuitConfig(
        name="bnrE-like",
        n_wires=420,
        n_channels=10,
        n_grids=341,
        seed=BNRE_SEED,
    )
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if n_wires is not None:
        cfg = replace(cfg, n_wires=n_wires)
    return generate(cfg)


def mdc_like(seed: Optional[int] = None, n_wires: Optional[int] = None) -> Circuit:
    """The MDC stand-in: 573 wires, 12 channels x 386 grids.

    MDC is generated slightly *more* local than bnrE (smaller mean span),
    reflecting the paper's locality measurements (§5.3.3: MDC wires route
    an average 0.91 hops from their owner vs 1.21 for bnrE).
    """
    cfg = SyntheticCircuitConfig(
        name="MDC-like",
        n_wires=573,
        n_channels=12,
        n_grids=386,
        seed=MDC_SEED,
        local_fraction=0.88,
        local_mean_span=14.0,
        global_max_span_frac=0.65,
        global_span_beta=2.2,
    )
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if n_wires is not None:
        cfg = replace(cfg, n_wires=n_wires)
    return generate(cfg)


def tiny_test_circuit(seed: int = 7, n_wires: int = 24) -> Circuit:
    """A small circuit (4 channels x 40 grids) for fast unit tests."""
    cfg = SyntheticCircuitConfig(
        name="tiny",
        n_wires=n_wires,
        n_channels=4,
        n_grids=40,
        seed=seed,
        local_mean_span=6.0,
    )
    return generate(cfg)
