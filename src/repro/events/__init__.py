"""Deterministic discrete-event kernel shared by both architecture simulators."""

from .queue import EventQueue
from .sim import Simulator

__all__ = ["EventQueue", "Simulator"]
