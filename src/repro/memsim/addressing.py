"""Shared-memory address mapping for the cost array.

The Tango traces record *shared data* references, which for LocusRoute
means cost array accesses (§2.2, §5.2).  The cost array is laid out
row-major in shared memory with :data:`WORD_BYTES` bytes per entry (a C
``int`` on the Encore Multimax).  Cache lines are ``line_size`` bytes,
``line_size >= WORD_BYTES`` and a power of two, so a line holds
``line_size / WORD_BYTES`` horizontally adjacent entries — which is what
creates the false-sharing / spatial-locality effects Table 3 measures.
"""

from __future__ import annotations

import numpy as np

from ..errors import CoherenceError

__all__ = ["WORD_BYTES", "AddressMap"]

#: Bytes per cost array entry in shared memory (32-bit int).
WORD_BYTES = 4


class AddressMap:
    """Maps flat shared-word indices to cache line numbers.

    Words ``[0, n_channels * n_grids)`` are the cost array; callers may
    reserve ``extra_words`` beyond it for other shared structures (the
    scheduler scalars and wire records of
    :class:`~repro.memsim.tango.SharedLayout`).
    """

    def __init__(
        self, n_channels: int, n_grids: int, line_size: int, extra_words: int = 0
    ) -> None:
        if line_size < WORD_BYTES or (line_size & (line_size - 1)) != 0:
            raise CoherenceError(
                f"line size must be a power of two >= {WORD_BYTES}, got {line_size}"
            )
        if extra_words < 0:
            raise CoherenceError("extra_words must be non-negative")
        self.n_channels = n_channels
        self.n_grids = n_grids
        self.line_size = line_size
        self.words_per_line = line_size // WORD_BYTES
        total_words = n_channels * n_grids + extra_words
        self.n_lines = -(-(total_words * WORD_BYTES) // line_size)

    def cells_to_lines(self, flat_cells: np.ndarray) -> np.ndarray:
        """Unique cache line numbers touched by *flat_cells*."""
        lines = flat_cells.astype(np.int64) // self.words_per_line
        return np.unique(lines)
