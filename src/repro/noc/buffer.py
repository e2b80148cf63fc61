"""Input-port flit buffers with credit-based backpressure accounting."""

from __future__ import annotations

from collections import deque
from typing import Deque

from .flit import Flit

__all__ = ["FlitBuffer"]


class FlitBuffer:
    """A bounded FIFO of flits attached to one router input port.

    The upstream router (or NIC) tracks a credit per free slot of this
    buffer: it may only forward a flit when a credit is available, and the
    credit is returned when the flit leaves the buffer.  The buffer itself
    only enforces its capacity; credit bookkeeping lives in the router to
    keep the hot loop simple.
    """

    def __init__(self, capacity: int, name: str = "buffer"):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        #: The FIFO itself, head of line first.  Readers use it directly: the
        #: router peeks at ``flits[0]`` and releases with ``flits.popleft()``;
        #: only ``push`` goes through the buffer, to enforce the capacity.
        self.flits: Deque[Flit] = deque()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flits)

    @property
    def is_full(self) -> bool:
        return len(self.flits) >= self.capacity

    # ------------------------------------------------------------------
    def push(self, flit: Flit) -> None:
        """Append a flit; raises if the upstream violated credit flow control."""
        if self.is_full:
            raise OverflowError(f"{self.name}: push into a full buffer (credit protocol violation)")
        self.flits.append(flit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlitBuffer({self.name}, {len(self)}/{self.capacity})"
