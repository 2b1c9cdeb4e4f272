"""Messages exchanged over the simulated network.

Payloads are plain dictionaries of scalars; :func:`scalar_payload_size`
charges 8 bytes per float/int field, matching the paper's accounting
where "each of which is a scalar value" (§IV-C) is the communication
unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["Message", "scalar_payload_size", "SCALAR_BYTES"]

#: Wire size charged per scalar payload field.
SCALAR_BYTES = 8


def scalar_payload_size(payload: Mapping[str, Any]) -> int:
    """Bytes on the wire for a payload of scalar fields."""
    return SCALAR_BYTES * len(payload)


@dataclass(frozen=True)
class Message:
    """A point-to-point message."""

    src: int
    dst: int
    tag: str
    payload: Mapping[str, Any]
    size_bytes: int
    send_time: float
    round_index: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")
