"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Specific subclasses communicate which subsystem failed
and are raised with actionable messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class FeasibilityError(ReproError):
    """An allocation vector violated the simplex constraints (2)-(3)."""


class CostFunctionError(ReproError):
    """A cost function was queried outside its domain or is malformed."""


class SolverError(ReproError):
    """The instantaneous min-max solver could not produce a solution."""


class ProtocolError(ReproError):
    """A distributed protocol received an unexpected or malformed message."""


class SimulationError(ReproError):
    """The discrete-event engine or a simulation model reached a bad state."""


class TransportError(SimulationError):
    """The transport layer gave up on a message (retransmit budget spent).

    Carries the failed route so callers can tell *which* send died:
    ``src``/``dst`` node ids, the message ``tag``, and ``attempts`` (the
    number of retransmissions tried before giving up).
    """

    def __init__(self, src: int, dst: int, tag: str, attempts: int) -> None:
        self.src = int(src)
        self.dst = int(dst)
        self.tag = str(tag)
        self.attempts = int(attempts)
        super().__init__(
            f"message {self.tag!r} {self.src}->{self.dst} lost after "
            f"{self.attempts} retransmissions"
        )


class ConfigurationError(ReproError):
    """An experiment or algorithm was configured with invalid parameters."""


class InvariantViolation(ReproError):
    """A chaos/soak run observed a broken system invariant (see
    :mod:`repro.chaos.invariants`)."""


class CheckpointError(ReproError):
    """A checkpoint could not be captured, restored, or matched to the
    run it claims to resume (see :mod:`repro.ckpt`)."""


class BackendError(ReproError):
    """An array backend was misconfigured or a hot-path array left the
    backend's dtype (a silent upcast/downcast — see :mod:`repro.backend`)."""
