"""Link latency models for the simulated network.

A link's delivery delay is ``propagation + size / bandwidth``. The
propagation term can be constant or stochastic; stochastic models draw
from an explicitly-seeded generator so runs stay reproducible. Every
model states an upper bound on its draws (``inf`` when unbounded), which
:meth:`Link.max_delay` turns into a bound on a frame's delivery delay.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["LatencyModel", "ConstantLatency", "UniformLatency", "LogNormalLatency", "Link"]


class LatencyModel(abc.ABC):
    """Propagation-delay distribution of a link."""

    @abc.abstractmethod
    def sample(self) -> float:
        """Draw one propagation delay in seconds (>= 0)."""

    def sample_batch(self, n: int) -> np.ndarray:
        """Draw ``n`` propagation delays as one array.

        Must be bit-identical to ``n`` sequential :meth:`sample` calls
        *and* leave any underlying generator in the same stream position
        (NumPy's ``Generator`` guarantees this for the distributions the
        subclasses use), so batched and per-frame delivery can be mixed
        freely within one run.
        """
        return np.array([self.sample() for _ in range(n)])

    @property
    def upper_bound(self) -> float:
        """The largest delay :meth:`sample` can return (``inf`` unless a
        subclass knows better)."""
        return math.inf


class ConstantLatency(LatencyModel):
    """Fixed propagation delay."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise SimulationError(f"latency must be >= 0, got {seconds}")
        self.seconds = float(seconds)

    def sample(self) -> float:
        return self.seconds

    def sample_batch(self, n: int) -> np.ndarray:
        return np.full(n, self.seconds)

    @property
    def upper_bound(self) -> float:
        return self.seconds


class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high]``."""

    def __init__(self, low: float, high: float, rng: np.random.Generator) -> None:
        if not 0 <= low <= high:
            raise SimulationError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low, self.high = float(low), float(high)
        self._rng = rng

    def sample(self) -> float:
        return float(self._rng.uniform(self.low, self.high))

    def sample_batch(self, n: int) -> np.ndarray:
        return self._rng.uniform(self.low, self.high, n)

    @property
    def upper_bound(self) -> float:
        return self.high


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delay: ``median * lognormal(0, sigma)``."""

    def __init__(self, median: float, sigma: float, rng: np.random.Generator) -> None:
        if median <= 0 or sigma < 0:
            raise SimulationError("median must be > 0 and sigma >= 0")
        self.median, self.sigma = float(median), float(sigma)
        self._rng = rng

    def sample(self) -> float:
        return self.median * float(self._rng.lognormal(0.0, self.sigma))

    def sample_batch(self, n: int) -> np.ndarray:
        return self.median * self._rng.lognormal(0.0, self.sigma, n)

    @property
    def upper_bound(self) -> float:
        return math.inf  # heavy tail: no finite bound


class Link:
    """A directed link: latency model, optional bandwidth, optional loss.

    ``loss_probability`` models an unreliable physical link; the cluster's
    transport layer retransmits dropped frames (see
    :meth:`repro.net.cluster.Cluster.send`), so the protocols above see
    reliable in-order rounds at the cost of extra delay and duplicate
    frames in the metrics — like TCP over a lossy path.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        bandwidth_bps: float | None = None,
        loss_probability: float = 0.0,
        loss_rng: np.random.Generator | None = None,
    ) -> None:
        self.latency = latency if latency is not None else ConstantLatency(0.0)
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth_bps}")
        if not 0.0 <= loss_probability < 1.0:
            raise SimulationError(
                f"loss_probability must lie in [0, 1), got {loss_probability}"
            )
        if loss_probability > 0.0 and loss_rng is None:
            raise SimulationError(
                "a lossy link needs an explicit loss_rng for reproducibility"
            )
        self.bandwidth_bps = bandwidth_bps
        self.loss_probability = float(loss_probability)
        self._loss_rng = loss_rng

    def _transmit(self, size_bytes: int) -> float:
        if self.bandwidth_bps is None:
            return 0.0
        return 8.0 * size_bytes / self.bandwidth_bps

    def delay(self, size_bytes: int) -> float:
        """Total delivery delay for a message of ``size_bytes``."""
        return self.latency.sample() + self._transmit(size_bytes)

    def max_delay(self, size_bytes: int) -> float:
        """Upper bound on :meth:`delay` for a message of ``size_bytes``:
        the latency model's bound plus the bandwidth term. Any delay
        drawn satisfies ``delay(size_bytes) <= max_delay(size_bytes)``
        (the same two-term float sum, monotone in the first term)."""
        return self.latency.upper_bound + self._transmit(size_bytes)

    def delay_batch(self, n: int, size_bytes: int) -> np.ndarray:
        """Delays for ``n`` equally-sized messages, sampled as one draw.

        Bit-identical to ``n`` sequential :meth:`delay` calls and leaves
        the latency model's generator in the same stream position (see
        :meth:`LatencyModel.sample_batch`).
        """
        return self.latency.sample_batch(n) + self._transmit(size_bytes)

    def drops_frame(self) -> bool:
        """Sample whether one transmission attempt is lost."""
        if self.loss_probability == 0.0:
            return False
        assert self._loss_rng is not None
        return bool(self._loss_rng.random() < self.loss_probability)
