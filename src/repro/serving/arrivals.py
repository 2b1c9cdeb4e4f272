"""Open-loop request-arrival trace generators.

The serving workload (see ``docs/serving.md``) dispatches *millions* of
timestamped requests, so traces are never materialized up front: each
generator streams timestamp chunks from seeded RNG substreams while
carrying an explicit clock, exactly like
:class:`repro.mlsim.traces.FluctuationTrace` carries its AR state.

Two contracts every generator honors, pinned by the property suite in
``tests/property/test_serving_arrivals.py``:

* **Chunk invariance** — generating ``n`` arrivals in one call is
  bit-identical to generating them in any chunked split, *including the
  RNG stream positions afterwards*. This holds because every arrival
  consumes a fixed number of draws from each substream (one gap draw,
  plus one switch draw for the bursty process), and because the running
  clock is folded into the first gap of each chunk before the cumulative
  sum, so the float additions associate exactly as an unbroken running
  sum would.
* **Checkpoint compatibility** — :meth:`ArrivalProcess.capture_state` /
  :meth:`ArrivalProcess.restore_state` round-trip the full generator
  state (clock, emitted count, every bit-generator position) through the
  JSON-able snapshot layer of :mod:`repro.ckpt`.

The diurnal process is an inhomogeneous Poisson process realized by
*time-rescaling*: unit-rate exponential gaps accumulate an internal
clock ``Gamma`` that is mapped to wall time through the inverse of the
cumulative rate ``Lambda(t)``. Thinning was rejected on purpose — its
per-arrival draw count is data-dependent, which would break chunk
invariance of the stream position.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Mapping

import numpy as np

from repro.exceptions import CheckpointError, ConfigurationError
from repro.utils.rng import spawn_rng

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ARRIVALS",
    "make_arrivals",
]

#: Default streaming chunk: big enough to amortize numpy call overhead,
#: small enough that a chunk of float64 timestamps stays well under 1 MB.
DEFAULT_CHUNK = 65_536


class ArrivalProcess(abc.ABC):
    """Base class of the streaming arrival-trace generators."""

    #: Registry/CLI name of the process family.
    name: str = "base"

    def __init__(self, rate: float, seed: int) -> None:
        if not np.isfinite(rate) or rate <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        #: Timestamp of the last emitted arrival (0.0 before the first).
        self.now = 0.0
        #: Total arrivals emitted so far.
        self.count = 0

    @abc.abstractmethod
    def next_batch(self, n: int) -> np.ndarray:
        """Emit the next ``n`` arrival timestamps (strictly increasing)."""

    def stream(
        self, total: int, chunk: int = DEFAULT_CHUNK
    ) -> Iterator[np.ndarray]:
        """Yield ``total`` arrivals in chunks of at most ``chunk``."""
        if total < 0:
            raise ConfigurationError(f"total must be >= 0, got {total}")
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        remaining = int(total)
        while remaining > 0:
            batch = self.next_batch(min(chunk, remaining))
            remaining -= len(batch)
            yield batch

    # -- checkpoint support ------------------------------------------------
    def capture_state(self) -> dict:
        """JSON-able snapshot of the full generator state."""
        state = {
            "process": self.name,
            "now": float(self.now),
            "count": int(self.count),
        }
        state.update(self._capture_extra())
        return state

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rewind/advance this generator to a captured state."""
        if state.get("process") != self.name:
            raise CheckpointError(
                f"arrival state is for process {state.get('process')!r}, "
                f"live generator is {self.name!r}"
            )
        self.now = float(state["now"])
        self.count = int(state["count"])
        self._restore_extra(state)

    def _capture_extra(self) -> dict:
        return {}

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        pass

    def _fold_gaps(self, gaps: np.ndarray) -> np.ndarray:
        """Turn inter-arrival gaps into absolute times, continuing the clock.

        The running clock is added into the *first* gap before the
        cumulative sum, so ``t_k = (((now + g_1) + g_2) + ...)`` — the
        same left-to-right float association an unbroken one-shot
        ``cumsum`` would produce. Adding ``now`` to the whole cumsum
        instead would associate differently and break chunk invariance.
        """
        gaps = gaps.copy()
        gaps[0] += self.now
        times = np.cumsum(gaps)
        self.now = float(times[-1])
        self.count += len(times)
        return times

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rate={self.rate:.4g}, seed={self.seed}, "
            f"count={self.count})"
        )


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: i.i.d. exponential inter-arrival gaps."""

    name = "poisson"

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__(rate, seed)
        self._rng_gap = spawn_rng(self.seed, "serving.arrivals.poisson.gap")

    def next_batch(self, n: int) -> np.ndarray:
        if n < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {n}")
        gaps = self._rng_gap.exponential(1.0 / self.rate, size=n)
        return self._fold_gaps(gaps)

    def _capture_extra(self) -> dict:
        return {"rng_gap": _rng_state(self._rng_gap)}

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        _set_rng_state(self._rng_gap, state["rng_gap"])


class BurstyArrivals(ArrivalProcess):
    """Markov-modulated Poisson process with a calm and a burst regime.

    A two-state chain is embedded at the arrivals: before each arrival
    one uniform draw decides whether the regime flips (calm->burst with
    probability ``p_enter``, burst->calm with ``p_exit``), then the gap
    is an exponential at the current regime's rate (``rate`` when calm,
    ``rate * burst_factor`` in a burst). Switch and gap draws come from
    separate substreams so each arrival consumes exactly one draw from
    each — the chunk-invariance requirement.
    """

    name = "bursty"

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        burst_factor: float = 5.0,
        p_enter: float = 0.02,
        p_exit: float = 0.10,
    ) -> None:
        super().__init__(rate, seed)
        if burst_factor <= 1.0:
            raise ConfigurationError(
                f"burst_factor must exceed 1, got {burst_factor}"
            )
        if not (0.0 < p_enter < 1.0 and 0.0 < p_exit < 1.0):
            raise ConfigurationError(
                f"switch probabilities must lie in (0, 1), got "
                f"p_enter={p_enter}, p_exit={p_exit}"
            )
        self.burst_factor = float(burst_factor)
        self.p_enter = float(p_enter)
        self.p_exit = float(p_exit)
        self._rates = np.array([self.rate, self.rate * self.burst_factor])
        self._flip = np.array([self.p_enter, self.p_exit])
        self._state = 0  # 0 = calm, 1 = burst
        self._rng_gap = spawn_rng(self.seed, "serving.arrivals.bursty.gap")
        self._rng_switch = spawn_rng(self.seed, "serving.arrivals.bursty.switch")

    def next_batch(self, n: int) -> np.ndarray:
        if n < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {n}")
        u = self._rng_switch.random(n)
        # Regime path: from regime `s` the next flip is the first later
        # arrival whose u is below that regime's flip probability. After a
        # flip at a hit of one list, the next flip is that hit's successor
        # in the other list, so two searchsorted calls give every
        # successor and the walk touches only plain ints.
        hits = (
            np.flatnonzero(u < self.p_enter),
            np.flatnonzero(u < self.p_exit),
        )
        successor = (
            np.searchsorted(hits[1], hits[0], side="right").tolist(),
            np.searchsorted(hits[0], hits[1], side="right").tolist(),
        )
        positions = (hits[0].tolist(), hits[1].tolist())
        flips = []
        state, k = self._state, 0
        while k < len(positions[state]):
            flips.append(positions[state][k])
            k = successor[state][k]
            state = 1 - state
        toggles = np.zeros(n, dtype=np.intp)
        toggles[flips] = 1
        # A flip at arrival f sets the regime of arrival f itself.
        states = (self._state + np.cumsum(toggles)) & 1
        self._state = int(state)
        gaps = self._rng_gap.exponential(1.0, size=n) / self._rates[states]
        return self._fold_gaps(gaps)

    def _capture_extra(self) -> dict:
        return {
            "state": int(self._state),
            "rng_gap": _rng_state(self._rng_gap),
            "rng_switch": _rng_state(self._rng_switch),
        }

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        self._state = int(state["state"])
        _set_rng_state(self._rng_gap, state["rng_gap"])
        _set_rng_state(self._rng_switch, state["rng_switch"])


class DiurnalArrivals(ArrivalProcess):
    """Inhomogeneous Poisson process with a sinusoidal daily profile.

    Instantaneous rate ``lambda(t) = rate * (1 + amplitude * sin(2 pi t /
    period))`` with ``amplitude < 1`` so the rate stays positive.
    Realized by time-rescaling: unit-rate exponential gaps advance an
    internal clock ``Gamma``, and each arrival time solves ``Lambda(t) =
    Gamma`` where ``Lambda`` is the cumulative rate. The inversion is a
    fixed-iteration vectorized bisection on the bracket
    ``[Gamma/rate - amplitude*period/pi, Gamma/rate]`` (the oscillating
    term of ``Lambda`` is bounded by ``rate*amplitude*period/pi``), so
    each arrival's time depends only on its own ``Gamma`` — chunk
    splitting cannot change it.
    """

    name = "diurnal"

    #: Bisection iterations: the bracket width ``amplitude*period/pi``
    #: shrinks by 2^-64, far below one float64 ulp at any realistic t.
    _BISECT_ITERS = 64

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        amplitude: float = 0.6,
        period: float = 1000.0,
    ) -> None:
        super().__init__(rate, seed)
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError(
                f"amplitude must lie in [0, 1), got {amplitude}"
            )
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self._gamma = 0.0  # rescaled (unit-rate) clock
        self._rng_gap = spawn_rng(self.seed, "serving.arrivals.diurnal.gap")

    def cumulative_rate(self, t: np.ndarray | float) -> np.ndarray | float:
        """``Lambda(t) = integral_0^t lambda(s) ds`` (vectorized)."""
        omega = 2.0 * np.pi / self.period
        return self.rate * (
            t + self.amplitude / omega * (1.0 - np.cos(omega * np.asarray(t)))
        )

    def next_batch(self, n: int) -> np.ndarray:
        if n < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {n}")
        gaps = self._rng_gap.exponential(1.0, size=n)
        gaps[0] += self._gamma
        gamma = np.cumsum(gaps)
        self._gamma = float(gamma[-1])
        # Invert Lambda(t) = gamma on a per-element bracket.
        slack = self.amplitude * self.period / np.pi
        hi = gamma / self.rate
        lo = np.maximum(hi - slack, 0.0)
        for _ in range(self._BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            below = self.cumulative_rate(mid) <= gamma
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        times = 0.5 * (lo + hi)
        self.now = float(times[-1])
        self.count += n
        return times

    def _capture_extra(self) -> dict:
        return {"gamma": float(self._gamma), "rng_gap": _rng_state(self._rng_gap)}

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        self._gamma = float(state["gamma"])
        _set_rng_state(self._rng_gap, state["rng_gap"])


def _rng_state(generator: np.random.Generator) -> dict:
    import copy

    return copy.deepcopy(generator.bit_generator.state)


def _set_rng_state(generator: np.random.Generator, state: Mapping) -> None:
    name = state.get("bit_generator")
    if name != type(generator.bit_generator).__name__:
        raise CheckpointError(
            f"RNG state is for bit generator {name!r}, live generator "
            f"uses {type(generator.bit_generator).__name__!r}"
        )
    import copy

    generator.bit_generator.state = copy.deepcopy(dict(state))


#: Process name -> class, for the CLI and the experiment configs.
ARRIVALS: dict[str, type[ArrivalProcess]] = {
    cls.name: cls
    for cls in (PoissonArrivals, BurstyArrivals, DiurnalArrivals)
}


def make_arrivals(
    name: str, rate: float, seed: int = 0, **kwargs: Any
) -> ArrivalProcess:
    """Build the named arrival process (``poisson``/``bursty``/``diurnal``)."""
    try:
        cls = ARRIVALS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown arrival process {name!r}; choose from {sorted(ARRIVALS)}"
        ) from None
    return cls(rate, seed, **kwargs)
