"""Non-linear increasing cost families.

The paper motivates DOLBIE partly by the fact that proportional schemes
such as ABS [3] "are not robust to non-linear cost functions" (§I, §II-B).
These families let the test suite, the ablation benches and the edge-
computing example exercise DOLBIE on genuinely non-linear, non-convex
costs:

* :class:`PowerLawCost` — ``a * x^p + c`` (convex for p>1, concave p<1);
* :class:`ExponentialCost` — ``a * (e^{k x} - 1) + c``;
* :class:`LogCost` — ``a * log(1 + k x) + c`` (concave, hence non-convex
  objective under the max);
* :class:`PiecewiseLinearCost` — increasing splines, models throughput
  cliffs (e.g. memory pressure past a knee);
* :class:`QueueingDelayCost` — M/M/1-style ``x / (mu - lam * x)`` sharp
  blow-up near saturation, the classic edge-server execution-delay model;
* :class:`SaturatingQueueingCost` — the same M/M/1 sojourn curve below a
  saturation knee, continued linearly above it, so the cost is defined on
  the whole simplex. The serving control plane evaluates costs at
  whatever allocation the routing policy actually played — possibly past
  a worker's stability region — and needs a finite (huge, steep) value
  there instead of a domain error. :class:`SaturatingQueueingCostVector`
  holds one control period's curves for the whole fleet as arrays.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.costs.base import DEFAULT_TOL, ConstantCost, CostFunction, CostVector
from repro.exceptions import CostFunctionError

__all__ = [
    "PowerLawCost",
    "ExponentialCost",
    "LogCost",
    "PiecewiseLinearCost",
    "QueueingDelayCost",
    "SaturatingQueueingCost",
    "SaturatingQueueingCostVector",
    "DEAD_WORKER_COST",
]

#: Cost a dead worker reports to the serving control plane: a constant far
#: above any finite sojourn, so a DOLBIE controller treats the dead worker
#: as the permanent straggler and steadily sheds its weight.
DEAD_WORKER_COST = 1.0e6


class PowerLawCost(CostFunction):
    """``f(x) = a * x**p + c`` with ``a, c >= 0`` and ``p > 0``."""

    def __init__(self, a: float, p: float, c: float = 0.0, x_max: float = 1.0) -> None:
        if a < 0 or c < 0:
            raise CostFunctionError("a and c must be non-negative")
        if p <= 0:
            raise CostFunctionError(f"exponent p must be positive, got {p}")
        self.a, self.p, self.c = float(a), float(p), float(c)
        self.x_max = float(x_max)

    def value(self, x: float) -> float:
        return self.a * x**self.p + self.c

    def level_inverse(self, level: float) -> float:
        if self.a == 0.0:
            return self.x_max
        arg = (level - self.c) / self.a
        if arg <= 0:
            return 0.0
        return arg ** (1.0 / self.p)

    def __repr__(self) -> str:
        return f"PowerLawCost(a={self.a:.4g}, p={self.p:.4g}, c={self.c:.4g})"


class ExponentialCost(CostFunction):
    """``f(x) = a * (exp(k x) - 1) + c`` with ``a, c >= 0`` and ``k > 0``."""

    def __init__(self, a: float, k: float, c: float = 0.0, x_max: float = 1.0) -> None:
        if a < 0 or c < 0:
            raise CostFunctionError("a and c must be non-negative")
        if k <= 0:
            raise CostFunctionError(f"rate k must be positive, got {k}")
        self.a, self.k, self.c = float(a), float(k), float(c)
        self.x_max = float(x_max)

    def value(self, x: float) -> float:
        return self.a * (math.exp(self.k * x) - 1.0) + self.c

    def level_inverse(self, level: float) -> float:
        if self.a == 0.0:
            return self.x_max
        arg = (level - self.c) / self.a + 1.0
        if arg <= 1.0:
            return 0.0
        return math.log(arg) / self.k

    def __repr__(self) -> str:
        return f"ExponentialCost(a={self.a:.4g}, k={self.k:.4g}, c={self.c:.4g})"


class LogCost(CostFunction):
    """``f(x) = a * log(1 + k x) + c`` — concave and increasing."""

    def __init__(self, a: float, k: float, c: float = 0.0, x_max: float = 1.0) -> None:
        if a < 0 or c < 0:
            raise CostFunctionError("a and c must be non-negative")
        if k <= 0:
            raise CostFunctionError(f"rate k must be positive, got {k}")
        self.a, self.k, self.c = float(a), float(k), float(c)
        self.x_max = float(x_max)

    def value(self, x: float) -> float:
        return self.a * math.log1p(self.k * x) + self.c

    def level_inverse(self, level: float) -> float:
        if self.a == 0.0:
            return self.x_max
        arg = (level - self.c) / self.a
        if arg <= 0:
            return 0.0
        return (math.exp(arg) - 1.0) / self.k

    def __repr__(self) -> str:
        return f"LogCost(a={self.a:.4g}, k={self.k:.4g}, c={self.c:.4g})"


class PiecewiseLinearCost(CostFunction):
    """Increasing piecewise-linear interpolation of (x, f) knots.

    Models throughput cliffs, e.g. a worker whose effective speed collapses
    once its assigned batch exceeds device memory. No analytic inverse is
    registered on purpose: this class exercises the bisection path of
    :meth:`repro.costs.base.CostFunction.max_acceptable` in tests.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        if len(xs) != len(ys) or len(xs) < 2:
            raise CostFunctionError("need >= 2 matching knots")
        pairs = sorted(zip(xs, ys))
        self.xs = [float(x) for x, _ in pairs]
        self.ys = [float(y) for _, y in pairs]
        if self.xs[0] != 0.0:
            raise CostFunctionError("first knot must be at x=0")
        for a, b in zip(self.ys, self.ys[1:]):
            if b < a:
                raise CostFunctionError("knot values must be non-decreasing")
        self.x_max = self.xs[-1]

    def value(self, x: float) -> float:
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0]
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
            if x <= x1:
                if x1 == x0:
                    return y1
                frac = (x - x0) / (x1 - x0)
                return y0 + frac * (y1 - y0)
        return ys[-1]

    def __repr__(self) -> str:
        return f"PiecewiseLinearCost({len(self.xs)} knots)"


class QueueingDelayCost(CostFunction):
    """M/M/1-style sojourn delay ``f(x) = 1 / (mu - lam * x) + c``.

    ``mu`` is the service rate and ``lam * x`` the arrival rate routed to
    this server when it receives fraction ``x`` of the workload. The
    domain is capped strictly below saturation (``lam * x < mu``), which
    models an edge server that must remain stable (§III-B Example 2).
    """

    def __init__(
        self,
        mu: float,
        lam: float,
        c: float = 0.0,
        x_max: float = 1.0,
        safety: float = 0.999,
    ) -> None:
        if mu <= 0 or lam <= 0:
            raise CostFunctionError("mu and lam must be positive")
        if c < 0:
            raise CostFunctionError("c must be non-negative")
        self.mu, self.lam, self.c = float(mu), float(lam), float(c)
        # Restrict the domain so the queue never saturates.
        self.x_max = min(float(x_max), safety * mu / lam)
        if self.x_max <= 0:
            raise CostFunctionError("domain collapses: mu too small relative to lam")

    def value(self, x: float) -> float:
        denom = self.mu - self.lam * x
        if denom <= 0:
            raise CostFunctionError(f"queue saturated at x={x} (mu={self.mu}, lam={self.lam})")
        return 1.0 / denom + self.c

    def level_inverse(self, level: float) -> float:
        gap = level - self.c
        if gap <= 0:
            return 0.0
        # 1/(mu - lam x) = gap  =>  x = (mu - 1/gap) / lam
        return (self.mu - 1.0 / gap) / self.lam

    def __repr__(self) -> str:
        return f"QueueingDelayCost(mu={self.mu:.4g}, lam={self.lam:.4g}, c={self.c:.4g})"


class SaturatingQueueingCost(CostFunction):
    """M/M/1 sojourn delay with a finite linear extension past saturation.

    Below the knee ``x_knee = knee * mu / lam`` this is exactly
    :class:`QueueingDelayCost`: ``f(x) = 1 / (mu - lam x) + c``. At the
    knee the curve continues as the tangent line, whose slope
    ``lam / (mu - lam x_knee)^2`` is enormous for ``knee`` close to 1 —
    so an overloaded worker looks catastrophically (but finitely)
    expensive rather than raising a domain error. ``f`` is C^1,
    strictly increasing, and defined on all of ``[0, x_max]``, which is
    what the serving control plane needs: the measured allocation can
    sit anywhere on the simplex, including past a slow worker's
    stability region.
    """

    def __init__(
        self,
        mu: float,
        lam: float,
        c: float = 0.0,
        x_max: float = 1.0,
        knee: float = 0.95,
    ) -> None:
        if mu <= 0 or lam <= 0:
            raise CostFunctionError("mu and lam must be positive")
        if c < 0:
            raise CostFunctionError("c must be non-negative")
        if not 0 < knee < 1:
            raise CostFunctionError(f"knee must lie in (0, 1), got {knee}")
        self.mu, self.lam, self.c = float(mu), float(lam), float(c)
        self.x_max = float(x_max)
        self.x_knee = knee * self.mu / self.lam
        denom_knee = self.mu - self.lam * self.x_knee  # = (1 - knee) * mu
        self.f_knee = 1.0 / denom_knee
        self.slope = self.lam / denom_knee**2

    def value(self, x: float) -> float:
        if x < self.x_knee:
            return 1.0 / (self.mu - self.lam * x) + self.c
        return self.f_knee + self.slope * (x - self.x_knee) + self.c

    def level_inverse(self, level: float) -> float:
        gap = level - self.c
        if gap <= 0:
            return 0.0
        if gap < self.f_knee:
            # 1/(mu - lam x) = gap  =>  x = (mu - 1/gap) / lam
            return (self.mu - 1.0 / gap) / self.lam
        return self.x_knee + (gap - self.f_knee) / self.slope

    def __repr__(self) -> str:
        return (
            f"SaturatingQueueingCost(mu={self.mu:.4g}, lam={self.lam:.4g}, "
            f"c={self.c:.4g}, x_knee={self.x_knee:.4g})"
        )


class SaturatingQueueingCostVector(CostVector):
    """``N`` :class:`SaturatingQueueingCost` curves at one arrival rate,
    dead workers masked.

    Entry ``i`` is ``SaturatingQueueingCost(mu[i], lam)`` (default ``c``
    and ``knee``, as the serving control plane builds them) or, where
    ``dead[i]``, ``ConstantCost(DEAD_WORKER_COST)``. :meth:`values` and
    :meth:`max_acceptable` mirror ``SaturatingQueueingCost.__call__`` /
    ``value`` / ``level_inverse`` and :meth:`CostFunction.max_acceptable`
    branch by branch, so every entry is bit-identical to the scalar call
    on that entry:

    * the knee parameters are the constructor's float64 expressions, with
      ``d ** 2`` as ``np.float_power`` (libm ``pow``, as Python's ``**``;
      numpy's ``**`` squares, which rounds differently);
    * ``values`` runs in :attr:`dtype` (a float32 input meets Python-float
      parameters as float32), except at a clamped input, where the scalar
      call evaluates ``value(0.0)`` / ``value(1.0)`` in float64;
    * ``max_acceptable`` runs in float64, as the scalar method does, and
      rounds to :attr:`dtype` at the end; ``np.where`` on the comparisons
      Python's ``min`` / ``max`` make reproduces their tie handling.

    The scalar default ``c = 0`` adds nothing to a value or a level, so
    it does not appear here.
    """

    #: ``SaturatingQueueingCost``'s default knee.
    KNEE = 0.95

    __slots__ = ("mu", "lam", "dead", "dtype", "_p64", "_f0", "_f1", "_items")

    def __init__(
        self, mu: np.ndarray, lam: float, dead: np.ndarray | None = None
    ) -> None:
        mu = np.asarray(mu, dtype=np.float64)
        if mu.ndim != 1:
            raise CostFunctionError(f"mu must be a 1-D vector, got shape {mu.shape}")
        n = mu.size
        lam = float(lam)
        dead = np.zeros(n, dtype=bool) if dead is None else np.asarray(dead, dtype=bool)
        if dead.shape != (n,):
            raise CostFunctionError(f"dead mask {dead.shape} != ({n},)")
        # The scalar constructor's check, on the live entries.
        if lam <= 0 or (mu <= 0)[~dead].any():
            raise CostFunctionError("mu and lam must be positive")
        self.mu, self.lam, self.dead = mu, lam, dead
        self.dtype = np.dtype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_knee = self.KNEE * mu / lam
            denom_knee = mu - lam * x_knee
            f_knee = 1.0 / denom_knee
            slope = lam / np.float_power(denom_knee, 2.0)
            self._p64 = (mu, np.float64(lam), x_knee, f_knee, slope)
            # value(0.0) and value(x_max): the first two branches of
            # max_acceptable, and __call__ at a clamped input.
            self._f0, self._f1 = self._value(np.array([[0.0], [1.0]]), self._p64)
        self._items: list[CostFunction | None] = [None] * n

    @staticmethod
    def _value(x, params) -> np.ndarray:
        """``SaturatingQueueingCost.value`` at ``x``."""
        mu, lam, x_knee, f_knee, slope = params
        return np.where(
            x < x_knee, 1.0 / (mu - lam * x), f_knee + slope * (x - x_knee)
        )

    def __len__(self) -> int:
        return self.mu.size

    def __getitem__(self, index: int) -> CostFunction:
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(index)
        item = self._items[i]
        if item is None:
            if self.dead[i]:
                item = ConstantCost(DEAD_WORKER_COST)
            else:
                item = SaturatingQueueingCost(mu=float(self.mu[i]), lam=self.lam)
            self._items[i] = item
        return item

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized ``[f_i(x_i)]`` with the scalar ``__call__`` semantics."""
        dtype = self.dtype
        x = np.asarray(x, dtype=dtype)
        if x.shape != self.mu.shape:
            raise CostFunctionError(
                f"allocation shape {x.shape} != costs shape {self.mu.shape}"
            )
        lo, hi = x.min(), x.max()
        if lo < -DEFAULT_TOL or hi > 1.0 + DEFAULT_TOL:
            raise CostFunctionError(
                f"allocation {x!r} outside domain [0, 1] of {self!r}"
            )
        params = self._p64
        if dtype != params[0].dtype:
            with np.errstate(over="ignore"):
                params = tuple(p.astype(dtype) for p in params)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = self._value(x, params)
        # __call__ clamps to the float 0.0 / 1.0, evaluated in float64.
        if lo < 0.0:
            out = np.where(x < 0.0, self._f0.astype(dtype), out)
        if hi > 1.0:
            out = np.where(x > 1.0, self._f1.astype(dtype), out)
        return np.where(self.dead, dtype.type(DEAD_WORKER_COST), out)

    def max_acceptable(self, level: float) -> np.ndarray:
        """Vectorized x-tilde of Eq. (4), one entry per worker."""
        mu, lam, x_knee, f_knee, slope = self._p64
        gap = np.float64(level)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            below_knee = (mu - 1.0 / gap) / lam
            past_knee = x_knee + (gap - f_knee) / slope
        analytic = np.where(
            gap <= 0, 0.0, np.where(gap < f_knee, below_knee, past_knee)
        )
        # min(max(analytic, 0.0), x_max), with Python's tie handling.
        caps = np.where(0.0 > analytic, 0.0, analytic)
        caps = np.where(1.0 < caps, 1.0, caps)
        caps = np.where(self._f1 <= level, 1.0, caps)
        caps = np.where(self._f0 > level, 0.0, caps)
        dead_cap = ConstantCost(DEAD_WORKER_COST).max_acceptable(level)
        caps = np.where(self.dead, dead_cap, caps)
        return caps.astype(self.dtype, copy=False)

    def astype(self, dtype) -> "SaturatingQueueingCostVector":
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        other = object.__new__(SaturatingQueueingCostVector)
        for name in self.__slots__:
            setattr(other, name, getattr(self, name))
        other.dtype = dtype
        return other

    def __repr__(self) -> str:
        return (
            f"SaturatingQueueingCostVector(N={len(self)}, "
            f"dead={int(self.dead.sum())})"
        )
