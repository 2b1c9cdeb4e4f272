"""Cost-function abstraction for online min-max load balancing.

The paper's problem (Eq. 1-3) is defined over per-worker local cost
functions ``f_{i,t}(x)`` that are *increasing* (not necessarily strictly)
in the workload fraction ``x``. DOLBIE interacts with a cost function
through exactly two operations:

1. evaluation ``f(x)`` — "suffer cost" (Alg. 1, line 2), and
2. the *level inverse* ``max { x : f(x) <= l }`` — the quantity x-tilde of
   Eq. (4), computed either analytically (when the subclass provides
   :meth:`CostFunction.level_inverse`) or by bracketed bisection.

Subclasses implement :meth:`CostFunction.value`; an analytic inverse is an
optional fast path that is cross-checked against the bisection fallback in
the test suite.

A round asks those two questions of every worker at once, so the hot
paths take a :class:`CostVector`: the ``N`` costs of one round answering
both for all workers with array operations.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence

from repro.exceptions import CostFunctionError

__all__ = [
    "CostFunction",
    "CostVector",
    "CallableCost",
    "ConstantCost",
    "compose_max",
]

#: Default numeric tolerance for level-inverse computations.
DEFAULT_TOL = 1e-12


class CostFunction(abc.ABC):
    """An increasing cost function ``f : [0, x_max] -> R``.

    The domain is ``[0, x_max]`` with ``x_max = 1`` by default (workload
    fractions). Implementations must be non-decreasing on the domain; this
    is the only structural assumption DOLBIE makes (§III-C).
    """

    #: Upper end of the domain. Problem (1) constrains x <= 1.
    x_max: float = 1.0

    @abc.abstractmethod
    def value(self, x: float) -> float:
        """Evaluate the cost at workload fraction ``x``."""

    def __call__(self, x: float) -> float:
        if x < -DEFAULT_TOL or x > self.x_max + DEFAULT_TOL:
            raise CostFunctionError(
                f"workload {x!r} outside domain [0, {self.x_max}] of {self!r}"
            )
        return self.value(min(max(x, 0.0), self.x_max))

    def level_inverse(self, level: float) -> float | None:
        """Analytic ``max { x in [0, x_max] : f(x) <= level }`` if available.

        Return ``None`` (the default) to request the bisection fallback.
        If ``f(0) > level`` there is no feasible x; implementations should
        then return ``-inf`` sentinel via :func:`level_inverse_or_bisect`
        handling — here, simply return ``None`` and let the caller decide.
        """
        return None

    def max_acceptable(self, level: float, tol: float = 1e-10) -> float:
        """Return x-tilde of Eq. (4): the largest feasible workload at ``level``.

        Follows §IV-A: since ``f`` is increasing, the set
        ``{x : f(x) <= level}`` is an interval ``[0, x~]`` (possibly empty).
        Returns 0.0 when even ``f(0) > level`` — the worker cannot accept
        any work at this level, and the truncation in Eq. (4) combined with
        non-negativity makes 0 the correct degenerate answer.
        """
        if self.value(0.0) > level:
            return 0.0
        if self.value(self.x_max) <= level:
            return self.x_max
        analytic = self.level_inverse(level)
        if analytic is not None:
            return min(max(analytic, 0.0), self.x_max)
        # Bisection fallback: invariant f(lo) <= level < f(hi).
        lo, hi = 0.0, self.x_max
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.value(mid) <= level:
                lo = mid
            else:
                hi = mid
        return lo

    def lipschitz_estimate(self, samples: int = 256) -> float:
        """Estimate the Lipschitz constant L of Assumption 1 numerically.

        Uses the maximum slope over a uniform grid; exact for convex or
        concave costs up to grid resolution, a sound estimate otherwise.
        """
        if samples < 2:
            raise ValueError("need at least 2 samples")
        step = self.x_max / (samples - 1)
        best = 0.0
        prev = self.value(0.0)
        for k in range(1, samples):
            cur = self.value(k * step)
            best = max(best, abs(cur - prev) / step)
            prev = cur
        return best

    def is_increasing(self, samples: int = 128, atol: float = 1e-9) -> bool:
        """Check monotonicity on a grid (used by tests and validation)."""
        step = self.x_max / (samples - 1)
        prev = self.value(0.0)
        for k in range(1, samples):
            cur = self.value(k * step)
            if cur < prev - atol:
                return False
            prev = cur
        return True


class CostVector(Sequence[CostFunction]):
    """The ``N`` per-worker costs of one round, evaluated as arrays.

    Each round of problem (1) needs every worker's cost at its played
    workload and its acceptable workload at the agreed level (Eq. 4). A
    cost vector answers both for all workers at once, bit-identical to
    the scalar :class:`CostFunction` calls on its items. It is still a
    ``Sequence``: indexing returns a real scalar cost object (built on
    first access, then cached), so code written against a list of costs
    keeps working.
    """

    __slots__ = ()

    @abc.abstractmethod
    def values(self, x):
        """``[f_i(x_i)]`` in the vector's dtype, with the domain check
        and clamping of :meth:`CostFunction.__call__`."""

    @abc.abstractmethod
    def max_acceptable(self, level: float):
        """``[f_i.max_acceptable(level)]`` (x-tilde of Eq. (4)) in the
        vector's dtype."""

    @abc.abstractmethod
    def astype(self, dtype) -> "CostVector":
        """This vector evaluating in ``dtype`` (``self`` when it already
        does)."""


class CallableCost(CostFunction):
    """Adapt an arbitrary increasing callable into a :class:`CostFunction`.

    >>> f = CallableCost(lambda x: x ** 2 + 0.1)
    >>> round(f(0.5), 3)
    0.35
    """

    def __init__(
        self,
        func: Callable[[float], float],
        x_max: float = 1.0,
        inverse: Callable[[float], float] | None = None,
        label: str = "callable",
    ) -> None:
        if x_max <= 0:
            raise CostFunctionError(f"x_max must be positive, got {x_max}")
        self._func = func
        self._inverse = inverse
        self.x_max = float(x_max)
        self.label = label

    def value(self, x: float) -> float:
        return float(self._func(x))

    def level_inverse(self, level: float) -> float | None:
        if self._inverse is None:
            return None
        return float(self._inverse(level))

    def __repr__(self) -> str:
        return f"CallableCost({self.label})"


class ConstantCost(CostFunction):
    """A workload-independent cost (e.g. pure communication time).

    Degenerate but valid: "increasing, but not necessarily strictly
    increasing" (§III-C). Its level inverse is all of [0, 1] whenever the
    level clears the constant.
    """

    def __init__(self, c: float, x_max: float = 1.0) -> None:
        if not math.isfinite(c) or c < 0:
            raise CostFunctionError(f"constant cost must be finite and >= 0, got {c}")
        self.c = float(c)
        self.x_max = float(x_max)

    def value(self, x: float) -> float:
        return self.c

    def level_inverse(self, level: float) -> float:
        return self.x_max if level >= self.c else 0.0

    def __repr__(self) -> str:
        return f"ConstantCost({self.c})"


def compose_max(*costs: CostFunction) -> CallableCost:
    """Pointwise maximum of increasing costs (itself increasing).

    Useful to model a worker whose latency is the max of independent
    pipeline stages.
    """
    if not costs:
        raise CostFunctionError("compose_max requires at least one cost")
    x_max = min(c.x_max for c in costs)
    return CallableCost(
        lambda x: max(c.value(x) for c in costs),
        x_max=x_max,
        label="max(" + ", ".join(repr(c) for c in costs) + ")",
    )
