"""Array-backed batches of affine latency costs (the materialized fast path).

A round of the training environment reveals ``N`` affine costs
``f_i(x) = a_i x + b_i``. The incremental path represents them as a
``list[AffineLatencyCost]``, which forces every vectorized consumer
(:func:`repro.core.quantities.acceptable_workloads`, the min-max solver,
:func:`repro.core.interface.make_feedback`) to re-extract ``a_i``/``b_i``
attribute-by-attribute each round. :class:`AffineCostVector` stores the
slopes and intercepts as two contiguous arrays instead, so those consumers
read them in O(1) while everything written against the generic
:class:`~repro.costs.base.CostFunction` sequence API keeps working:
indexing returns a real :class:`AffineLatencyCost` (made on first access,
then cached), iteration and ``len`` behave like the list did.

Bit-exactness contract: every vectorized helper here performs the same
IEEE-754 double operations, in the same order, as the scalar methods of
:class:`AffineLatencyCost` — ``value`` is ``a * x + b``, the acceptable
workload mirrors :meth:`CostFunction.max_acceptable`'s branch structure.
The equivalence tests assert the results are bit-identical.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.backend import as_float
from repro.costs.affine import AffineLatencyCost
from repro.costs.base import DEFAULT_TOL, CostVector
from repro.exceptions import CostFunctionError

__all__ = ["AffineCostVector"]


class AffineCostVector(CostVector):
    """``N`` affine costs ``f_i(x) = slopes[i] * x + intercepts[i]`` on [0, 1]."""

    __slots__ = ("slopes", "intercepts", "_items", "_safe_slopes", "_f_at_one")

    def __init__(
        self,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        validate: bool = True,
    ) -> None:
        # Dtype-generic: float32/float64 input keeps its precision (the
        # array-backend plumbing relies on this); anything else lands on
        # float64 exactly as the historical dtype=float coercion did.
        slopes = as_float(slopes)
        intercepts = np.asarray(intercepts, dtype=slopes.dtype)
        if slopes.ndim != 1 or slopes.shape != intercepts.shape:
            raise CostFunctionError(
                f"slopes {slopes.shape} and intercepts {intercepts.shape} "
                "must be matching 1-D vectors"
            )
        if validate:
            if not (np.isfinite(slopes).all() and (slopes >= 0).all()):
                raise CostFunctionError("slopes must be finite and >= 0")
            if not (np.isfinite(intercepts).all() and (intercepts >= 0).all()):
                raise CostFunctionError("intercepts must be finite and >= 0")
        self.slopes = slopes
        self.intercepts = intercepts
        # Indexed items, made on first access (a round reads none).
        self._items: dict[int, AffineLatencyCost] = {}
        # Hoisted invariants for max_acceptable: a division-safe slope
        # vector (zero-slope entries are fully resolved by the two where
        # branches, so their quotient never contributes) and f_i(1). Both
        # are computed once instead of per level query.
        self._safe_slopes = np.where(slopes == 0.0, 1.0, slopes)
        self._f_at_one = slopes * 1.0 + intercepts

    @classmethod
    def from_costs(cls, costs: Sequence[AffineLatencyCost]) -> "AffineCostVector":
        """Pack a list of affine costs (all with the default domain) into arrays."""
        if not all(type(c) is AffineLatencyCost and c.x_max == 1.0 for c in costs):
            raise CostFunctionError(
                "from_costs requires AffineLatencyCost instances on [0, 1]"
            )
        return cls(
            np.array([c.slope for c in costs]),
            np.array([c.intercept for c in costs]),
            validate=False,
        )

    @classmethod
    def coerce(cls, costs: Sequence) -> "AffineCostVector | None":
        """``costs`` as an :class:`AffineCostVector` if representable.

        Returns the input unchanged when it already is one, packs a list
        of plain default-domain :class:`AffineLatencyCost` objects, and
        returns ``None`` for anything else (callers then take a scalar
        per-cost loop, which is bit-identical by construction).
        """
        if isinstance(costs, cls):
            return costs
        if all(type(c) is AffineLatencyCost and c.x_max == 1.0 for c in costs):
            return cls.from_costs(costs)
        return None

    def __len__(self) -> int:
        return self.slopes.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AffineCostVector(
                self.slopes[index], self.intercepts[index], validate=False
            )
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(index)
        item = self._items.get(i)
        if item is None:
            item = self._items[i] = AffineLatencyCost(
                slope=float(self.slopes[i]), intercept=float(self.intercepts[i])
            )
        return item

    def __iter__(self) -> Iterator[AffineLatencyCost]:
        for i in range(len(self)):
            yield self[i]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized ``[f_i(x_i)]`` with the scalar ``__call__`` semantics.

        Raises outside the tolerance-padded domain and clamps inside it,
        exactly like :meth:`CostFunction.__call__` does per element.
        """
        x = np.asarray(x, dtype=self.slopes.dtype)
        if x.shape != self.slopes.shape:
            raise CostFunctionError(
                f"allocation shape {x.shape} != costs shape {self.slopes.shape}"
            )
        if x.min() < -DEFAULT_TOL or x.max() > 1.0 + DEFAULT_TOL:
            raise CostFunctionError(
                f"allocation {x!r} outside domain [0, 1] of {self!r}"
            )
        return self.slopes * np.minimum(np.maximum(x, 0.0), 1.0) + self.intercepts

    def max_acceptable(self, level: float) -> np.ndarray:
        """Vectorized x-tilde of Eq. (4), one entry per worker.

        Mirrors :meth:`CostFunction.max_acceptable` branch-for-branch:
        ``f(0) > level`` gives 0, ``f(1) <= level`` gives 1, otherwise the
        clamped closed-form level inverse. Zero-slope entries are fully
        resolved by the first two branches (``f(0) == f(1)``), so the
        division never contributes there.
        """
        tilde = (level - self.intercepts) / self._safe_slopes
        caps = np.minimum(np.maximum(tilde, 0.0), 1.0)
        caps = np.where(self._f_at_one <= level, 1.0, caps)
        return np.where(self.intercepts > level, 0.0, caps)

    def astype(self, dtype) -> "AffineCostVector":
        """A copy of this vector in ``dtype`` (no-op object reuse on match).

        The float32 backend path converts the environment's (float64)
        revealed costs once per round through here; all later arithmetic
        then runs natively in the backend dtype.
        """
        dtype = np.dtype(dtype)
        if dtype == self.slopes.dtype:
            return self
        return AffineCostVector(
            self.slopes.astype(dtype), self.intercepts.astype(dtype),
            validate=False,
        )

    def zero_load_floor(self) -> float:
        """``max_i f_i(0)`` — the solver's lower bisection bracket."""
        return float(self.intercepts.max())

    def __repr__(self) -> str:
        return f"AffineCostVector(N={len(self)})"
