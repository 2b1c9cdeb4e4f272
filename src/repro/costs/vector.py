"""One way for a round to read its costs: as a :class:`CostVector`.

:func:`as_cost_vector` turns whatever a round was handed into a cost
vector in the round's dtype. An array-backed vector
(:class:`~repro.costs.affine_vector.AffineCostVector`,
:class:`~repro.costs.nonlinear.SaturatingQueueingCostVector`) is used as
is, a list of plain affine costs is packed into an ``AffineCostVector``,
and any other list is wrapped in a :class:`ScalarCostVector`, which
makes exactly the scalar calls the rounds made before cost vectors
existed. The rounds therefore have one code path for every kind of cost.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.costs.affine_vector import AffineCostVector
from repro.costs.base import CostFunction, CostVector

__all__ = ["ScalarCostVector", "as_cost_vector"]


class ScalarCostVector(CostVector):
    """Any list of costs as a :class:`CostVector`: one scalar call per entry.

    With ``among`` (sorted worker indices) only those entries are
    evaluated, in that order: the others read NaN from :meth:`values` (no
    cost reported) and 0 from :meth:`max_acceptable` (no work accepted).
    """

    __slots__ = ("costs", "dtype", "among")

    def __init__(
        self,
        costs: Sequence[CostFunction],
        dtype=np.float64,
        among: np.ndarray | None = None,
    ) -> None:
        self.costs = costs
        self.dtype = np.dtype(dtype)
        self.among = among

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, index: int) -> CostFunction:
        return self.costs[index]

    def values(self, x: np.ndarray) -> np.ndarray:
        costs = self.costs
        if self.among is None:
            return np.asarray(
                [fn(xi) for fn, xi in zip(costs, x)], dtype=self.dtype
            )
        out = np.full(len(costs), np.nan, dtype=self.dtype)
        out[self.among] = [costs[i](x[i]) for i in self.among.tolist()]
        return out

    def max_acceptable(self, level: float) -> np.ndarray:
        costs = self.costs
        if self.among is None:
            return np.asarray(
                [fn.max_acceptable(level) for fn in costs], dtype=self.dtype
            )
        out = np.zeros(len(costs), dtype=self.dtype)
        out[self.among] = [
            costs[i].max_acceptable(level) for i in self.among.tolist()
        ]
        return out

    def astype(self, dtype) -> "ScalarCostVector":
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        return ScalarCostVector(self.costs, dtype, self.among)

    def __repr__(self) -> str:
        return f"ScalarCostVector(N={len(self)})"


def as_cost_vector(
    costs: Sequence[CostFunction],
    dtype=np.float64,
    among: np.ndarray | None = None,
) -> CostVector:
    """``costs`` as a :class:`CostVector` evaluating in ``dtype``.

    ``among`` limits a :class:`ScalarCostVector` to those workers; an
    array-backed vector evaluates every entry regardless, which costs no
    more than evaluating some.
    """
    if isinstance(costs, CostVector):
        return costs.astype(dtype)
    affine = AffineCostVector.coerce(costs)
    if affine is not None:
        return affine.astype(dtype)
    return ScalarCostVector(costs, dtype, among)
