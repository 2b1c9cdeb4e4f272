"""Instantaneous min-max solver: the OPT comparator (§VI-B).

Solves, for one round's revealed costs,

    min_{x in simplex}  max_i f_i(x_i)

with increasing ``f_i``. For this problem class the optimum is
characterized by a *level*: a target cost ``l`` is achievable iff the
largest workloads acceptable at that level sum to at least one,

    phi(l) = sum_i max{ x in [0,1] : f_i(x) <= l } >= 1,

and ``phi`` is non-decreasing in ``l``. The solver therefore bisects on
``l`` (exact up to tolerance, no convexity needed) and recovers a feasible
allocation by scaling the acceptable workloads down onto the simplex. This
implements both the Dynamic Optimum baseline of the experiments and the
comparator ``x_t*`` in the dynamic-regret definition (§V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend import as_float
from repro.costs.affine_vector import AffineCostVector
from repro.costs.base import CostFunction
from repro.exceptions import SolverError

__all__ = [
    "MinMaxSolution",
    "solve_min_max",
    "solve_min_max_rows",
    "evaluate_allocation",
]


@dataclass(frozen=True)
class MinMaxSolution:
    """Solution of one instantaneous min-max problem."""

    allocation: np.ndarray
    value: float
    level: float
    iterations: int


def evaluate_allocation(
    costs: Sequence[CostFunction], x: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """Per-worker costs, global cost, and straggler index for allocation ``x``.

    Ties break toward the lowest worker index, matching the paper's
    "select the worker that ranks higher in the worker list" rule
    (Alg. 1 line 11, Alg. 2 line 7).
    """
    if len(costs) != len(x):
        raise SolverError(f"got {len(costs)} costs but {len(x)} allocations")
    if isinstance(costs, AffineCostVector):
        # Array-backed affine batch: same per-element arithmetic as the
        # scalar calls below, minus the N Python-level round trips.
        local = costs.values(np.asarray(x, dtype=float))
    else:
        local = np.array([f(xi) for f, xi in zip(costs, x)], dtype=float)
    straggler = int(local.argmax())  # argmax returns the first (lowest) index
    return local, float(local[straggler]), straggler


def _affine_waterfill_level(costs: AffineCostVector) -> float:
    """Exact optimal level for a batch of affine costs on the simplex.

    ``phi(l) = sum_i min((l - b_i) / a_i, 1)`` (plus one per zero-slope
    worker) is piecewise linear and non-decreasing for ``l >= max_i b_i``,
    with breakpoints at the saturation levels ``a_i + b_i``. The optimum
    is either the zero-load floor (when the floor is already achievable)
    or the unique ``l`` with ``phi(l) = 1``, solved on its linear segment.
    """
    floor = costs.zero_load_floor()
    if costs.max_acceptable(floor).sum() >= 1.0:
        return floor
    positive = costs.slopes > 0.0
    # Zero-slope workers all have b_i <= floor < l, so each contributes a
    # full unit of acceptable workload on every segment considered here.
    saturated_base = int(np.count_nonzero(~positive))
    slopes = costs.slopes[positive]
    intercepts = costs.intercepts[positive]
    saturation = slopes + intercepts
    order = np.argsort(saturation, kind="stable")
    saturation = saturation[order]
    inv_slopes = 1.0 / slopes[order]
    weighted = intercepts[order] * inv_slopes
    # Suffix sums: entry k aggregates the workers still unsaturated once
    # the k lowest saturation levels have been passed.
    suffix_inv = np.concatenate((np.cumsum(inv_slopes[::-1])[::-1], [0.0]))
    suffix_weighted = np.concatenate((np.cumsum(weighted[::-1])[::-1], [0.0]))
    ks = np.arange(1, saturation.size + 1)
    phi_at_breakpoints = (
        saturated_base + ks + saturation * suffix_inv[ks] - suffix_weighted[ks]
    )
    # phi at the last breakpoint is the worker count (>= 1 by the n >= 2
    # guard upstream), so a crossing segment always exists.
    k = int(np.argmax(phi_at_breakpoints >= 1.0))
    level = (1.0 - saturated_base - k + suffix_weighted[k]) / suffix_inv[k]
    # Clamp float dust onto the segment [floor, saturation[k]].
    return float(min(max(level, floor), saturation[k]))


def _max_acceptable_rows(
    slopes: np.ndarray, intercepts: np.ndarray, level: np.ndarray
) -> np.ndarray:
    """Row-wise :meth:`AffineCostVector.max_acceptable` (positive slopes).

    ``level`` is a ``(T, 1)`` column; every elementwise operation mirrors
    the single-round method, so each row is bit-identical to it.
    """
    tilde = (level - intercepts) / slopes
    caps = np.minimum(np.maximum(tilde, 0.0), 1.0)
    caps = np.where(slopes * 1.0 + intercepts <= level, 1.0, caps)
    return np.where(intercepts > level, 0.0, caps)


def solve_min_max_rows(
    slope_matrix: np.ndarray,
    intercept_matrix: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``T`` independent affine min-max rounds in one batched pass.

    Row ``t`` is solved by the same closed-form waterfilling arithmetic as
    ``solve_min_max(AffineCostVector(slopes[t], intercepts[t]))`` — every
    elementwise/cumulative operation below runs per row in the identical
    order, so the results are bit-identical to the per-round solves. Used
    by the clairvoyant OPT baseline on materialized environments, where
    all ``T`` rounds are known upfront and independent.

    Requires strictly positive slopes (always true for ``B / speed``
    compute costs); returns ``(allocations (T, N), values (T,), levels
    (T,))``.
    """
    # Dtype-generic: float32 matrices solve natively in float32 (the
    # array-backend plumbing relies on this); everything else lands on
    # float64 exactly as the historical dtype=float coercion did.
    slopes = as_float(slope_matrix)
    intercepts = np.asarray(intercept_matrix, dtype=slopes.dtype)
    if slopes.ndim != 2 or slopes.shape != intercepts.shape:
        raise SolverError("slope and intercept matrices must share a 2-D shape")
    if slopes.shape[1] < 2:
        raise SolverError("batched solve needs at least two workers")
    if not (slopes > 0.0).all():
        raise SolverError("batched solve requires strictly positive slopes")
    rows_t, n = slopes.shape
    rows = np.arange(rows_t)

    floor = intercepts.max(axis=1, keepdims=True)  # (T, 1) zero-load floors
    at_floor = _max_acceptable_rows(slopes, intercepts, floor).sum(axis=1) >= 1.0

    saturation = slopes + intercepts
    order = np.argsort(saturation, axis=1, kind="stable")
    saturation = np.take_along_axis(saturation, order, axis=1)
    inv_slopes = 1.0 / np.take_along_axis(slopes, order, axis=1)
    weighted = np.take_along_axis(intercepts, order, axis=1) * inv_slopes
    zeros = np.zeros((rows_t, 1), dtype=slopes.dtype)
    suffix_inv = np.concatenate(
        (np.cumsum(inv_slopes[:, ::-1], axis=1)[:, ::-1], zeros), axis=1
    )
    suffix_weighted = np.concatenate(
        (np.cumsum(weighted[:, ::-1], axis=1)[:, ::-1], zeros), axis=1
    )
    ks = np.arange(1, n + 1)
    phi = ks[None, :] + saturation * suffix_inv[:, 1:] - suffix_weighted[:, 1:]
    k = np.argmax(phi >= 1.0, axis=1)  # first crossing segment per row
    level = (1.0 - k + suffix_weighted[rows, k]) / suffix_inv[rows, k]
    level = np.minimum(np.maximum(level, floor[:, 0]), saturation[rows, k])
    level = np.where(at_floor, floor[:, 0], level)

    caps = _max_acceptable_rows(slopes, intercepts, level[:, None])
    total = caps.sum(axis=1)
    short = total < 1.0
    if short.any():
        # Same numerical bump guard as the scalar solver, per short row.
        bump = np.maximum(tol, level * tol)
        for _ in range(64):
            level = np.where(short, level + bump, level)
            bump = np.where(short, bump * 2.0, bump)
            caps = np.where(
                short[:, None],
                _max_acceptable_rows(slopes, intercepts, level[:, None]),
                caps,
            )
            total = caps.sum(axis=1)
            short = total < 1.0
            if not short.any():
                break
        else:  # pragma: no cover - defensive
            raise SolverError("could not reach a feasible level in some rounds")
    allocations = caps / total[:, None]
    clipped = np.minimum(np.maximum(allocations, 0.0), 1.0)
    values = (slopes * clipped + intercepts).max(axis=1)
    return allocations, values, level


def solve_min_max(
    costs: Sequence[CostFunction],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> MinMaxSolution:
    """Solve ``min_x max_i f_i(x_i)`` on the simplex by level bisection."""
    n = len(costs)
    if n < 1:
        raise SolverError("need at least one cost function")
    if n == 1:
        x = np.array([1.0])
        return MinMaxSolution(allocation=x, value=costs[0](1.0), level=costs[0](1.0), iterations=0)

    if isinstance(costs, AffineCostVector):
        # Array-backed affine batch: phi is piecewise linear with known
        # breakpoints, so the level is solved in closed form — no
        # bisection, and exact rather than tol-accurate.
        acceptable = costs.max_acceptable
        level = _affine_waterfill_level(costs)
        iterations = 0
    else:
        def acceptable(level: float) -> np.ndarray:
            return np.array([f.max_acceptable(level) for f in costs], dtype=float)

        # Lower bound: every worker pays at least f_i(0), so the optimum
        # max cannot be below the largest zero-workload cost.
        lo = max(f(0.0) for f in costs)
        # Upper bound: the equal split is feasible, hence achievable.
        equal = np.full(n, 1.0 / n)
        _, hi, _ = evaluate_allocation(costs, equal)
        if hi < lo:
            raise SolverError(
                f"inconsistent cost functions: equal-split cost {hi} below zero-load floor {lo}"
            )

        if acceptable(lo).sum() >= 1.0:
            hi = lo  # the floor is already achievable

        iterations = 0
        while hi - lo > tol * max(1.0, hi) and iterations < max_iter:
            mid = 0.5 * (lo + hi)
            if acceptable(mid).sum() >= 1.0:
                hi = mid
            else:
                lo = mid
            iterations += 1
        level = hi

    caps = acceptable(level)
    total = caps.sum()
    if total < 1.0:
        # Numerical guard: nudge the level up until feasible.
        bump = max(tol, level * tol)
        for _ in range(64):
            level += bump
            bump *= 2.0
            caps = acceptable(level)
            total = caps.sum()
            if total >= 1.0:
                break
        else:  # pragma: no cover - defensive
            raise SolverError(f"could not reach a feasible level (sum caps={total})")
    allocation = caps / total
    _, value, _ = evaluate_allocation(costs, allocation)
    return MinMaxSolution(
        allocation=allocation, value=value, level=level, iterations=iterations
    )
