"""The risk-averse quantities of §IV-A: x-tilde, x-prime, and G.

``x'_{i,t}`` (Eq. 4) is the largest workload worker *i* could have carried
this round without exceeding the observed global cost ``l_t`` — i.e.
without becoming a *worse* straggler. The assistance vector ``G_t``
(Theorem 1's proof) packages the update so that
``x_{t+1} = x_t - alpha_t G_t`` (Eq. 9).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import as_float
from repro.costs.affine_vector import AffineCostVector
from repro.costs.base import CostFunction
from repro.costs.vector import as_cost_vector
from repro.exceptions import ConfigurationError

__all__ = [
    "acceptable_workloads",
    "acceptable_workloads_rows",
    "assistance_vector",
    "assistance_vector_rows",
]


def _affine_fast_path(
    costs: AffineCostVector,
    x: np.ndarray,
    global_cost: float,
    straggler: int,
) -> np.ndarray:
    """Vectorized x' for affine costs (the §VI-A formula).

    The level inverse of an affine latency cost is closed-form, so the
    whole vector is three numpy operations — this is what keeps DOLBIE's
    per-round decision in the tens of microseconds (Fig. 11, lower).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tilde = (global_cost - costs.intercepts) / costs.slopes
    tilde = np.where(costs.slopes == 0.0, 1.0, tilde)
    x_prime = np.clip(tilde, x, 1.0)
    x_prime[straggler] = x[straggler]
    return x_prime


def acceptable_workloads(
    costs: Sequence[CostFunction],
    allocation: np.ndarray,
    global_cost: float,
    straggler: int,
) -> np.ndarray:
    """Compute ``x'_t`` of Eq. (4) for every worker.

    For non-stragglers, ``x'_{i,t} = min( max{x : f_{i,t}(x) <= l_t}, 1 )``.
    The straggler keeps its current workload (``x'_{s_t} = x_{s_t}``): it
    defines the global cost, so it acquires no additional work (§IV-A).

    The result dominates the played allocation coordinate-wise
    (Lemma 1-ii), which the property tests assert for arbitrary increasing
    costs.
    """
    x = np.asarray(allocation, dtype=float)
    n = len(costs)
    if x.shape != (n,):
        raise ConfigurationError(f"allocation shape {x.shape} != ({n},)")
    if not 0 <= straggler < n:
        raise ConfigurationError(f"straggler index {straggler} out of range")
    # The straggler's own x-tilde is never needed, so a scalar cost list
    # is not asked for it.
    costs = as_cost_vector(costs, among=np.flatnonzero(np.arange(n) != straggler))
    if isinstance(costs, AffineCostVector):
        return _affine_fast_path(costs, x, global_cost, straggler)
    # min(x-tilde, 1) and max(., x_i) as np.where on the comparisons
    # Python's min() and max() make, which keeps their tie handling. The
    # max also guards floating-point dust: Lemma 1-ii guarantees x' >= x
    # because f_i(x_i) <= l_t, so tiny negative gaps from bisection clamp.
    acceptable = costs.astype(float).max_acceptable(global_cost)
    acceptable = np.where(1.0 < acceptable, 1.0, acceptable)
    x_prime = np.where(x > acceptable, x, acceptable)
    x_prime[straggler] = x[straggler]
    return x_prime


def acceptable_workloads_rows(
    slopes: np.ndarray,
    intercepts: np.ndarray,
    allocations: np.ndarray,
    global_costs: np.ndarray,
    stragglers: np.ndarray,
) -> np.ndarray:
    """Row-wise affine :func:`acceptable_workloads` for ``R`` realizations.

    Row ``r`` undergoes the same elementwise operations, in the same
    order, as the single-round affine fast path with that row's costs and
    straggler, so each row is bit-identical to the scalar call (the
    batched-equivalence property tests pin this).
    """
    # as_float keeps a float32 backend's matrices in float32; float64
    # input is passed through untouched (the historical behavior).
    x = as_float(allocations)
    slopes = as_float(slopes)
    if x.ndim != 2 or x.shape != slopes.shape:
        raise ConfigurationError(
            f"allocations {x.shape} and slopes {slopes.shape} must be "
            "matching (R, N) matrices"
        )
    rows = np.arange(x.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        tilde = (as_float(global_costs)[:, None] - intercepts) / slopes
    tilde = np.where(slopes == 0.0, 1.0, tilde)
    x_prime = np.clip(tilde, x, 1.0)
    x_prime[rows, stragglers] = x[rows, stragglers]
    return x_prime


def assistance_vector(
    allocation: np.ndarray,
    x_prime: np.ndarray,
    straggler: int,
) -> np.ndarray:
    """The vector ``G_t`` from the proof of Theorem 1.

    ``G_i = x_i - x'_i <= 0`` for non-stragglers (they can absorb work) and
    ``G_s = -sum_{j != s} (x_j - x'_j) >= 0`` (the straggler sheds exactly
    what the others absorb), so ``sum(G) = 0`` and the simplex constraint
    is preserved by ``x - alpha G`` for any alpha.
    """
    x = np.asarray(allocation, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    if x.shape != xp.shape:
        raise ConfigurationError("allocation and x_prime shapes differ")
    g = x - xp
    g[straggler] = 0.0
    g[straggler] = -g.sum()
    return g


def assistance_vector_rows(
    allocations: np.ndarray,
    x_prime: np.ndarray,
    stragglers: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`assistance_vector` for ``R`` realizations.

    Each row's straggler coordinate is zeroed before the closing sum, so
    the per-row arithmetic (including the IEEE summation order of
    ``sum(axis=1)``) matches the 1-D function exactly.
    """
    x = as_float(allocations)
    xp = as_float(x_prime)
    if x.shape != xp.shape or x.ndim != 2:
        raise ConfigurationError("allocations and x_prime must be matching (R, N)")
    rows = np.arange(x.shape[0])
    g = x - xp
    g[rows, stragglers] = 0.0
    g[rows, stragglers] = -g.sum(axis=1)
    return g
