"""Increasing cost functions and time-varying cost processes (§III)."""

from repro.costs.affine import AffineLatencyCost
from repro.costs.affine_vector import AffineCostVector
from repro.costs.base import (
    CallableCost,
    ConstantCost,
    CostFunction,
    CostVector,
    compose_max,
)
from repro.costs.nonlinear import (
    ExponentialCost,
    LogCost,
    PiecewiseLinearCost,
    PowerLawCost,
    QueueingDelayCost,
    SaturatingQueueingCost,
    SaturatingQueueingCostVector,
)
from repro.costs.timevarying import (
    CostProcess,
    DriftingAffineProcess,
    PowerLawProcess,
    RandomAffineProcess,
    StaticCostProcess,
    SwitchingProcess,
)
from repro.costs.vector import ScalarCostVector, as_cost_vector

__all__ = [
    "CostFunction",
    "CostVector",
    "ScalarCostVector",
    "as_cost_vector",
    "CallableCost",
    "ConstantCost",
    "compose_max",
    "AffineLatencyCost",
    "AffineCostVector",
    "PowerLawCost",
    "ExponentialCost",
    "LogCost",
    "PiecewiseLinearCost",
    "QueueingDelayCost",
    "SaturatingQueueingCost",
    "SaturatingQueueingCostVector",
    "CostProcess",
    "StaticCostProcess",
    "RandomAffineProcess",
    "DriftingAffineProcess",
    "SwitchingProcess",
    "PowerLawProcess",
]
