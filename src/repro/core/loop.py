"""The online round loop: drive any balancer against a cost process.

One function, :func:`run_online`, implements the protocol of problem (1)
for every algorithm uniformly: play, reveal, suffer, update. It records
the full trajectory (allocations, local costs, global costs, stragglers)
and measures the wall-clock decision overhead per round — the statistic
reported in the lower panel of Fig. 11. :func:`run_protocol` is its
counterpart for the networked protocols of Algorithms 1 and 2, whose
rounds run the whole exchange themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.interface import OnlineLoadBalancer, make_feedback
from repro.costs.base import CostFunction
from repro.costs.timevarying import CostProcess
from repro.exceptions import ConfigurationError
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.utils.timer import Stopwatch

__all__ = ["RunResult", "run_online", "run_online_costs", "run_protocol"]


@dataclass
class RunResult:
    """Trajectory of one online run of one algorithm."""

    algorithm: str
    num_workers: int
    horizon: int
    allocations: np.ndarray  # (T, N) — x_t actually played
    local_costs: np.ndarray  # (T, N) — l_{i,t}
    global_costs: np.ndarray  # (T,)  — l_t = max_i l_{i,t}
    stragglers: np.ndarray  # (T,) int
    decision_seconds: np.ndarray  # (T,) wall-clock overhead of decide+update

    @property
    def cumulative_cost(self) -> np.ndarray:
        """Running total of the global cost (objective of problem (1))."""
        return np.cumsum(self.global_costs)

    @property
    def total_cost(self) -> float:
        return float(self.global_costs.sum())

    def waiting_time(self) -> np.ndarray:
        """Per-worker, per-round idle time at the synchronization barrier.

        Worker *i* waits ``l_t - l_{i,t}`` while the straggler finishes —
        the quantity DOLBIE's evaluation reduces by 42.8-84.6% (Fig. 11).
        """
        return self.global_costs[:, None] - self.local_costs

    def mean_waiting_time(self) -> float:
        """Average idle seconds per worker per round."""
        return float(self.waiting_time().mean())


def run_online(
    balancer: OnlineLoadBalancer,
    process: CostProcess,
    horizon: int,
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
) -> RunResult:
    """Run ``balancer`` against ``process`` for ``horizon`` rounds."""
    costs_per_round = [process.costs_at(t) for t in range(1, horizon + 1)]
    return run_online_costs(
        balancer, costs_per_round, tracer=tracer, profiler=profiler
    )


def run_online_costs(
    balancer: OnlineLoadBalancer,
    costs_per_round: Sequence[Sequence[CostFunction]],
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
) -> RunResult:
    """Run against an explicit per-round list of cost vectors.

    ``tracer`` (see :mod:`repro.obs`) records one ``decision`` and one
    ``straggler`` record per round; ``profiler`` aggregates the decide/
    update laps the loop already times. Both default to ``None`` and
    cost one pointer comparison per round when disabled — the contract
    the ``obs_overhead`` benchmark gates.
    """
    horizon = len(costs_per_round)
    if horizon == 0:
        raise ConfigurationError("horizon must be at least one round")
    n = balancer.num_workers

    allocations = np.empty((horizon, n))
    local = np.empty((horizon, n))
    global_costs = np.empty(horizon)
    stragglers = np.empty(horizon, dtype=int)
    overhead = np.empty(horizon)

    if tracer is not None:
        tracer.header(balancer.name, n, horizon)
    watch = Stopwatch()
    for t, costs in enumerate(costs_per_round, start=1):
        if len(costs) != n:
            raise ConfigurationError(
                f"round {t} has {len(costs)} costs for {n} workers"
            )
        with watch:
            if balancer.requires_oracle:
                x_t = balancer.oracle_decide(costs)
            else:
                x_t = balancer.decide()
        feedback = make_feedback(t, x_t, costs)
        with watch:
            balancer.update(feedback)

        allocations[t - 1] = feedback.allocation
        local[t - 1] = feedback.local_costs
        global_costs[t - 1] = feedback.global_cost
        stragglers[t - 1] = feedback.straggler
        overhead[t - 1] = watch.laps[-2] + watch.laps[-1]

        if tracer is not None:
            from repro.obs.records import (
                DecisionRecord,
                StragglerRecord,
                float_tuple,
            )

            tracer.emit(
                DecisionRecord(
                    round=t,
                    allocation=float_tuple(feedback.allocation),
                    local_costs=float_tuple(feedback.local_costs),
                    global_cost=float(feedback.global_cost),
                    straggler=int(feedback.straggler),
                    next_allocation=float_tuple(balancer.allocation),
                )
            )
            tracer.emit(
                StragglerRecord(
                    round=t,
                    worker=int(feedback.straggler),
                    cost=float(feedback.global_cost),
                    waiting_total=float(
                        (feedback.global_cost - feedback.local_costs).sum()
                    ),
                )
            )

    if profiler is not None:
        for t in range(horizon):
            profiler.record("loop.decide", watch.laps[2 * t])
            profiler.record("loop.update", watch.laps[2 * t + 1])

    return RunResult(
        algorithm=balancer.name,
        num_workers=n,
        horizon=horizon,
        allocations=allocations,
        local_costs=local,
        global_costs=global_costs,
        stragglers=stragglers,
        decision_seconds=overhead,
    )


def run_protocol(
    protocol,
    process: CostProcess,
    horizon: int,
    *,
    start: int = 1,
    prefix: Mapping[str, np.ndarray] | None = None,
    on_round: Callable[[int, RunResult], None] | None = None,
) -> RunResult:
    """Drive a networked DOLBIE protocol for ``horizon`` rounds.

    ``protocol`` is a master-worker or fully-distributed protocol: its
    ``run_round(t, costs)`` returns ``(x_played, l, l_t, s_t)``, and
    its ``header_context`` names the engine identity the trace header
    carries (payload records diff empty across engines; headers are
    excluded by default).

    A run resumed at round ``start > 1`` emits no header (the resumed
    trace already has one) and copies ``prefix`` — the
    ``allocations``, ``local_costs``, ``global_costs`` and
    ``stragglers`` of rounds ``1..start-1`` — into the result.
    ``on_round(t, result)`` runs after every round with the partly
    filled result (rows ``[:t]`` are final).
    """
    n = protocol.num_workers
    result = RunResult(
        algorithm=protocol.name,
        num_workers=n,
        horizon=horizon,
        allocations=np.empty((horizon, n)),
        local_costs=np.empty((horizon, n)),
        global_costs=np.empty(horizon),
        stragglers=np.empty(horizon, dtype=int),
        decision_seconds=np.zeros(horizon),
    )
    if start > 1:
        for field in ("allocations", "local_costs", "global_costs",
                      "stragglers"):
            getattr(result, field)[: start - 1] = np.asarray(prefix[field])
    elif protocol.tracer is not None:
        protocol.tracer.header(
            protocol.name, n, horizon, **protocol.header_context
        )
    for t in range(start, horizon + 1):
        x, l, l_t, s_t = protocol.run_round(t, process.costs_at(t))
        result.allocations[t - 1] = x
        result.local_costs[t - 1] = l
        result.global_costs[t - 1] = l_t
        result.stragglers[t - 1] = s_t
        if on_round is not None:
            on_round(t, result)
    return result
