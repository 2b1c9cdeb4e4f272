"""Request-routing policies for the open-loop serving dispatcher.

Two families share one interface:

* **Weight-based** policies publish a probability vector over workers
  and let the dispatcher assign whole request segments vectorized
  (:class:`WeightedRouting`). The weights come from an
  :class:`~repro.core.interface.OnlineLoadBalancer` — the *same* policy
  interface the round-based baselines use — so static weighted
  round-robin wraps :class:`~repro.baselines.static_weighted.StaticWeighted`
  and the DOLBIE policy wraps :class:`~repro.core.dolbie.Dolbie` (or the
  full message-passing FD protocol), tuned once per control period from
  analytic M/M/1 costs built on the measured arrival rate.
* **State-based** policies (:class:`JoinShortestQueue`,
  :class:`PowerOfTwoChoices`) inspect the live per-worker backlog at
  each arrival, so the dispatcher drives them sequentially
  (``is_sequential = True``).

Routing of weight-based policies is *deterministic*: request ``j`` maps
to the unit interval through the golden-ratio low-discrepancy sequence
``u_j = frac((j + 1) * phi)`` and lands in the worker whose cumulative
weight bucket contains ``u_j``. This realizes the weights with O(1/n)
discrepancy (far tighter than i.i.d. sampling), is stateless given the
global request index — which makes it chunk-split- and
checkpoint-friendly — and consumes no RNG stream.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.baselines.static_weighted import StaticWeighted
from repro.core.dolbie import Dolbie
from repro.core.interface import OnlineLoadBalancer, make_feedback
from repro.costs.base import CostFunction
from repro.exceptions import CheckpointError, ConfigurationError
from repro.utils.rng import spawn_rng

__all__ = [
    "RoutingPolicy",
    "WeightedRouting",
    "WeightedRoundRobin",
    "DolbieRouting",
    "FdDolbieRouting",
    "JoinShortestQueue",
    "PowerOfTwoChoices",
    "SERVING_POLICIES",
    "make_policy",
]

#: Conjugate golden ratio — the classic low-discrepancy multiplier.
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class RoutingPolicy(abc.ABC):
    """Base class of every serving policy."""

    #: Registry/CLI name.
    name: str = "base"

    #: True when the dispatcher must consult the policy per request
    #: (backlog-dependent routing); False enables vectorized segments.
    is_sequential: bool = False

    def __init__(self, num_workers: int) -> None:
        if num_workers < 2:
            raise ConfigurationError(
                f"serving needs >= 2 workers, got {num_workers}"
            )
        self.num_workers = int(num_workers)

    def control_update(
        self, period_index: int, costs: Sequence[CostFunction]
    ) -> None:
        """Consume one control period's revealed costs (default: no-op)."""

    # -- checkpoint support ------------------------------------------------
    def capture_state(self) -> dict:
        state = {"policy": self.name}
        state.update(self._capture_extra())
        return state

    def restore_state(self, state: Mapping[str, Any]) -> None:
        if state.get("policy") != self.name:
            raise CheckpointError(
                f"policy state is for {state.get('policy')!r}, live policy "
                f"is {self.name!r}"
            )
        self._restore_extra(state)

    def _capture_extra(self) -> dict:
        return {}

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={self.num_workers})"


class WeightedRouting(RoutingPolicy):
    """Weight-vector routing driven by an :class:`OnlineLoadBalancer`."""

    def __init__(self, balancer: OnlineLoadBalancer) -> None:
        super().__init__(balancer.num_workers)
        self.balancer = balancer
        #: The published routing weights (the balancer's simplex point).
        self.weights = balancer.decide()

    def control_update(
        self, period_index: int, costs: Sequence[CostFunction]
    ) -> None:
        """One online round of the wrapped balancer: play the current
        weights, reveal the period's costs, update, republish."""
        feedback = make_feedback(period_index, self.balancer.allocation, costs)
        self.balancer.update(feedback)
        self.weights = self.balancer.decide()

    def _capture_extra(self) -> dict:
        balancer = self.balancer
        state: dict[str, Any] = {
            "weights": [float(w) for w in self.weights],
            "allocation": [float(x) for x in balancer.allocation],
            "round": int(balancer.round),
        }
        if isinstance(balancer, Dolbie):
            state["alpha"] = float(balancer.step_rule.alpha)
            state["alpha_history"] = [
                float(a) for a in balancer.step_rule.history
            ]
        return state

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        balancer = self.balancer
        self.weights = np.asarray(state["weights"], dtype=float)
        balancer._allocation = np.asarray(state["allocation"], dtype=float)
        balancer.round = int(state["round"])
        if isinstance(balancer, Dolbie):
            balancer.step_rule.alpha = float(state["alpha"])
            balancer.step_rule.history = [
                float(a) for a in state["alpha_history"]
            ]


class WeightedRoundRobin(WeightedRouting):
    """Static weighted round-robin, weights proportional to service rates.

    The serving counterpart of the profiled-static baseline: knows the
    heterogeneity (``mu``) but never adapts. The golden-ratio sequence
    realizes the weights deterministically — with uniform weights it
    degenerates to plain round-robin up to O(1) discrepancy.
    """

    name = "wrr"

    def __init__(self, num_workers: int, service_rates: np.ndarray) -> None:
        super().__init__(
            StaticWeighted(num_workers, weights=np.asarray(service_rates))
        )


class DolbieRouting(WeightedRouting):
    """DOLBIE tuning the routing weights once per control period.

    Each control period is one online round of problem (1): the played
    allocation is the routing weight vector, the revealed per-worker
    costs are analytic M/M/1 sojourn curves at the period's measured
    arrival rate, and DOLBIE's risk-averse assistance moves weight away
    from the straggling (most-loaded) worker.
    """

    name = "dolbie"

    def __init__(
        self,
        num_workers: int,
        alpha_1: float | None = None,
        initial_allocation: np.ndarray | None = None,
    ) -> None:
        super().__init__(
            Dolbie(
                num_workers,
                initial_allocation=initial_allocation,
                alpha_1=alpha_1,
            )
        )


class FdDolbieRouting(RoutingPolicy):
    """Routing weights tuned by the fully-distributed DOLBIE protocol.

    The control plane is the real Algorithm-2 message-passing protocol
    (:class:`~repro.protocols.fully_distributed.FullyDistributedDolbie`):
    each control period runs one full protocol round — cost exchange,
    straggler agreement, assistance — and the agreed allocation becomes
    the routing weight vector. Heavier than :class:`DolbieRouting`
    per period, but demonstrates the serving data plane driven by the
    distributed control plane end to end.
    """

    name = "dolbie-fd"
    is_sequential = False

    def __init__(
        self,
        num_workers: int,
        alpha_1: float | None = None,
        initial_allocation: np.ndarray | None = None,
    ) -> None:
        from repro.protocols.fully_distributed import FullyDistributedDolbie

        super().__init__(num_workers)
        self.protocol = FullyDistributedDolbie(
            num_workers,
            alpha_1=alpha_1,
            initial_allocation=initial_allocation,
        )
        self.weights = self.protocol.allocation

    def control_update(
        self, period_index: int, costs: Sequence[CostFunction]
    ) -> None:
        self.protocol.run_round(period_index, costs)
        self.weights = self.protocol.allocation

    def _capture_extra(self) -> dict:
        from repro.ckpt.codec import to_jsonable
        from repro.ckpt.state import capture_protocol

        # The protocol state carries packed ndarrays (the peer store);
        # the codec tags them so the policy state stays plain JSON.
        return {
            "weights": [float(w) for w in self.weights],
            "protocol": to_jsonable(capture_protocol(self.protocol)),
        }

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        from repro.ckpt.codec import from_jsonable
        from repro.ckpt.state import restore_protocol

        self.weights = np.asarray(state["weights"], dtype=float)
        restore_protocol(self.protocol, from_jsonable(state["protocol"]))


class JoinShortestQueue(RoutingPolicy):
    """Route every request to the worker with the smallest backlog.

    The backlog the dispatcher hands over is the remaining work (in
    seconds) of each *alive* worker at the request's arrival instant.
    Ties break to the lowest worker index, mirroring the straggler
    tie-break rule of the round-based protocols.
    """

    name = "jsq"
    is_sequential = True

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)

    def select(self, backlogs: np.ndarray) -> int:
        return int(np.argmin(backlogs))


class PowerOfTwoChoices(RoutingPolicy):
    """Sample two workers uniformly, route to the less-loaded one.

    The classic O(1)-information policy: exponentially better maximum
    load than random assignment at two probes per request. Candidate
    draws come from a dedicated substream (two per request — fixed
    consumption, so seeded reruns are bit-identical). The tie-break is
    the lower worker index.
    """

    name = "p2c"
    is_sequential = True

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        super().__init__(num_workers)
        self.seed = int(seed)
        self._rng = spawn_rng(self.seed, "serving.policy.p2c")

    def select(self, backlogs: np.ndarray) -> int:
        i, j = self._rng.integers(0, len(backlogs), size=2)
        i, j = int(i), int(j)
        if backlogs[j] < backlogs[i] or (
            backlogs[j] == backlogs[i] and j < i
        ):
            return j
        return i

    def _capture_extra(self) -> dict:
        import copy

        return {"rng": copy.deepcopy(self._rng.bit_generator.state)}

    def _restore_extra(self, state: Mapping[str, Any]) -> None:
        import copy

        self._rng.bit_generator.state = copy.deepcopy(dict(state["rng"]))


#: Policy name -> factory(num_workers, service_rates, seed, **kwargs).
#: DOLBIE starts from the speed-proportional allocation (the same prior
#: knowledge WRR uses), so every worker begins below saturation and the
#: comparison isolates what *online adaptation* adds on top.
SERVING_POLICIES: dict[str, Callable[..., RoutingPolicy]] = {
    "wrr": lambda n, mu, seed, **kw: WeightedRoundRobin(n, mu),
    "dolbie": lambda n, mu, seed, **kw: DolbieRouting(
        n,
        alpha_1=kw.get("alpha_1"),
        initial_allocation=kw.get("initial_allocation", mu / mu.sum()),
    ),
    "dolbie-fd": lambda n, mu, seed, **kw: FdDolbieRouting(
        n,
        alpha_1=kw.get("alpha_1"),
        initial_allocation=kw.get("initial_allocation", mu / mu.sum()),
    ),
    "jsq": lambda n, mu, seed, **kw: JoinShortestQueue(n),
    "p2c": lambda n, mu, seed, **kw: PowerOfTwoChoices(n, seed=seed),
}


def make_policy(
    name: str,
    num_workers: int,
    service_rates: np.ndarray,
    seed: int = 0,
    **kwargs: Any,
) -> RoutingPolicy:
    """Build the named serving policy bound to this fleet."""
    try:
        factory = SERVING_POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown serving policy {name!r}; choose from "
            f"{sorted(SERVING_POLICIES)}"
        ) from None
    mu = np.asarray(service_rates, dtype=float)
    if mu.shape != (num_workers,):
        raise ConfigurationError(
            f"need {num_workers} service rates, got shape {mu.shape}"
        )
    return factory(num_workers, mu, seed, **kwargs)
