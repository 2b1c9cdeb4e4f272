"""The four workloads: inputs from a seed, set-up, one op, output checks.

Every workload drives the program through its public constructors and
calls. ``setup(clock)`` builds fresh state and runs the warm-up op;
``op(clock)`` runs one op. Both return the list of failed output checks
and run those checks inside ``clock.untimed()``, so no check is timed.
``digest()`` condenses the outputs of the last op for the determinism
check; ``protocol`` is the FD protocol whose network totals the traced
run reads (``None`` where there is none).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
from pathlib import Path

import numpy as np

from repro.chaos.invariants import RoundObservation, check_round_invariants
from repro.costs.affine_vector import AffineCostVector
from repro.experiments.config import ALL_ALGORITHMS, PAPER
from repro.experiments.harness import sweep_realizations
from repro.experiments.serving_experiment import fleet_service_rates
from repro.net.links import Link, UniformLatency
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.serving import DEFAULT_CHUNK, BurstyArrivals, ServingSimulator, make_policy

#: Simplex tolerance, the same as the chaos invariant checker's.
SIMPLEX_ATOL = 1e-9


def _hash(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _affine_pool(seed: int, num_workers: int, size: int) -> list[AffineCostVector]:
    """``size`` rounds of affine costs drawn like ``RandomAffineProcess``
    (base speeds ``1 + i % 23``, lognormal speed shocks of volatility 0.1,
    communication time uniform in [0, 0.01]), built with numpy directly."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, num_workers]))
    speeds = 1.0 + (np.arange(num_workers) % 23)
    pool = []
    for _ in range(size):
        shocks = rng.lognormal(0.0, 0.1, num_workers)
        comms = rng.uniform(0.0, 0.01, num_workers)
        pool.append(AffineCostVector(1.0 / (speeds * shocks), comms))
    return pool


def _simplex_problems(label: str, allocation: np.ndarray) -> list[str]:
    total = float(allocation.sum())
    problems = []
    if abs(total - 1.0) > SIMPLEX_ATOL:
        problems.append(f"{label} allocation sums to {total!r}")
    if float(allocation.min()) < -SIMPLEX_ATOL:
        problems.append(f"{label} allocation has a negative share")
    return problems


def _link(seed: int) -> Link:
    return Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed)))


class FdTree1M:
    """One steady compiled tree round at N=10^6 per op."""

    def __init__(self, seed: int, num_workers: int, cost_pool: int) -> None:
        self.seed = seed
        self.num_workers = num_workers
        self.costs = _affine_pool(seed, num_workers, cost_pool)
        self.protocol: FullyDistributedDolbie | None = None

    def release(self) -> None:
        self.protocol = None

    def setup(self, clock) -> list[str]:
        self.protocol = FullyDistributedDolbie(
            self.num_workers, link=_link(self.seed),
            aggregation="tree", backend="compiled",
        )
        self.round = 0
        return self.op(clock)

    def op(self, clock) -> list[str]:
        self.round += 1
        costs = self.costs[self.round % len(self.costs)]
        x, _local, cost, straggler = self.protocol.run_round(self.round, costs)
        with clock.untimed():
            self.outcome = (self.round, straggler, cost, x)
            problems = _simplex_problems("played", x)
            problems += _simplex_problems("next", self.protocol.allocation)
            expected = int(np.argmax(costs.slopes * x + costs.intercepts))
            entry = self.protocol.ledger.entry_for(self.round)
            if entry is None or entry.straggler != expected:
                problems.append(
                    f"round {self.round}: ledger straggler "
                    f"{None if entry is None else entry.straggler}, "
                    f"argmax of the costs is {expected}"
                )
            return problems

    def digest(self) -> bytes:
        round_index, straggler, cost, x = self.outcome
        return _hash(round_index, straggler, float(cost).hex(), x.tobytes())


class FdChurnEpochs:
    """One membership epoch per op: healthy rounds, crash, rounds,
    rejoin, rounds. The crashed round falls back to the event engine."""

    def __init__(
        self, seed: int, num_workers: int, cost_pool: int, rounds_between: int
    ) -> None:
        self.seed = seed
        self.num_workers = num_workers
        self.rounds_between = rounds_between
        self.costs = _affine_pool(seed, num_workers, cost_pool)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.first_victim = int(rng.integers(num_workers))
        # An odd stride visits every worker of a power-of-two fleet.
        self.stride = 2 * int(rng.integers(num_workers // 2)) + 1
        self.protocol: FullyDistributedDolbie | None = None

    def release(self) -> None:
        self.protocol = None

    def setup(self, clock) -> list[str]:
        self.protocol = FullyDistributedDolbie(
            self.num_workers, link=_link(self.seed),
            aggregation="tree", backend="compiled",
        )
        self.round = 0
        self.epoch = 0
        return self.op(clock)

    def op(self, clock) -> list[str]:
        victim = (self.first_victim + self.epoch * self.stride) % self.num_workers
        self.epoch += 1
        self.outcomes = []
        problems = self._rounds(clock)
        self.protocol.crash_worker(victim)
        problems += self._rounds(clock)
        self.protocol.rejoin_worker(victim)
        problems += self._rounds(clock)
        return problems

    def _rounds(self, clock) -> list[str]:
        problems = []
        for _ in range(self.rounds_between):
            with clock.untimed():
                observation = RoundObservation(self.protocol)
            self.round += 1
            costs = self.costs[self.round % len(self.costs)]
            _x, local, cost, straggler = self.protocol.run_round(self.round, costs)
            with clock.untimed():
                self.outcomes.append((self.round, straggler, float(cost).hex()))
                problems += check_round_invariants(
                    self.protocol, observation, self.round, local, cost, straggler
                )
        return problems

    def digest(self) -> bytes:
        return _hash(self.outcomes, self.protocol.allocation.tobytes())


class ServingFdBursty:
    """One ``ServingSimulator.process`` call per op on a fresh chunk of
    bursty arrivals, routed by the fully-distributed DOLBIE policy."""

    def __init__(self, seed: int, num_workers: int, load: float, policy: str) -> None:
        self.seed = seed
        self.num_workers = num_workers
        self.policy = policy
        self.mu = fleet_service_rates(num_workers)
        self.rate = load * float(self.mu.sum())
        self.sim: ServingSimulator | None = None

    @property
    def protocol(self):
        return None if self.sim is None else self.sim.policy.protocol

    def release(self) -> None:
        self.sim = None

    def setup(self, clock) -> list[str]:
        self.sim = ServingSimulator(
            BurstyArrivals(self.rate, seed=self.seed),
            make_policy(self.policy, self.num_workers, self.mu, seed=self.seed),
            self.mu,
            seed=self.seed,
        )
        return self.op(clock)

    def op(self, clock) -> list[str]:
        sim = self.sim
        sim.process(sim.arrivals.next_batch(DEFAULT_CHUNK))
        with clock.untimed():
            problems = []
            if sim.completed + sim.failed != sim.request_index:
                problems.append(
                    f"completed {sim.completed} + failed {sim.failed} != "
                    f"requests {sim.request_index}"
                )
            # Query a copy: a query compacts the sketch, which would move
            # the program's own work out of later timed ops.
            store = copy.deepcopy(sim.store)
            self.quantiles = np.array([store.query(q) for q in (0.5, 0.99, 0.999)])
            if not np.isfinite(self.quantiles).all():
                problems.append(f"non-finite quantiles {self.quantiles}")
            elif not (np.diff(self.quantiles) >= 0).all():
                problems.append(f"unordered quantiles {self.quantiles}")
            return problems

    def digest(self) -> bytes:
        sim = self.sim
        return _hash(
            sim.request_index, sim.completed, sim.failed, self.quantiles.tobytes(),
            sim.dispatched.tobytes(), np.asarray(sim.policy.weights).tobytes(),
        )


class PaperFig4Sweep:
    """The paper's Fig. 4 pipeline: every algorithm over every realization,
    from a warm materialization cache per op."""

    protocol = None
    num_workers = 0

    def __init__(self, seed: int, model: str, realizations: int, rounds: int) -> None:
        self.model = model
        self.scale = dataclasses.replace(
            PAPER, include_overhead=False, base_seed=seed,
            realizations=realizations, rounds=rounds,
        )
        self.cache_root = Path(os.environ["REPRO_CACHE_DIR"])
        self.setups = 0
        self.reference: bytes | None = None

    def release(self) -> None:
        pass

    def setup(self, clock) -> list[str]:
        with clock.untimed():
            # A fresh cache directory per repetition: set-up is the cold sweep.
            self.setups += 1
            os.environ["REPRO_CACHE_DIR"] = str(self.cache_root / f"setup{self.setups}")
        return self.op(clock)

    def op(self, clock) -> list[str]:
        runs = sweep_realizations(self.model, self.scale)
        with clock.untimed():
            latency = {
                name: np.stack([run.round_latency for run in runs[name]])
                for name in ALL_ALGORITHMS
            }
            self._digest = _hash(*(latency[name].tobytes() for name in ALL_ALGORITHMS))
            problems = []
            for name, values in latency.items():
                beaten = latency["OPT"] > values
                if beaten.any():
                    problems.append(
                        f"{name} beats OPT in {int(beaten.sum())} realization-rounds"
                    )
            if self.reference is None:
                self.reference = self._digest
            elif self._digest != self.reference:
                problems.append("sweep output differs from the first sweep")
            return problems

    def digest(self) -> bytes:
        return self._digest
