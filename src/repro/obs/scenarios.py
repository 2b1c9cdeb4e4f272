"""Canonical seeded workloads for recording traces.

One place defines the exact (seed, size, process) combinations that the
``repro trace`` CLI records, the golden-trace regression tests replay,
and ``tests/golden/regenerate.py`` blesses — so "the mw golden trace"
means the same run everywhere. Every scenario is deterministic in its
arguments: same inputs, byte-identical JSONL out.

``engine`` selects the protocol execution path: ``"fast"`` forces the
batched round-synchronous path, ``"event"`` forces the discrete-event
engine, ``"auto"`` keeps the production per-round choice. The payload
records are bit-identical across all three — that is the equivalence
the golden tests pin.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.tracer import Trace, Tracer

__all__ = [
    "SCENARIOS",
    "GOLDEN_SEED",
    "GOLDEN_WORKERS",
    "GOLDEN_ROUNDS",
    "build_trace",
    "protocol_trace",
    "fd_tree_protocol",
    "fd_ring_protocol",
    "loop_trace",
    "trainer_trace",
    "serving_trace",
]

#: Defaults of the committed golden traces (small enough to diff in git).
GOLDEN_SEED = 7
GOLDEN_WORKERS = 6
GOLDEN_ROUNDS = 30

#: The ``fd-tree`` goldens: tree aggregation over shards of 8 at N=60,
#: where a member and a shard head crash before round 4 and both rejoin
#: before round 9. The crash round is a flat failure detection on the
#: batched path (the survivors' failure detectors shrink their rosters,
#: bit-identical to the event engine); every other round takes the tree
#: path, the rejoin round with freshly re-agreed rosters.
FD_TREE_WORKERS = 60
FD_TREE_SHARD_SIZE = 8
FD_TREE_CRASH_ROUND = 4
FD_TREE_REJOIN_ROUND = 9

#: The ``fd-ring`` golden: flat aggregation over a 16-node ring, so
#: every broadcast and decision is flooded hop by hop. Relay 5 crashes
#: before round 4 (the ring degrades to a path the floods still cross)
#: and rejoins before round 8. Every round runs on the event engine.
FD_RING_WORKERS = 16
FD_RING_VICTIM = 5
FD_RING_CRASH_ROUND = 4
FD_RING_REJOIN_ROUND = 8


def _cost_process(num_workers: int, seed: int):
    from repro.costs.timevarying import RandomAffineProcess

    rng = np.random.default_rng(seed)
    speeds = rng.uniform(1.0, 3.0, size=num_workers)
    return RandomAffineProcess(speeds, sigma=0.2, comm_scale=0.01, seed=seed)


def protocol_trace(
    architecture: str = "mw",
    engine: str = "auto",
    num_workers: int = GOLDEN_WORKERS,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
) -> Trace:
    """Record one protocol run (Algorithm 1 or 2) and return its trace."""
    from repro.protocols.fully_distributed import FullyDistributedDolbie
    from repro.protocols.master_worker import MasterWorkerDolbie

    if architecture not in ("mw", "fd"):
        raise ConfigurationError(
            f"architecture must be 'mw' or 'fd', got {architecture!r}"
        )
    if engine not in ("auto", "fast", "event"):
        raise ConfigurationError(
            f"engine must be 'auto', 'fast' or 'event', got {engine!r}"
        )
    cls = MasterWorkerDolbie if architecture == "mw" else FullyDistributedDolbie
    tracer = Tracer()
    protocol = cls(
        num_workers,
        alpha_1=0.001,
        use_fast_path=engine != "event",
        tracer=tracer,
    )
    protocol.run(_cost_process(num_workers, seed), rounds)
    if engine == "fast" and protocol.fallback_rounds:
        raise ConfigurationError(
            f"engine='fast' requested but {protocol.fallback_rounds} "
            "round(s) fell back to the event engine"
        )
    return tracer.trace


def fd_tree_protocol(
    backend: str = "numpy64",
    num_workers: int = FD_TREE_WORKERS,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
):
    """Run the tree-aggregation FD protocol through a crash and a rejoin
    and return it; its trace is ``protocol.tracer.trace``. Each round
    takes the production route choice (``engine`` does not apply)."""
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    # Worker 17 is a plain member; worker 8 heads the second shard.
    victims = (17, FD_TREE_SHARD_SIZE)
    if num_workers <= max(victims):
        raise ConfigurationError(
            f"the fd-tree scenario needs > {max(victims)} workers, "
            f"got {num_workers}"
        )
    tracer = Tracer()
    protocol = FullyDistributedDolbie(
        num_workers,
        link=Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed))),
        tracer=tracer,
        aggregation="tree",
        shard_size=FD_TREE_SHARD_SIZE,
        backend=backend,
    )
    tracer.header(
        protocol.name, num_workers, rounds,
        aggregation="tree", shard_size=FD_TREE_SHARD_SIZE,
        backend=protocol.backend.name,
    )
    process = _cost_process(num_workers, seed)
    for t in range(1, rounds + 1):
        if t == FD_TREE_CRASH_ROUND:
            for worker in victims:
                protocol.crash_worker(worker)
        if t == FD_TREE_REJOIN_ROUND:
            for worker in victims:
                protocol.rejoin_worker(worker)
        protocol.run_round(t, process.costs_at(t))
    return protocol


def fd_ring_protocol(
    num_workers: int = FD_RING_WORKERS,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
):
    """Run the flat FD protocol over a ring topology through a relay
    crash and its rejoin and return it; its trace is
    ``protocol.tracer.trace``."""
    from repro.net.links import Link, UniformLatency
    from repro.net.topology import Topology
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    if num_workers <= FD_RING_VICTIM + 1:
        raise ConfigurationError(
            f"the fd-ring scenario needs > {FD_RING_VICTIM + 1} workers, "
            f"got {num_workers}"
        )
    tracer = Tracer()
    protocol = FullyDistributedDolbie(
        num_workers,
        link=Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed))),
        topology=Topology.ring(num_workers),
        tracer=tracer,
    )
    tracer.header(protocol.name, num_workers, rounds, topology="ring")
    process = _cost_process(num_workers, seed)
    for t in range(1, rounds + 1):
        if t == FD_RING_CRASH_ROUND:
            protocol.crash_worker(FD_RING_VICTIM)
        if t == FD_RING_REJOIN_ROUND:
            protocol.rejoin_worker(FD_RING_VICTIM)
        protocol.run_round(t, process.costs_at(t))
    return protocol


def loop_trace(
    num_workers: int = GOLDEN_WORKERS,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
) -> Trace:
    """Record the centralized reference (Dolbie + run_online)."""
    from repro.core.dolbie import Dolbie
    from repro.core.loop import run_online

    tracer = Tracer()
    balancer = Dolbie(num_workers, alpha_1=0.001, tracer=tracer)
    run_online(
        balancer, _cost_process(num_workers, seed), rounds, tracer=tracer
    )
    return tracer.trace


def trainer_trace(
    num_workers: int = GOLDEN_WORKERS,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
) -> Trace:
    """Record a simulated training run (Fig. 2 integration)."""
    from repro.core.dolbie import Dolbie
    from repro.mlsim.environment import TrainingEnvironment
    from repro.mlsim.trainer import SyncTrainer

    env = TrainingEnvironment(
        "ResNet18", num_workers=num_workers, global_batch=256, seed=seed
    )
    tracer = Tracer()
    trainer = SyncTrainer(env)
    trainer.train(Dolbie(num_workers, alpha_1=0.001), rounds, tracer=tracer)
    return tracer.trace


def serving_trace(
    num_workers: int = GOLDEN_WORKERS,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
) -> Trace:
    """Record an open-loop serving run: DOLBIE tuning routing weights
    over a Poisson trace, ~40 requests per control period."""
    from repro.serving import PoissonArrivals, ServingSimulator, make_policy

    mu = np.linspace(1.0, 3.0, num_workers)
    rate = 0.85 * float(mu.sum())
    control_period = 40.0 / rate
    total = 40 * rounds
    tracer = Tracer()
    tracer.header(
        "serving",
        num_workers,
        rounds,
        seed=seed,
        policy="dolbie",
        arrivals="poisson",
        requests=total,
    )
    simulator = ServingSimulator(
        PoissonArrivals(rate, seed=seed),
        make_policy("dolbie", num_workers, mu, seed=seed),
        mu,
        seed=seed,
        control_period=control_period,
        quantile_mode="exact",
        tracer=tracer,
    )
    simulator.run(total)
    return tracer.trace


#: name -> builder taking (engine, num_workers, rounds, seed).
SCENARIOS = {
    "mw": lambda engine, n, rounds, seed: protocol_trace(
        "mw", engine, n, rounds, seed
    ),
    "fd": lambda engine, n, rounds, seed: protocol_trace(
        "fd", engine, n, rounds, seed
    ),
    "loop": lambda engine, n, rounds, seed: loop_trace(n, rounds, seed),
    "trainer": lambda engine, n, rounds, seed: trainer_trace(n, rounds, seed),
    "serving": lambda engine, n, rounds, seed: serving_trace(n, rounds, seed),
    "fd-tree": lambda engine, n, rounds, seed: fd_tree_protocol(
        "numpy64", n, rounds, seed
    ).tracer.trace,
    "fd-tree-f32": lambda engine, n, rounds, seed: fd_tree_protocol(
        "numpy32", n, rounds, seed
    ).tracer.trace,
    "fd-ring": lambda engine, n, rounds, seed: fd_ring_protocol(
        n, rounds, seed
    ).tracer.trace,
}

#: Scenarios whose default fleet is not :data:`GOLDEN_WORKERS`.
SCENARIO_WORKERS = {
    "fd-tree": FD_TREE_WORKERS,
    "fd-tree-f32": FD_TREE_WORKERS,
    "fd-ring": FD_RING_WORKERS,
}


def build_trace(
    scenario: str,
    engine: str = "auto",
    num_workers: int | None = None,
    rounds: int = GOLDEN_ROUNDS,
    seed: int = GOLDEN_SEED,
) -> Trace:
    """Build the named scenario's trace (the CLI/golden entry point).
    ``num_workers=None`` picks the scenario's default fleet size."""
    try:
        builder = SCENARIOS[scenario]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; choose from "
            f"{sorted(SCENARIOS)}"
        ) from None
    if num_workers is None:
        num_workers = SCENARIO_WORKERS.get(scenario, GOLDEN_WORKERS)
    return builder(engine, num_workers, rounds, seed)
