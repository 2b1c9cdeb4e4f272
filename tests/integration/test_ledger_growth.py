"""The round ledger's history costs O(1) per round.

A protocol at fixed membership must not pay for its roster once per
round — not in its snapshots, not in the chaos oracle, not in retained
memory. Each gate here is deterministic: bytes of a snapshot, Python
calls counted with ``sys.setprofile``, and bytes retained as counted by
``tracemalloc``.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.chaos.faults import FaultEvent, FaultSchedule
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import RoundObservation, check_round_invariants
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.state import capture_protocol
from repro.costs.affine_vector import AffineCostVector
from repro.net.links import Link, UniformLatency
from repro.protocols.fully_distributed import FullyDistributedDolbie


def _protocol(n: int, seed: int = 1) -> FullyDistributedDolbie:
    link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed)))
    return FullyDistributedDolbie(n, link=link, aggregation="tree")


def _cost_pool(n: int, size: int, seed: int = 5) -> list[AffineCostVector]:
    rng = np.random.default_rng(seed)
    speeds = 1.0 + (np.arange(n) % 23)
    return [
        AffineCostVector(
            1.0 / (speeds * rng.lognormal(0.0, 0.1, n)), rng.uniform(0.0, 0.01, n)
        )
        for _ in range(size)
    ]


def _snapshot_bytes(protocol, round_index: int) -> int:
    state = capture_protocol(protocol)
    return len(Snapshot("run", round_index, {}, state).to_bytes())


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_snapshot_grows_at_most_64_bytes_per_round(n):
    protocol, pool = _protocol(n), _cost_pool(n, 4)
    sizes = {}
    for t in range(1, 41):
        protocol.run_round(t, pool[t % 4])
        if t in (10, 40):
            sizes[t] = _snapshot_bytes(protocol, t)
    assert (sizes[40] - sizes[10]) / 30 <= 64


def _profiled_calls(check) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        problems = check()
    finally:
        sys.setprofile(None)
    assert problems == []
    return calls


def test_invariant_check_calls_do_not_grow_with_rounds():
    """With a materialized replica and a pinned restart prefix, the
    round-2000 check makes as many Python calls as the round-10 one."""
    protocol, pool = _protocol(128), _cost_pool(128, 16)
    restart = FaultEvent(5, "restart", workers=(7,), duration=2)
    injector = ChaosInjector(protocol, FaultSchedule.scripted([restart]))
    calls = {}
    for t in range(1, 2001):
        injector.apply(t)
        observation = RoundObservation(protocol)
        _, local, cost, straggler = protocol.run_round(t, pool[t % 16])

        def check():
            return check_round_invariants(
                protocol, observation, t, local, cost, straggler,
                injector.restart_prefixes,
            )

        if t in (10, 2000):
            calls[t] = _profiled_calls(check)
        else:
            assert check() == []
    assert set(protocol._ledger_book.materialized) == {7}
    assert list(injector.restart_prefixes) == [7]
    assert calls[2000] == calls[10]


def test_invariant_check_calls_do_not_grow_with_workers():
    """The check compares the peers' columns as arrays: at N=1024 it
    makes as many Python calls as at N=128 (both overlays have eight
    shards, so only the roster size differs), before and after a crash
    shrinks the roster."""
    calls = {}
    for n in (128, 1024):
        link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(1)))
        protocol = FullyDistributedDolbie(
            n, link=link, aggregation="tree", shard_size=n // 8
        )
        pool = _cost_pool(n, 4)
        for t in range(1, 7):
            if t == 4:
                protocol.crash_worker(7)
            observation = RoundObservation(protocol)
            _, local, cost, straggler = protocol.run_round(t, pool[t % 4])
            if t in (3, 6):
                calls[n, t] = _profiled_calls(
                    lambda: check_round_invariants(
                        protocol, observation, t, local, cost, straggler
                    )
                )
        assert protocol.roster == [w for w in range(n) if w != 7]
    assert calls[1024, 3] == calls[128, 3]
    assert calls[1024, 6] == calls[128, 6]


def test_churn_retains_at_most_160_bytes_per_round():
    """Membership epochs shaped like the ``fd_churn_epochs`` benchmark op
    (three rounds, a crash, three rounds, the rejoin, three rounds) at
    N=128: after 100 warm-up epochs, 500 more retain ≤ 160 B per round."""
    n = 128
    protocol, pool = _protocol(n), _cost_pool(n, 16)
    state = {"round": 0, "epoch": 0}

    def rounds():
        for _ in range(3):
            state["round"] += 1
            protocol.run_round(state["round"], pool[state["round"] % 16])

    def epoch():
        victim = (7 + 45 * state["epoch"]) % n
        state["epoch"] += 1
        rounds()
        protocol.crash_worker(victim)
        rounds()
        protocol.rejoin_worker(victim)
        rounds()

    for _ in range(99):
        epoch()
    tracemalloc.start()
    try:
        # The last warm-up epoch runs traced, so the caches it replaces
        # (a flat round's frame tables, say) are counted on both sides.
        epoch()
        gc.collect()
        before, first = tracemalloc.get_traced_memory()[0], state["round"]
        for _ in range(500):
            epoch()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / (state["round"] - first) <= 160
