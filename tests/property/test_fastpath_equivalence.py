"""Property-based bit-identity of the batched fast path.

For any worker count, seed, horizon and link-delay distribution, running
a protocol with the round-synchronous fast path enabled must reproduce
the event-engine run *exactly*: identical allocation trajectories
(``==``, not ``allclose``) and identical communication accounting. This
is the contract documented in ``repro.net.batch`` — the fast path is an
execution-layer optimization, never a semantic change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.timevarying import RandomAffineProcess
from repro.net.links import ConstantLatency, Link, LogNormalLatency, UniformLatency
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.protocols.master_worker import MasterWorkerDolbie

LINK_KINDS = ("zero", "constant", "uniform", "lognormal")


def _make_link(kind: str, seed: int) -> Link | None:
    """A fresh link per protocol instance so RNG streams start equal."""
    if kind == "zero":
        return None
    if kind == "constant":
        return Link(ConstantLatency(0.003))
    if kind == "uniform":
        return Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed)))
    return Link(LogNormalLatency(0.002, 0.5, np.random.default_rng(seed)))


@st.composite
def configurations(draw):
    n = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**16))
    horizon = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(LINK_KINDS))
    speeds = [1.0 + draw(st.floats(0.0, 20.0)) for _ in range(n)]
    return n, seed, horizon, kind, speeds


def _run_pair(protocol_cls, config):
    n, seed, horizon, kind, speeds = config
    process = RandomAffineProcess(speeds, sigma=0.2, comm_scale=0.05, seed=seed)
    runs = {}
    for fast in (False, True):
        protocol = protocol_cls(
            n, link=_make_link(kind, seed), use_fast_path=fast
        )
        runs[fast] = (protocol, protocol.run(process, horizon))
    return runs


def _assert_identical(runs, horizon):
    slow_protocol, slow = runs[False]
    fast_protocol, fast = runs[True]
    # The fast path actually ran (healthy all-to-all setting) ...
    assert fast_protocol.fast_rounds == horizon
    assert fast_protocol.fallback_rounds == 0
    assert slow_protocol.fast_rounds == 0
    # ... and is bit-identical, not merely close:
    assert np.array_equal(slow.allocations, fast.allocations)
    assert np.array_equal(slow.global_costs, fast.global_costs)
    assert slow_protocol.metrics.messages_total == fast_protocol.metrics.messages_total
    assert slow_protocol.metrics.bytes_total == fast_protocol.metrics.bytes_total
    assert (
        dict(slow_protocol.metrics.per_round_messages)
        == dict(fast_protocol.metrics.per_round_messages)
    )
    assert (
        dict(slow_protocol.metrics.per_pair_messages)
        == dict(fast_protocol.metrics.per_pair_messages)
    )
    assert slow_protocol.cluster.engine.now == fast_protocol.cluster.engine.now


@given(configurations())
@settings(max_examples=40, deadline=None)
def test_fully_distributed_fast_path_bit_identical(config):
    runs = _run_pair(FullyDistributedDolbie, config)
    _assert_identical(runs, horizon=config[2])


@st.composite
def churn_configurations(draw):
    """A fleet plus a random crash/rejoin schedule: worker -> (crash
    round, optional rejoin round). Never crash everyone; rounds are
    1-based."""
    n = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 2**16))
    horizon = draw(st.integers(3, 10))
    kind = draw(st.sampled_from(("constant", "uniform")))
    crashed = draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=max(n - 2, 1))
    )
    schedule = {}
    for worker in crashed:
        crash_t = draw(st.integers(1, horizon))
        rejoin_t = draw(
            st.one_of(st.none(), st.integers(crash_t + 1, horizon + 1))
        )
        schedule[worker] = (crash_t, rejoin_t)
    return n, seed, horizon, kind, schedule


def _run_churn(config, fast: bool):
    n, seed, horizon, kind, schedule = config
    speeds = [1.0 + (7 * i + seed) % 13 for i in range(n)]
    process = RandomAffineProcess(speeds, sigma=0.2, comm_scale=0.05, seed=seed)
    link = _make_link(kind, seed)
    protocol = FullyDistributedDolbie(n, link=link, use_fast_path=fast)
    outcomes = []
    for t in range(1, horizon + 1):
        for worker, (crash_t, rejoin_t) in schedule.items():
            if t == crash_t and len(protocol.alive_workers) > 2:
                protocol.crash_worker(worker)
            if rejoin_t is not None and t == rejoin_t:
                if worker not in protocol.alive_workers:
                    protocol.rejoin_worker(worker)
        outcomes.append(protocol.run_round(t, process.costs_at(t)))
    return protocol, outcomes, link


@given(churn_configurations())
@settings(max_examples=25, deadline=None)
def test_fully_distributed_fast_path_bit_identical_under_churn(config):
    """Crash/rejoin schedules move rounds between the fast path and the
    event engine; the mixed run must match the all-event run exactly."""
    slow, slow_outcomes, slow_link = _run_churn(config, fast=False)
    fast, fast_outcomes, fast_link = _run_churn(config, fast=True)
    for (xa, la, ca, sa), (xb, lb, cb, sb) in zip(slow_outcomes, fast_outcomes):
        assert np.array_equal(xa, xb)
        # A dead worker's local cost is NaN on both sides.
        assert np.array_equal(la, lb, equal_nan=True)
        assert ca == cb and sa == sb
    assert np.array_equal(slow.allocation, fast.allocation)
    assert slow.alpha == fast.alpha
    assert slow.ledger == fast.ledger
    for w in range(slow.num_workers):
        assert slow.worker_ledger(w) == fast.worker_ledger(w), (
            f"worker {w} replica diverged"
        )
    assert slow.cluster.engine.now == fast.cluster.engine.now
    assert slow.metrics.messages_total == fast.metrics.messages_total
    latency = slow_link.latency
    if hasattr(latency, "_rng"):
        assert (
            latency._rng.bit_generator.state
            == fast_link.latency._rng.bit_generator.state
        )


@given(configurations())
@settings(max_examples=40, deadline=None)
def test_master_worker_fast_path_bit_identical(config):
    runs = _run_pair(MasterWorkerDolbie, config)
    _assert_identical(runs, horizon=config[2])
