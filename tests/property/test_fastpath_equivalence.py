"""Property-based bit-identity of the batched fast path.

For any worker count, seed, horizon and link-delay distribution, running
a protocol with the round-synchronous fast path enabled must reproduce
the event-engine run *exactly*: identical allocation trajectories
(``==``, not ``allclose``) and identical communication accounting. This
is the contract documented in ``repro.net.batch`` — the fast path is an
execution-layer optimization, never a semantic change.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ckpt.codec import canonical_dumps, to_jsonable
from repro.ckpt.state import capture_protocol
from repro.costs.timevarying import RandomAffineProcess
from repro.exceptions import ProtocolError
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


def _run(protocol_cls, config, fast, chunk=None):
    n, seed, horizon, kind, speeds = config
    process = RandomAffineProcess(speeds, sigma=0.2, comm_scale=0.05, seed=seed)
    protocol = protocol_cls(n, link=_make_link(kind, seed), use_fast_path=fast)
    if chunk is not None:
        # Above the chunk size the flat broadcast streams through the
        # one-shot delivery instead of its delivery plan.
        protocol.cluster.batched().chunk_frames = chunk
    return protocol, protocol.run(process, horizon)


def _run_pair(protocol_cls, config):
    return {fast: _run(protocol_cls, config, fast) for fast in (False, True)}


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
    slow_metrics, fast_metrics = slow_protocol.metrics, fast_protocol.metrics
    assert slow_metrics.messages_total == fast_metrics.messages_total
    assert slow_metrics.bytes_total == fast_metrics.bytes_total
    # Same counts in the same creation order.
    assert list(slow_metrics.per_round_messages.items()) == list(
        fast_metrics.per_round_messages.items()
    )
    assert list(slow_metrics.per_pair_messages.items()) == list(
        fast_metrics.per_pair_messages.items()
    )
    assert slow_metrics.registry.to_records() == fast_metrics.registry.to_records()
    assert slow_protocol.cluster.engine.now == fast_protocol.cluster.engine.now


@given(configurations())
@settings(max_examples=40, deadline=None)
def test_fully_distributed_fast_path_bit_identical(config):
    runs = _run_pair(FullyDistributedDolbie, config)
    _assert_identical(runs, horizon=config[2])
    assert runs[True][0]._flat_round.plan is not None
    one_shot = _run(FullyDistributedDolbie, config, True, chunk=1)
    assert one_shot[0]._flat_round.plan is None
    _assert_identical({False: runs[False], True: one_shot}, horizon=config[2])


@st.composite
def churn_configurations(draw):
    """A fleet plus a random crash/rejoin schedule: worker -> (crash
    round, optional rejoin round), sometimes with two workers crashing
    at the same round boundary. Never crash everyone; rounds are
    1-based."""
    n = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 2**16))
    horizon = draw(st.integers(3, 10))
    kind = draw(st.sampled_from(("constant", "uniform")))
    aggregation = draw(st.sampled_from(("flat", "tree")))
    backend = draw(st.sampled_from(("numpy64", "numpy32")))
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
    if draw(st.booleans()):  # two crashes in one round
        pair = draw(
            st.lists(st.integers(0, n - 1), unique=True, min_size=2, max_size=2)
        )
        crash_t = draw(st.integers(1, horizon))
        for worker in pair:
            rejoin_t = draw(
                st.one_of(st.none(), st.integers(crash_t + 1, horizon + 1))
            )
            schedule[worker] = (crash_t, rejoin_t)
    return n, seed, horizon, kind, aggregation, backend, schedule


#: Snapshot fields that legitimately differ between routes: the route
#: counters, and the hydrated views' event-round containers, which
#: batched rounds leave stale (``observe_round`` resets them).
ROUTE_FIELDS = ("fast_rounds", "fallback_rounds", "detect_rounds",
                "peer_transients")


def _observables(protocol, outcome):
    state = capture_protocol(protocol)
    for field in ROUTE_FIELDS:
        state.pop(field)
    return {
        "outcome": outcome,
        "events": protocol.cluster.engine.processed_events,
        "bytes": protocol.metrics.bytes_total,
        "received": protocol._store.received_count.copy(),
        "pairs": list(protocol.metrics.per_pair_messages.items()),
        "snapshot": canonical_dumps(to_jsonable(state)),
    }


def _run_churn(config, fast_rounds=None):
    """Drive the schedule. With ``fast_rounds=None`` every round takes the
    production route, and the run also reports which rounds must stay
    batched in a reference run: tree rounds, and full-roster flat rounds
    on a float32 backend (both compute in the backend dtype, which the
    event engine never does). Given that set, every other round runs on
    the event engine — the reference."""
    n, seed, horizon, kind, aggregation, backend, schedule = config
    speeds = [1.0 + (7 * i + seed) % 13 for i in range(n)]
    process = RandomAffineProcess(speeds, sigma=0.2, comm_scale=0.05, seed=seed)
    link = _make_link(kind, seed)
    protocol = FullyDistributedDolbie(
        n, link=link, aggregation=aggregation, backend=backend
    )
    native, observed = set(), []
    for t in range(1, horizon + 1):
        for worker, (crash_t, rejoin_t) in schedule.items():
            if t == crash_t and len(protocol.alive_workers) > 2:
                protocol.crash_worker(worker)
            if rejoin_t is not None and t == rejoin_t:
                if worker not in protocol.alive_workers:
                    protocol.rejoin_worker(worker)
        if fast_rounds is not None:
            protocol.use_fast_path = t in fast_rounds
        before = (protocol.tree_rounds, protocol.fast_rounds,
                  protocol.detect_rounds)
        try:
            result = protocol.run_round(t, process.costs_at(t))
        except ProtocolError as exc:  # a closure may undershoot
            result = exc
        # The route counters move before a round runs, so a round that
        # raised is classified too.
        tree = protocol.tree_rounds > before[0]
        full_flat = (
            protocol.fast_rounds > before[1]
            and protocol.detect_rounds == before[2]
            and len(protocol.roster) == n
        )
        if tree or (full_flat and backend == "numpy32"):
            native.add(t)
        if isinstance(result, ProtocolError):
            observed.append({"error": str(result)})
            break
        observed.append(_observables(protocol, result))
    return protocol, observed, link, native


@given(churn_configurations())
# A full-roster round after a rejoin whose closure goes negative: both
# routes raise, and must leave the same state behind.
@example((4, 38, 3, "constant", "flat", "numpy64", {0: (1, 3)}))
@example((4, 38, 3, "constant", "flat", "numpy32", {0: (1, 3)}))
@settings(max_examples=30, deadline=None)
def test_fully_distributed_fast_path_bit_identical_under_churn(config):
    """Crash/rejoin schedules move rounds between the batched routes
    (tree, flat, failure detection) and the event engine; after every
    round the production run must match the reference run of
    :func:`_run_churn` exactly: outcomes, processed events, bytes,
    receive counters, and the whole protocol snapshot (rosters and their
    overrides, peer columns, ledgers and replicas, clock, metrics, link
    RNG position)."""
    fast, fast_observed, fast_link, native = _run_churn(config)
    slow, slow_observed, slow_link, _ = _run_churn(config, fast_rounds=native)
    assert len(fast_observed) == len(slow_observed)
    for t, (a, b) in enumerate(zip(slow_observed, fast_observed), start=1):
        if "error" in a or "error" in b:
            assert a == b, f"round {t}"
            continue
        (xa, la, ca, sa), (xb, lb, cb, sb) = a["outcome"], b["outcome"]
        assert np.array_equal(xa, xb), f"round {t}"
        # A dead worker's local cost is NaN on both sides.
        assert np.array_equal(la, lb, equal_nan=True), f"round {t}"
        assert ca == cb and sa == sb, f"round {t}"
        assert a["events"] == b["events"], f"round {t}"
        assert a["bytes"] == b["bytes"], f"round {t}"
        assert np.array_equal(a["received"], b["received"]), f"round {t}"
        assert a["snapshot"] == b["snapshot"], f"round {t}"
        assert a["pairs"] == b["pairs"], f"round {t}"
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
