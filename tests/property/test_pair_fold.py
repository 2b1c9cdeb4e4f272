"""Pair counts kept on read equal pair counts kept per delivery.

:class:`~repro.net.metrics.NetworkMetrics` logs each delivery's pairs
and builds its pair table only when something reads it. This property
runs event, flat, detect, tree and master-worker rounds, with metric
resets and checkpoint restores between them — and, below the protocols,
plan deliveries with and without ``drop=`` interleaved with one-shot
phases and per-frame sends — and at random points reads
the pairs every way a caller can — ``per_pair_messages``, the registry's
records, :func:`~repro.io.save_metrics`, a protocol capture and a
restore of it. Each read must equal an eager reference that this test
keeps itself, one frame at a time, by spying on the deliveries: the
same pairs, the same counts and the same creation order. The log's
bounds (keys held, the arrays in a run) are drawn small as well as at
their defaults, so the folds they force are covered too, as are the
folds that building a plan runs.
"""

import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.metrics as net_metrics
from repro.ckpt.codec import canonical_dumps, from_jsonable, to_jsonable
from repro.ckpt.state import (
    capture_cluster,
    capture_protocol,
    restore_cluster,
    restore_protocol,
)
from repro.costs.timevarying import RandomAffineProcess
from repro.io import load_metrics, save_metrics
from repro.net.batch import DeliveryPlan
from repro.net.cluster import Cluster
from repro.net.links import Link, UniformLatency
from repro.net.metrics import NetworkMetrics
from repro.net.node import Node
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.protocols.master_worker import MasterWorkerDolbie

#: metrics object -> {(src, dst): frames}, in first-occurrence order.
_EAGER: "weakref.WeakKeyDictionary[NetworkMetrics, dict]" = (
    weakref.WeakKeyDictionary()
)


def _count(metrics, src, dst) -> None:
    pairs = _EAGER.setdefault(metrics, {})
    for pair in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        pairs[pair] = pairs.get(pair, 0) + 1


def _install_spies(mp) -> None:
    """Wrap every delivery entry point so each frame also bumps the
    eager reference of its metrics object, in delivery order."""
    record = NetworkMetrics.record
    record_batch = NetworkMetrics.record_batch_arrays
    reset = NetworkMetrics.reset
    deliver = DeliveryPlan.deliver

    def spy_record(self, message):
        _count(self, [message.src], [message.dst])
        record(self, message)

    def spy_record_batch(self, round_index, messages, bytes_total, src, dst):
        if messages:
            _count(self, src, dst)
        record_batch(self, round_index, messages, bytes_total, src, dst)

    def spy_reset(self):
        _EAGER[self] = {}
        reset(self)

    def spy_deliver(self, send_times, drop=None):
        keep = np.ones(self.count, dtype=bool)
        if drop is not None:
            keep[drop] = False
        _count(self._batched.cluster.metrics, self.src[keep], self.dst[keep])
        return deliver(self, send_times, drop=drop)

    mp.setattr(NetworkMetrics, "record", spy_record)
    mp.setattr(NetworkMetrics, "record_batch_arrays", spy_record_batch)
    mp.setattr(NetworkMetrics, "reset", spy_reset)
    mp.setattr(DeliveryPlan, "deliver", spy_deliver)


def _build(kind, n, seed):
    link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed)))
    if kind == "mw":
        return MasterWorkerDolbie(n, link=link)
    if kind == "fd-tree":
        return FullyDistributedDolbie(
            n, link=link, aggregation="tree", shard_size=2, branching=2
        )
    return FullyDistributedDolbie(n, link=link)


def _check_reads(metrics, expected, how, tmp: Path) -> None:
    """One read of ``metrics``' pairs, compared with ``expected``."""
    expected_items = list(expected.items())
    if how == "view":
        assert list(metrics.per_pair_messages.items()) == expected_items
    elif how == "records":
        pairs = {
            (r["labels"]["src"], r["labels"]["dst"]): r["value"]
            for r in metrics.registry.to_records()
            if r["name"] == "net.pair_messages"
        }
        assert pairs == {pair: float(v) for pair, v in expected_items}
        # Counters are created in first-occurrence order.
        created = [
            (dict(m.labels)["src"], dict(m.labels)["dst"])
            for m in metrics.registry._metrics.values()
            if m.name == "net.pair_messages"
        ]
        assert created == [pair for pair, _ in expected_items]
    else:  # save_metrics
        path = save_metrics(metrics.registry, tmp / "metrics.jsonl")
        pairs = {
            (dict(m.labels)["src"], dict(m.labels)["dst"]): m.value
            for m in load_metrics(path).collect("net.pair_messages")
        }
        assert pairs == {pair: float(v) for pair, v in expected_items}


def _check_state(state, expected) -> None:
    columns = state["cluster"]["metrics"]
    keys = np.asarray(columns["pair_keys"])
    assert list(zip((keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist())) == list(
        expected
    )
    assert np.asarray(columns["pair_counts"]).tolist() == list(expected.values())


#: Rounds are drawn most often (fast or forced onto the event engine).
_OPS = st.sampled_from(
    [("round", True)] * 4
    + [("round", False)]
    + [("read", how) for how in ("view", "records", "save")]
    + [("reset",), ("capture",), ("restore",), ("crash",), ("rejoin",)]
)

#: The log's bounds — keys held before it folds, arrays in a run: the
#: defaults (drawn most often, so long unread runs occur) and bounds
#: that force folds mid-round.
_DEFAULTS = (net_metrics._PENDING_LIMIT, net_metrics._RUN_ARRAYS)
_BOUNDS = st.sampled_from([_DEFAULTS] * 3 + [(1, 1), (40, 2)])
_BOUND_NAMES = ("_PENDING_LIMIT", "_RUN_ARRAYS")


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["fd-flat", "fd-tree", "mw"]),
    n=st.integers(4, 9),
    seed=st.integers(0, 2**16),
    bounds=_BOUNDS,
    ops=st.lists(_OPS, min_size=1, max_size=14),
)
def test_pairs_read_anywhere_equal_eager_accounting(kind, n, seed, bounds, ops):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for name, value in zip(_BOUND_NAMES, bounds):
            mp.setattr(net_metrics, name, value)
        _install_spies(mp)
        speeds = [1.0 + (i % 5) for i in range(n)]
        process = RandomAffineProcess(speeds, sigma=1.0, comm_scale=0.01, seed=seed)
        protocol = _build(kind, n, seed)
        rng = np.random.default_rng(seed)
        t, crashed, saved = 0, None, None
        for op in ops:
            metrics = protocol.metrics
            if op[0] == "round":
                protocol.use_fast_path = op[1]
                t += 1
                protocol.run_round(t, process.costs_at(t))
            elif op[0] == "read":
                _check_reads(metrics, _EAGER.get(metrics, {}), op[1], Path(tmp))
            elif op[0] == "reset":
                metrics.reset()
            elif op[0] == "capture":
                state = capture_protocol(protocol)
                _check_state(state, _EAGER.get(metrics, {}))
                encoded = canonical_dumps(to_jsonable(state))
                saved = (encoded, t, crashed, dict(_EAGER.get(metrics, {})))
            elif op[0] == "restore" and saved is not None:
                encoded, t, crashed, expected = saved
                protocol = _build(kind, n, seed)
                restore_protocol(protocol, from_jsonable(json.loads(encoded)))
                _EAGER[protocol.metrics] = dict(expected)
                assert list(protocol.metrics.per_pair_messages.items()) == list(
                    expected.items()
                )
            elif op[0] == "crash" and crashed is None and t > 0:
                crashed = int(rng.integers(n))
                protocol.crash_worker(crashed)
            elif op[0] == "rejoin" and crashed is not None:
                protocol.rejoin_worker(crashed)
                crashed = None
        _check_reads(
            protocol.metrics, _EAGER.get(protocol.metrics, {}), "view", Path(tmp)
        )


@st.composite
def _layouts(draw, n):
    """A plan layout and the frames ``drop=`` may withhold (those whose
    pair occurs once in the layout)."""
    frames = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=10,
        )
    )
    droppable = [k for k, pair in enumerate(frames) if frames.count(pair) == 1]
    return np.array(frames, dtype=np.int64).T, droppable


_FRAMES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6
)

#: ("plan", which plan, which droppable frame to withhold or None).
#: ("build", which plan): rebuild it, folding the log and letting the
#: old plan go.
_PLAN = st.tuples(
    st.just("plan"), st.integers(0, 2), st.one_of(st.none(), st.integers(0, 9))
)
_PHASE = st.tuples(st.just("phase"), _FRAMES)

#: Plan deliveries and one-shot phases are drawn most often: pair
#: creation order around ``drop=`` shows only when they interleave.
_DELIVERY_OPS = st.lists(
    st.one_of(
        _PLAN,
        _PLAN,
        _PLAN,
        _PHASE,
        _PHASE,
        st.tuples(st.just("send"), _FRAMES),
        st.tuples(st.just("build"), st.integers(0, 2)),
        st.tuples(st.just("read"), st.sampled_from(["view", "records"])),
        st.just(("reset",)),
        st.just(("capture",)),
        st.just(("restore",)),
    ),
    min_size=1,
    max_size=16,
)


#: One plan of two member->head frames, both droppable.
_TWO_FRAMES = [(np.array([[1, 2], [0, 0]]), [0, 1])]


@settings(max_examples=300, deadline=None)
@given(
    layouts=st.lists(_layouts(6), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    bounds=_BOUNDS,
    ops=_DELIVERY_OPS,
)
# A frame's pair is created only when a delivery sends it: after the
# one-shot frame between, whether the plan comes back whole or minus
# another frame.
@example(_TWO_FRAMES, 0, _DEFAULTS, [("plan", 0, 0), ("phase", [(3, 4)]), ("plan", 0, None)])
@example(_TWO_FRAMES, 0, _DEFAULTS, [("plan", 0, 0), ("phase", [(3, 4)]), ("plan", 0, 1)])
@example(  # ... and when the plan is rebuilt in between
    _TWO_FRAMES,
    0,
    _DEFAULTS,
    [("plan", 0, 0), ("phase", [(3, 4)]), ("build", 0), ("plan", 0, None)],
)
def test_plan_drops_between_one_shot_frames_equal_eager_accounting(
    layouts, seed, bounds, ops
):
    """Pair creation order around ``drop=``: a plan first delivered
    minus a frame creates that frame's pair only on a later delivery
    that includes it, after whatever one-shot frames came between."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for name, value in zip(_BOUND_NAMES, bounds):
            mp.setattr(net_metrics, name, value)
        _install_spies(mp)

        def build():
            link = Link(UniformLatency(0.001, 0.01, np.random.default_rng(seed)))
            nodes = [Node(i) for i in range(6)]
            for node in nodes:
                node.on("frame", lambda message: None)
            return Cluster(nodes, default_link=link)

        cluster = build()
        batched = cluster.batched()
        plans = [batched.plan(src, dst, 2) for (src, dst), _ in layouts]
        saved = None
        for round_index, op in enumerate(ops):
            metrics = cluster.metrics
            batched.begin_round(round_index)
            if op[0] == "plan":
                k = op[1] % len(plans)
                droppable = layouts[k][1]
                drop = (
                    droppable[op[2] % len(droppable)]
                    if op[2] is not None and droppable
                    else None
                )
                count = plans[k].count - (drop is not None)
                plans[k].deliver(np.zeros(count), drop=drop)
            elif op[0] == "build":
                k = op[1] % len(plans)
                (src, dst), _ = layouts[k]
                plans[k] = batched.plan(src, dst, 2)
            elif op[0] == "phase":
                src, dst = np.array(op[1], dtype=np.int64).T
                batched.deliver(src, dst, 1, 0.0)
            elif op[0] == "send":
                for src, dst in op[1]:
                    if src != dst:
                        cluster.send(src, dst, "frame", {"v": 1.0}, round_index)
                cluster.run()
                batched.begin_round(round_index)
            elif op[0] == "read":
                _check_reads(metrics, _EAGER.get(metrics, {}), op[1], Path(tmp))
            elif op[0] == "reset":
                metrics.reset()
            elif op[0] == "capture":
                saved = (capture_cluster(cluster), dict(_EAGER.get(metrics, {})))
                assert saved[0]["metrics"]["pair_keys"].size == len(saved[1])
            elif op[0] == "restore" and saved is not None:
                restore_cluster(cluster, saved[0])
                _EAGER[cluster.metrics] = dict(saved[1])
        _check_reads(
            cluster.metrics, _EAGER.get(cluster.metrics, {}), "view", Path(tmp)
        )
