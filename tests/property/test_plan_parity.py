"""Property-based parity of :class:`~repro.net.batch.DeliveryPlan`.

A plan precomputes a repeating ``(src, dst)`` layout's accounting once
(its receiver counts) and replays it every round; the metrics count its
pairs when they are read. Its observable contract is
that ``plan.deliver`` is indistinguishable from eager
:meth:`BatchedCluster.deliver` of the same layout (minus a dropped
frame): same arrivals, same totals and per-round counts, same per-pair
values *and* counter creation order, same ``received_count`` advances,
same RNG stream position — over an object-node cluster and a lazy-node
cluster, with the pairs folded every round or first read at the end
(no pair table exists before that read), and across a
``metrics.reset()`` between rounds. The table-backed
registry then round-trips through a cluster checkpoint and through
:func:`~repro.io.save_metrics` byte for byte.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.codec import canonical_dumps, from_jsonable, to_jsonable
from repro.ckpt.state import capture_cluster, restore_cluster
from repro.io import load_metrics, save_metrics
from repro.net.cluster import Cluster
from repro.net.links import Link, UniformLatency
from repro.net.node import LazyNodeTable, Node


@st.composite
def layouts(draw):
    n = draw(st.integers(2, 8))
    frames = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=24,
        )
    )
    src = np.array([s for s, _ in frames], dtype=np.int64)
    dst = np.array([d for _, d in frames], dtype=np.int64)
    # drop= needs a frame whose (src, dst) pair occurs once in the layout.
    unique_frames = [k for k, pair in enumerate(frames) if frames.count(pair) == 1]
    drop = (
        draw(st.one_of(st.none(), st.sampled_from(unique_frames)))
        if unique_frames
        else None
    )
    rounds = draw(st.integers(1, 3))
    return {
        "n": n,
        "src": src,
        "dst": dst,
        "drop": drop,
        "payload_fields": draw(st.integers(1, 3)),
        "rounds": rounds,
        "reset_before": draw(st.one_of(st.none(), st.integers(0, rounds - 1))),
        "per_frame_send": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _cluster(n, seed, lazy):
    link = Link(UniformLatency(0.001, 0.01, np.random.default_rng(seed)))
    if lazy:
        nodes = LazyNodeTable(
            n, Node, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
        )
    else:
        nodes = [Node(i) for i in range(n)]
    return Cluster(nodes, default_link=link)


def _received(cluster, n):
    if cluster.lazy_nodes is not None:
        return cluster.lazy_nodes.received_count.tolist()
    return [cluster.node(i).received_count for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(layouts(), st.booleans(), st.booleans())
def test_plan_delivery_matches_eager_delivery(layout, lazy, read_each_round):
    n, src, dst, drop = layout["n"], layout["src"], layout["dst"], layout["drop"]
    fields = layout["payload_fields"]
    eager = _cluster(n, layout["seed"], lazy)
    planned = _cluster(n, layout["seed"], lazy)
    plan = planned.batched().plan(src, dst, fields)
    keep = np.ones(src.size, dtype=bool)
    if drop is not None:
        keep[drop] = False
    count = int(keep.sum())
    send_rng = np.random.default_rng(layout["seed"] + 1)
    for r in range(layout["rounds"]):
        if r == layout["reset_before"]:
            eager.metrics.reset()
            planned.metrics.reset()
        round_index = 10 + r
        eager.batched().begin_round(round_index)
        planned.batched().begin_round(round_index)
        send = (
            send_rng.uniform(0.0, 1.0, count)
            if layout["per_frame_send"]
            else float(r)
        )
        eager_arrivals = eager.batched().deliver(
            src[keep], dst[keep], fields, send
        )
        plan_arrivals = plan.deliver(send, drop=drop)
        assert np.array_equal(plan_arrivals, eager_arrivals)
        if read_each_round:
            planned.metrics.fold()
        else:  # no pair table until read
            assert planned.metrics._pairs == 0

    em, pm = eager.metrics, planned.metrics
    assert pm.messages_total == em.messages_total
    assert pm.bytes_total == em.bytes_total
    assert pm.per_round_messages == em.per_round_messages
    assert pm.per_round_bytes == em.per_round_bytes
    assert list(pm.per_pair_messages.items()) == list(em.per_pair_messages.items())
    assert pm.registry.to_records() == em.registry.to_records()
    assert _received(planned, n) == _received(eager, n)
    # Same RNG stream position: the next draw agrees.
    assert (
        planned._default_link.delay_batch(1, 8)[0]
        == eager._default_link.delay_batch(1, 8)[0]
    )

    # Checkpoint round trip: the plan-fed and eager clusters capture to
    # the same bytes, and restoring that capture reproduces them.
    snapshot = canonical_dumps(to_jsonable(capture_cluster(planned)))
    assert snapshot == canonical_dumps(to_jsonable(capture_cluster(eager)))
    restored = _cluster(n, layout["seed"], lazy)
    restore_cluster(restored, from_jsonable(json.loads(snapshot)))
    assert canonical_dumps(to_jsonable(capture_cluster(restored))) == snapshot
    rm = restored.metrics
    assert rm.per_round_messages == pm.per_round_messages
    assert rm.per_pair_messages == pm.per_pair_messages
    # save_metrics: identical files, and load -> save is the identity.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {
            name: save_metrics(metrics.registry, tmp / f"{name}.jsonl").read_bytes()
            for name, metrics in (("eager", em), ("plan", pm), ("restored", rm))
        }
        assert files["plan"] == files["eager"] == files["restored"]
        reloaded = save_metrics(
            load_metrics(tmp / "plan.jsonl"), tmp / "reloaded.jsonl"
        )
        assert reloaded.read_bytes() == files["plan"]
