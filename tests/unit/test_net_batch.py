"""Unit tests for the batched fast-path substrate (``repro.net.batch``).

The fast path's contract is *bit*-identity with the event engine, which
rests on three properties checked here: batched latency draws are
element- and stream-identical to sequential scalar draws, bulk metrics
accounting matches N scalar records, and eligibility goes False under
every hook that would change observable behaviour.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.net.batch import BatchedCluster
from repro.net.cluster import Cluster
from repro.net.events import EventEngine
from repro.net.links import ConstantLatency, Link, LogNormalLatency, UniformLatency
from repro.net.message import FrameBatch, Message, scalar_payload_size
from repro.net.metrics import NetworkMetrics
from repro.net.node import Node


class TestSampleBatchStreamIdentity:
    """sample_batch(n) == [sample()]*n element-wise AND leaves the RNG at
    the same stream position, for every latency model."""

    def test_constant(self):
        model = ConstantLatency(0.25)
        assert np.array_equal(model.sample_batch(5), np.full(5, 0.25))

    def test_uniform(self):
        a = UniformLatency(0.001, 0.01, np.random.default_rng(7))
        b = UniformLatency(0.001, 0.01, np.random.default_rng(7))
        batch = a.sample_batch(64)
        scalars = np.array([b.sample() for _ in range(64)])
        assert np.array_equal(batch, scalars)
        # stream position: the *next* draw must also agree
        assert a.sample() == b.sample()

    def test_lognormal(self):
        a = LogNormalLatency(0.005, 0.5, np.random.default_rng(11))
        b = LogNormalLatency(0.005, 0.5, np.random.default_rng(11))
        batch = a.sample_batch(64)
        scalars = np.array([b.sample() for _ in range(64)])
        assert np.array_equal(batch, scalars)
        assert a.sample() == b.sample()

    def test_mixed_batch_and_scalar_interleaving(self):
        # Alternating batched and scalar draws must replay one long
        # scalar stream — this is what lets fast and fallback rounds mix
        # within a single run.
        a = UniformLatency(0.0, 1.0, np.random.default_rng(3))
        b = UniformLatency(0.0, 1.0, np.random.default_rng(3))
        got = list(a.sample_batch(3)) + [a.sample()] + list(a.sample_batch(2))
        want = [b.sample() for _ in range(6)]
        assert got == want

    def test_delay_batch_includes_transmission(self):
        link = Link(ConstantLatency(0.01), bandwidth_bps=8_000.0)
        delays = link.delay_batch(4, size_bytes=1_000)
        # 8 * 1000 bits / 8000 bps = 1 s of serialization per frame
        assert np.array_equal(delays, np.full(4, 0.01 + 1.0))

    def test_delay_batch_matches_scalar_delay(self):
        a = Link(LogNormalLatency(0.002, 0.3, np.random.default_rng(5)))
        b = Link(LogNormalLatency(0.002, 0.3, np.random.default_rng(5)))
        batch = a.delay_batch(16, size_bytes=24)
        scalars = np.array([b.delay(24) for _ in range(16)])
        assert np.array_equal(batch, scalars)


class TestRecordBatch:
    def test_matches_n_scalar_records(self):
        a, b = NetworkMetrics(), NetworkMetrics()
        pairs = [(0, 1), (1, 0), (0, 1), (2, 1)]
        payload = {"l": 1.0, "alpha_bar": 0.5}
        size = scalar_payload_size(payload)
        for src, dst in pairs:
            a.record(
                Message(src=src, dst=dst, tag="cost", payload=payload,
                        size_bytes=size, send_time=0.0, round_index=3)
            )
        b.record_batch(
            round_index=3, messages=len(pairs),
            bytes_total=size * len(pairs), pairs=pairs,
        )
        assert a.messages_total == b.messages_total
        assert a.bytes_total == b.bytes_total
        assert a.per_round_messages == b.per_round_messages
        assert a.per_round_bytes == b.per_round_bytes
        assert a.per_pair_messages == b.per_pair_messages


class TestRecordBatchArrays:
    def test_matches_pairwise_record_batch(self):
        rng = np.random.default_rng(9)
        src = rng.integers(0, 40, size=500)
        dst = rng.integers(0, 40, size=500)
        a, b = NetworkMetrics(), NetworkMetrics()
        a.record_batch(
            round_index=2, messages=500, bytes_total=12_000,
            pairs=zip(src.tolist(), dst.tolist()),
        )
        b.record_batch_arrays(
            round_index=2, messages=500, bytes_total=12_000,
            src=src, dst=dst,
        )
        assert a.messages_total == b.messages_total
        assert a.bytes_total == b.bytes_total
        assert a.per_round_messages == b.per_round_messages
        assert a.per_pair_messages == b.per_pair_messages

    def test_counter_creation_order_matches_first_occurrence(self):
        # The registry snapshot order is observable; the vectorized path
        # must create per-pair counters in the order pairs first appear,
        # exactly like the scalar loop does.
        src = np.array([3, 0, 3, 1, 0])
        dst = np.array([1, 2, 1, 0, 2])
        a, b = NetworkMetrics(), NetworkMetrics()
        a.record_batch(
            round_index=1, messages=5, bytes_total=50,
            pairs=zip(src.tolist(), dst.tolist()),
        )
        b.record_batch_arrays(
            round_index=1, messages=5, bytes_total=50, src=src, dst=dst
        )
        assert list(a.per_pair_messages) == list(b.per_pair_messages)

    def test_empty_batch_is_noop_for_pairs(self):
        metrics = NetworkMetrics()
        metrics.record_batch_arrays(
            round_index=1, messages=0, bytes_total=0,
            src=np.array([], dtype=int), dst=np.array([], dtype=int),
        )
        assert metrics.per_pair_messages == {}


class TestGroupByDestination:
    def test_matches_python_grouping(self):
        from repro.net.batch import group_by_destination

        rng = np.random.default_rng(4)
        dst = rng.integers(0, 12, size=200)
        values = rng.uniform(size=200)
        unique, groups = group_by_destination(dst, values)
        reference: dict[int, list[float]] = {}
        for d, v in zip(dst.tolist(), values.tolist()):
            reference.setdefault(d, []).append(v)
        assert unique.tolist() == sorted(reference)
        for d, group in zip(unique.tolist(), groups):
            # stable: each destination's values keep frame order
            assert group.tolist() == reference[d]

    def test_empty_input(self):
        from repro.net.batch import group_by_destination

        unique, groups = group_by_destination(
            np.array([], dtype=int), np.array([])
        )
        assert unique.size == 0
        assert groups == []


class TestEventEngineExtensions:
    def test_pending_tracks_queue_depth(self):
        engine = EventEngine()
        assert engine.pending == 0
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending == 2
        engine.run()
        assert engine.pending == 0

    def test_advance_to_moves_clock_forward_only(self):
        engine = EventEngine()
        engine.advance_to(5.0)
        assert engine.now == 5.0
        with pytest.raises(SimulationError):
            engine.advance_to(4.0)

    def test_credit_events(self):
        engine = EventEngine()
        before = engine.processed_events
        engine.credit_events(7)
        assert engine.processed_events == before + 7
        with pytest.raises(SimulationError):
            engine.credit_events(-1)

    def test_budget_error_reports_queue_state(self):
        engine = EventEngine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        with pytest.raises(SimulationError) as excinfo:
            engine.run(max_events=10)
        text = str(excinfo.value)
        assert "event budget of 10 exhausted" in text
        assert "queue depth" in text
        assert "virtual time" in text
        assert "next event at t=" in text


def _cluster(n=3, **kwargs):
    nodes = [Node(i) for i in range(n)]
    return Cluster(nodes, **kwargs)


class TestBatchEligibility:
    def test_eligible_by_default(self):
        cluster = _cluster(default_link=Link(ConstantLatency(0.001)))
        assert cluster.batch_eligible()
        assert isinstance(cluster.batched(), BatchedCluster)

    def test_partition_disables(self):
        cluster = _cluster()
        cluster.set_partition([[0, 1, 2]])  # trivial partition still counts
        assert cluster.chaos_active
        assert not cluster.batch_eligible()
        cluster.clear_partition()
        assert cluster.batch_eligible()

    def test_extra_delay_disables(self):
        cluster = _cluster()
        cluster.set_extra_delay(1, 0.5)
        assert not cluster.batch_eligible()
        cluster.set_extra_delay(1, 0.0)
        assert cluster.batch_eligible()

    def test_frame_loss_override_disables_even_at_zero(self):
        cluster = _cluster()
        cluster.set_frame_loss(0.0, np.random.default_rng(0))
        # probability 0 drops nothing, but the hook still draws from the
        # rng per frame — skipping those draws would shift the stream.
        assert not cluster.batch_eligible()
        cluster.clear_frame_loss()
        assert cluster.batch_eligible()

    def test_per_pair_link_disables(self):
        cluster = _cluster()
        cluster.set_link(0, 1, Link(ConstantLatency(0.2)))
        assert not cluster.batch_eligible()

    def test_colocation_disables(self):
        cluster = _cluster()
        cluster.colocate(0, 1)
        assert not cluster.batch_eligible()

    def test_lossy_default_link_disables(self):
        link = Link(ConstantLatency(0.001), loss_probability=0.1,
                    loss_rng=np.random.default_rng(1))
        cluster = _cluster(default_link=link)
        assert not cluster.batch_eligible()

    def test_pending_events_disable(self):
        cluster = _cluster()
        cluster.engine.schedule(1.0, lambda: None)
        assert not cluster.batch_eligible()
        cluster.engine.run()
        assert cluster.batch_eligible()


class TestBatchedDelivery:
    def test_deliver_refuses_when_ineligible(self):
        cluster = _cluster()
        batched = cluster.batched()
        cluster.set_extra_delay(0, 1.0)
        batch = FrameBatch(
            tag="cost", src=np.array([0]), dst=np.array([1]),
            payload={"l": np.array([1.0])},
        )
        with pytest.raises(SimulationError):
            batched.deliver(batch, send_times=np.array([0.0]))

    def test_deliver_accounts_metrics_and_receipts(self):
        cluster = _cluster(default_link=Link(ConstantLatency(0.01)))
        batched = cluster.batched()
        batch = FrameBatch(
            tag="cost",
            src=np.array([0, 1, 2]),
            dst=np.array([1, 2, 0]),
            payload={"l": np.array([1.0, 2.0, 3.0])},
            round_index=4,
        )
        arrivals = batched.deliver(batch, send_times=np.zeros(3))
        assert np.array_equal(arrivals, np.full(3, 0.01))
        assert cluster.metrics.messages_total == 3
        assert cluster.metrics.bytes_total == batch.total_bytes
        assert cluster.metrics.per_round_messages[4] == 3
        assert cluster.metrics.per_pair_messages[(0, 1)] == 1
        for node_id in range(3):
            assert cluster.node(node_id).received_count == 1

    def test_failed_receivers_are_counted_but_not_bumped(self):
        """Frames to a failed node cross the wire and draw a delay, and
        the node discards them uncounted — as ``Node.deliver`` does."""
        cluster = _cluster(default_link=Link(ConstantLatency(0.01)))
        cluster.node(2).failed = True
        batch = FrameBatch(
            tag="cost", src=np.array([0, 1, 0]), dst=np.array([2, 2, 1]),
            payload={"l": np.zeros(3)},
        )
        arrivals = cluster.batched().deliver(batch, send_times=0.0)
        assert arrivals.size == 3
        assert cluster.metrics.messages_total == 3
        assert cluster.metrics.per_pair_messages[(1, 2)] == 1
        assert cluster.node(2).received_count == 0
        assert cluster.node(1).received_count == 1

    def test_finish_round_advances_clock_and_credits(self):
        cluster = _cluster()
        batched = cluster.batched()
        events_before = cluster.engine.processed_events
        batched.finish_round(now=2.5, events=9)
        assert cluster.engine.now == 2.5
        assert cluster.engine.processed_events == events_before + 9


class TestFrameBatch:
    def test_sizes_and_pairs(self):
        batch = FrameBatch(
            tag="coord",
            src=np.array([3, 3]),
            dst=np.array([0, 1]),
            payload={"l": np.zeros(2), "alpha": np.zeros(2), "flag": np.zeros(2)},
        )
        assert batch.count == 2
        assert batch.size_bytes == 24  # 3 scalar fields x 8 bytes
        assert batch.total_bytes == 48
        assert batch.pairs() == [(3, 0), (3, 1)]


def _phase_cluster(n=6, seed=7):
    nodes = [Node(i) for i in range(n)]
    rng = np.random.default_rng(seed)
    return Cluster(nodes, default_link=Link(UniformLatency(0.001, 0.01, rng)))


def _phase_batch(round_index=3):
    # 7 frames, repeated pairs, out-of-order destinations — enough
    # structure to distinguish per-frame from per-pair accounting.
    return FrameBatch(
        tag="cost",
        src=np.array([1, 2, 3, 1, 4, 2, 5]),
        dst=np.array([0, 0, 1, 0, 1, 0, 2]),
        payload={
            "l": np.arange(7, dtype=float),
            "alpha": np.arange(7, dtype=float) / 8,
        },
        round_index=round_index,
    )


class TestFrameBatchChunks:
    def test_chunk_boundary_frames_reassemble_exactly(self):
        batch = _phase_batch()
        chunks = list(batch.chunks(3))
        assert [(lo, sub.count) for lo, sub in chunks] == [(0, 3), (3, 3), (6, 1)]
        assert np.array_equal(
            np.concatenate([sub.src for _, sub in chunks]), batch.src
        )
        assert np.array_equal(
            np.concatenate([sub.payload["l"] for _, sub in chunks]),
            batch.payload["l"],
        )
        for _, sub in chunks:
            assert sub.tag == batch.tag and sub.round_index == batch.round_index
            assert sub.size_bytes == batch.size_bytes
            # zero-copy: chunk columns are views of the parent arrays
            assert sub.src.base is batch.src

    def test_single_frame_chunks(self):
        batch = _phase_batch()
        chunks = list(batch.chunks(1))
        assert len(chunks) == batch.count
        assert all(sub.count == 1 for _, sub in chunks)
        assert [lo for lo, _ in chunks] == list(range(batch.count))

    def test_chunk_size_larger_than_batch_yields_batch_itself(self):
        batch = _phase_batch()
        chunks = list(batch.chunks(batch.count * 10))
        assert len(chunks) == 1
        lo, sub = chunks[0]
        assert lo == 0 and sub is batch

    def test_invalid_chunk_size_raises(self):
        with pytest.raises(ValueError):
            list(_phase_batch().chunks(0))

    def test_default_chunk_frames_env(self, monkeypatch):
        from repro.net.batch import CHUNK_ENV, DEFAULT_CHUNK_FRAMES, default_chunk_frames

        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert default_chunk_frames() == DEFAULT_CHUNK_FRAMES
        monkeypatch.setenv(CHUNK_ENV, "100")
        assert default_chunk_frames() == 100
        monkeypatch.setenv(CHUNK_ENV, "0")
        assert default_chunk_frames() is None


class TestChunkedDelivery:
    """deliver(chunk_frames=K) is bit-identical to one-shot delivery."""

    def _deliver(self, chunk_frames, send_times):
        cluster = _phase_cluster()
        batched = cluster.batched()
        batch = _phase_batch()
        arrivals = batched.deliver(batch, send_times, chunk_frames=chunk_frames)
        next_draw = cluster._default_link.delay_batch(1, 8)[0]
        return cluster, arrivals, next_draw

    @pytest.mark.parametrize("send_times", [0.25, np.linspace(0.0, 0.6, 7)])
    @pytest.mark.parametrize("chunk_frames", [1, 2, 3, 100])
    def test_bit_identical_to_one_shot(self, chunk_frames, send_times):
        ref_cluster, ref_arrivals, ref_draw = self._deliver(None, send_times)
        cluster, arrivals, draw = self._deliver(chunk_frames, send_times)
        assert np.array_equal(arrivals, ref_arrivals)
        # RNG stream position: the next draw agrees
        assert draw == ref_draw
        assert cluster.metrics.messages_total == ref_cluster.metrics.messages_total
        assert cluster.metrics.bytes_total == ref_cluster.metrics.bytes_total
        assert (
            cluster.metrics.per_round_messages
            == ref_cluster.metrics.per_round_messages
        )
        # Per-pair values AND counter creation order
        assert list(cluster.metrics.per_pair_messages.items()) == list(
            ref_cluster.metrics.per_pair_messages.items()
        )
        for i in range(6):
            assert (
                cluster.node(i).received_count
                == ref_cluster.node(i).received_count
            )


class TestDeliveryPlan:
    """Plan delivery matches eager FrameBatch delivery bit for bit."""

    def _eager(self, batch, send_times):
        cluster = _phase_cluster()
        batched = cluster.batched()
        arrivals = batched.deliver(batch, send_times)
        return cluster, arrivals

    def _planned(self, batch, send_times, drop=None):
        cluster = _phase_cluster()
        batched = cluster.batched()
        plan = batched.plan(batch.src, batch.dst, len(batch.payload))
        arrivals = plan.deliver(batch.round_index, send_times, drop=drop)
        return cluster, arrivals, plan

    def _assert_parity(self, eager_cluster, plan_cluster):
        assert (
            plan_cluster.metrics.messages_total
            == eager_cluster.metrics.messages_total
        )
        assert plan_cluster.metrics.bytes_total == eager_cluster.metrics.bytes_total
        assert (
            plan_cluster.metrics.per_round_messages
            == eager_cluster.metrics.per_round_messages
        )
        assert list(plan_cluster.metrics.per_pair_messages.items()) == list(
            eager_cluster.metrics.per_pair_messages.items()
        )
        for i in range(6):
            assert (
                plan_cluster.node(i).received_count
                == eager_cluster.node(i).received_count
            )

    def test_accounting_parity_with_eager_delivery(self):
        batch = _phase_batch()
        send_times = np.linspace(0.0, 0.6, batch.count)
        eager_cluster, eager_arrivals = self._eager(batch, send_times)
        plan_cluster, plan_arrivals, _ = self._planned(batch, send_times)
        assert np.array_equal(plan_arrivals, eager_arrivals)
        self._assert_parity(eager_cluster, plan_cluster)
        # Same RNG stream consumption: next draw agrees
        assert (
            plan_cluster._default_link.delay_batch(1, 8)[0]
            == eager_cluster._default_link.delay_batch(1, 8)[0]
        )

    def test_repeat_rounds_accumulate_like_eager(self):
        batch = _phase_batch()
        eager_cluster, _ = self._eager(batch, 0.0)
        eager_cluster.batched().deliver(
            FrameBatch(batch.tag, batch.src, batch.dst, batch.payload, 4), 1.0
        )
        plan_cluster, _, plan = self._planned(batch, 0.0)
        plan.deliver(4, 1.0)
        self._assert_parity(eager_cluster, plan_cluster)

    def test_drop_matches_eager_masked_delivery(self):
        # Member->head layout: every frame is a distinct (src, dst) pair,
        # the precondition for drop=.
        src = np.array([1, 2, 3, 4, 5])
        dst = np.array([0, 0, 0, 3, 3])
        payload = {"x": np.arange(5, dtype=float)}
        send = np.linspace(0.0, 1.0, 5)
        drop = 2
        masked = FrameBatch(
            "decision", np.delete(src, drop), np.delete(dst, drop),
            {"x": np.delete(payload["x"], drop)}, 6,
        )
        eager_cluster, eager_arrivals = self._eager(masked, np.delete(send, drop))
        plan_cluster = _phase_cluster()
        plan = plan_cluster.batched().plan(src, dst, 1)
        plan_arrivals = plan.deliver(6, np.delete(send, drop), drop=drop)
        assert np.array_equal(plan_arrivals, eager_arrivals)
        self._assert_parity(eager_cluster, plan_cluster)

    def test_metrics_reset_revalidates_pair_handles(self):
        batch = _phase_batch()
        plan_cluster, _, plan = self._planned(batch, 0.0)
        plan_cluster.metrics.reset()
        plan.deliver(5, 0.0)
        eager_cluster, _ = self._eager(batch, 0.0)
        assert list(plan_cluster.metrics.per_pair_messages.items()) == list(
            eager_cluster.metrics.per_pair_messages.items()
        )

    def test_pair_accounting_disabled_skips_pair_dict(self):
        cluster = _phase_cluster()
        cluster.metrics.pair_accounting = False
        plan = cluster.batched().plan(np.array([1]), np.array([0]), 1)
        plan.deliver(1, 0.0)
        assert cluster.metrics.per_pair_messages == {}
        assert cluster.metrics.messages_total == 1

    def test_pair_list_is_built_on_first_pair_bump_only(self):
        batch = _phase_batch()
        cluster = _phase_cluster()
        plan = cluster.batched().plan(batch.src, batch.dst, 2)
        assert plan._pairs is None
        cluster.metrics.pair_accounting = False
        plan.deliver(1, 0.0)
        assert plan._pairs is None
        cluster.metrics.pair_accounting = True
        plan.deliver(2, 0.0)
        assert plan._pairs == [
            ((1, 0), 2), ((2, 0), 2), ((3, 1), 1), ((4, 1), 1), ((5, 2), 1)
        ]

    def test_shape_mismatch_raises(self):
        cluster = _phase_cluster()
        with pytest.raises(ValueError):
            cluster.batched().plan(np.array([1, 2]), np.array([0]), 1)

    def test_ineligible_cluster_refuses(self):
        cluster = _phase_cluster()
        plan = cluster.batched().plan(np.array([1]), np.array([0]), 1)
        cluster.set_extra_delay(0, 1.0)
        with pytest.raises(SimulationError):
            plan.deliver(1, 0.0)
