"""Unit tests for the batched fast-path substrate (``repro.net.batch``).

The fast path's contract is *bit*-identity with the event engine, which
rests on three properties checked here: batched latency draws are
element- and stream-identical to sequential scalar draws, bulk metrics
accounting matches N scalar records, and eligibility goes False under
every hook that would change observable behaviour.
"""

import weakref

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.net.batch import BatchedCluster
from repro.net.cluster import Cluster
from repro.net.events import EventEngine
from repro.net.links import ConstantLatency, Link, LogNormalLatency, UniformLatency
from repro.net.message import Message, scalar_payload_size
from repro.net.metrics import NetworkMetrics
from repro.net.node import LazyNodeTable, Node


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


def _record_frames(metrics, round_index, src, dst, size_bytes):
    """One per-frame :meth:`NetworkMetrics.record` call per (src, dst)."""
    for s, d in zip(src, dst):
        metrics.record(
            Message(src=int(s), dst=int(d), tag="cost", payload={},
                    size_bytes=size_bytes, send_time=0.0,
                    round_index=round_index)
        )


class TestRecordBatch:
    def test_matches_n_scalar_records(self):
        a, b = NetworkMetrics(), NetworkMetrics()
        src, dst = np.array([0, 1, 0, 2]), np.array([1, 0, 1, 1])
        size = scalar_payload_size({"l": 1.0, "alpha_bar": 0.5})
        _record_frames(a, 3, src, dst, size)
        b.record_batch_arrays(
            round_index=3, messages=src.size,
            bytes_total=size * src.size, src=src, dst=dst,
        )
        assert a.messages_total == b.messages_total
        assert a.bytes_total == b.bytes_total
        assert a.per_round_messages == b.per_round_messages
        assert a.per_round_bytes == b.per_round_bytes
        assert list(a.per_pair_messages.items()) == list(
            b.per_pair_messages.items()
        )
        assert a.registry.to_records() == b.registry.to_records()


class TestRecordBatchArrays:
    def test_matches_per_frame_records(self):
        rng = np.random.default_rng(9)
        src = rng.integers(0, 40, size=500)
        dst = rng.integers(0, 40, size=500)
        a, b = NetworkMetrics(), NetworkMetrics()
        _record_frames(a, 2, src, dst, 24)
        b.record_batch_arrays(
            round_index=2, messages=500, bytes_total=12_000,
            src=src, dst=dst,
        )
        assert a.messages_total == b.messages_total
        assert a.bytes_total == b.bytes_total
        assert a.per_round_messages == b.per_round_messages
        assert a.per_pair_messages == b.per_pair_messages

    def test_counter_creation_order_matches_first_occurrence(self):
        # The pair order is observable; the vectorized path must create
        # pairs in the order they first appear, exactly like per-frame
        # records do.
        src = np.array([3, 0, 3, 1, 0])
        dst = np.array([1, 2, 1, 0, 2])
        a, b = NetworkMetrics(), NetworkMetrics()
        _record_frames(a, 1, src, dst, 10)
        b.record_batch_arrays(
            round_index=1, messages=5, bytes_total=50, src=src, dst=dst
        )
        assert list(a.per_pair_messages) == list(b.per_pair_messages)
        assert list(b.per_pair_messages) == [(3, 1), (0, 2), (1, 0)]

    def test_later_batches_append_new_pairs_in_order(self):
        # A second batch mixing known and new pairs bumps the known
        # slots and appends the new pairs in first-occurrence order.
        a, b = NetworkMetrics(), NetworkMetrics()
        batches = [
            (np.array([3, 0, 3]), np.array([1, 2, 1])),
            (np.array([5, 0, 4, 5]), np.array([0, 2, 4, 0])),
        ]
        for src, dst in batches:
            _record_frames(a, 1, src, dst, 8)
            b.record_batch_arrays(1, src.size, 8 * src.size, src, dst)
        assert list(a.per_pair_messages.items()) == list(
            b.per_pair_messages.items()
        ) == [((3, 1), 2), ((0, 2), 2), ((5, 0), 2), ((4, 4), 1)]

    @pytest.mark.parametrize("pending_limit", [1, 2, 65536])
    def test_buffered_records_keep_order_across_batches(
        self, monkeypatch, pending_limit
    ):
        # Per-frame record() buffers its pair keys; they must enter the
        # table before any later batch's pairs, whenever they flush.
        import repro.net.metrics as net_metrics

        monkeypatch.setattr(net_metrics, "_PENDING_LIMIT", pending_limit)
        metrics = NetworkMetrics()
        _record_frames(metrics, 1, [4, 2, 4], [0, 1, 0], 8)
        metrics.record_batch_arrays(1, 3, 24, np.array([2, 3, 4]), np.array([1, 3, 0]))
        _record_frames(metrics, 2, [5, 3], [5, 3], 8)
        assert list(metrics.per_pair_messages.items()) == [
            ((4, 0), 3), ((2, 1), 2), ((3, 3), 2), ((5, 5), 1)
        ]
        assert metrics.per_round_messages == {1: 6, 2: 2}

    def test_empty_batch_is_noop_for_pairs(self):
        metrics = NetworkMetrics()
        metrics.record_batch_arrays(
            round_index=1, messages=0, bytes_total=0,
            src=np.array([], dtype=int), dst=np.array([], dtype=int),
        )
        assert metrics.per_pair_messages == {}


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
    def test_cluster_has_one_view(self):
        cluster = _cluster()
        assert cluster.batched() is cluster.batched()

    def test_deliver_refuses_when_ineligible(self):
        cluster = _cluster()
        batched = cluster.batched()
        cluster.set_extra_delay(0, 1.0)
        with pytest.raises(SimulationError):
            batched.deliver(np.array([0]), np.array([1]), 1, np.array([0.0]))

    def test_deliver_accounts_metrics_and_receipts(self):
        cluster = _cluster(default_link=Link(ConstantLatency(0.01)))
        batched = cluster.batched()
        batched.begin_round(4)
        arrivals = batched.deliver(
            np.array([0, 1, 2]), np.array([1, 2, 0]), 1, np.zeros(3)
        )
        assert np.array_equal(arrivals, np.full(3, 0.01))
        assert cluster.metrics.messages_total == 3
        assert cluster.metrics.bytes_total == 3 * 8  # one scalar field each
        assert cluster.metrics.per_round_messages[4] == 3
        assert cluster.metrics.per_pair_messages[(0, 1)] == 1
        for node_id in range(3):
            assert cluster.node(node_id).received_count == 1

    @pytest.mark.parametrize("lazy", [False, True], ids=["obj", "lazy"])
    def test_failed_receivers_are_counted_but_not_bumped(self, lazy):
        """Frames to a failed node cross the wire and draw a delay, and
        the node discards them uncounted — as ``Node.deliver`` does."""
        link = Link(ConstantLatency(0.01))
        if lazy:
            table = LazyNodeTable(
                3, Node, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=bool)
            )
            cluster = Cluster(table, default_link=link)
            table.failed[2] = True
        else:
            cluster = _cluster(default_link=link)
            cluster.node(2).failed = True
        arrivals = cluster.batched().deliver(
            np.array([0, 1, 0]), np.array([2, 2, 1]), 1, 0.0
        )
        assert arrivals.size == 3
        assert cluster.metrics.messages_total == 3
        assert cluster.metrics.per_pair_messages[(1, 2)] == 1
        received = (
            cluster.lazy_nodes.received_count.tolist()
            if lazy
            else [cluster.node(i).received_count for i in range(3)]
        )
        assert received == [0, 1, 0]

    def test_finish_round_advances_clock_and_credits(self):
        """Both delivery forms join the round's tally; finish_round
        moves the clock to its last arrival and credits its frames plus
        the extra events."""
        cluster = _cluster(default_link=Link(ConstantLatency(0.5)))
        batched = cluster.batched()
        events_before = cluster.engine.processed_events
        batched.begin_round(1)
        batched.deliver(np.array([0, 1]), np.array([1, 2]), 1, np.array([1.0, 2.0]))
        batched.plan(np.array([2]), np.array([0]), 1).deliver(0.25)
        assert (batched.last_arrival, batched.frames) == (2.5, 3)
        batched.finish_round(extra_events=6)
        assert cluster.engine.now == 2.5
        assert cluster.engine.processed_events == events_before + 9

    def test_begin_round_discards_a_raised_rounds_tally(self):
        """A round that raised never calls finish_round; the next
        begin_round restarts the tally at the current clock."""
        cluster = _cluster(default_link=Link(ConstantLatency(0.5)))
        batched = cluster.batched()
        batched.begin_round(1)
        batched.deliver(np.array([0, 1]), np.array([1, 2]), 1, 3.0)
        assert (batched.last_arrival, batched.frames) == (3.5, 2)
        batched.begin_round(2)  # round 1 raised before finish_round
        assert batched.round_index == 2
        assert (batched.last_arrival, batched.frames) == (0.0, 0)
        batched.finish_round()
        assert cluster.engine.now == 0.0
        assert cluster.engine.processed_events == 0


def _phase_cluster(n=6, seed=7):
    nodes = [Node(i) for i in range(n)]
    rng = np.random.default_rng(seed)
    return Cluster(nodes, default_link=Link(UniformLatency(0.001, 0.01, rng)))


#: 7 frames, repeated pairs, out-of-order destinations — enough
#: structure to distinguish per-frame from per-pair accounting.
SRC = np.array([1, 2, 3, 1, 4, 2, 5])
DST = np.array([0, 0, 1, 0, 1, 0, 2])
FIELDS = 2


def _eager(src, dst, send_times, round_index=3, fields=FIELDS):
    cluster = _phase_cluster()
    batched = cluster.batched()
    batched.begin_round(round_index)
    arrivals = batched.deliver(src, dst, fields, send_times)
    return cluster, arrivals


class TestChunkedDelivery:
    """Delivery above ``chunk_frames`` streams in index slices,
    bit-identical to one-shot delivery."""

    def _deliver(self, chunk_frames, send_times):
        cluster = _phase_cluster()
        batched = cluster.batched()
        if chunk_frames is not None:
            batched.chunk_frames = chunk_frames
        batched.begin_round(3)
        arrivals = batched.deliver(SRC, DST, FIELDS, send_times)
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
        view, ref_view = cluster.batched(), ref_cluster.batched()
        assert (view.last_arrival, view.frames) == (
            ref_view.last_arrival, ref_view.frames
        )


class TestDeliveryPlan:
    """Plan delivery matches one-shot delivery of the same layout bit
    for bit."""

    def _planned(self, src, dst, send_times, drop=None, round_index=3):
        cluster = _phase_cluster()
        batched = cluster.batched()
        plan = batched.plan(src, dst, FIELDS)
        batched.begin_round(round_index)
        arrivals = plan.deliver(send_times, drop=drop)
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
        send_times = np.linspace(0.0, 0.6, SRC.size)
        eager_cluster, eager_arrivals = _eager(SRC, DST, send_times)
        plan_cluster, plan_arrivals, _ = self._planned(SRC, DST, send_times)
        assert np.array_equal(plan_arrivals, eager_arrivals)
        self._assert_parity(eager_cluster, plan_cluster)
        # Same RNG stream consumption: next draw agrees
        assert (
            plan_cluster._default_link.delay_batch(1, 8)[0]
            == eager_cluster._default_link.delay_batch(1, 8)[0]
        )

    def test_repeat_rounds_accumulate_like_eager(self):
        eager_cluster, _ = _eager(SRC, DST, 0.0)
        eager_cluster.batched().begin_round(4)
        eager_cluster.batched().deliver(SRC, DST, FIELDS, 1.0)
        plan_cluster, _, plan = self._planned(SRC, DST, 0.0)
        plan_cluster.batched().begin_round(4)
        plan.deliver(1.0)
        self._assert_parity(eager_cluster, plan_cluster)

    def test_drop_matches_eager_masked_delivery(self):
        # Member->head layout: every frame is a distinct (src, dst) pair,
        # the precondition for drop=.
        src = np.array([1, 2, 3, 4, 5])
        dst = np.array([0, 0, 0, 3, 3])
        send = np.linspace(0.0, 1.0, 5)
        drop = 2
        eager_cluster, eager_arrivals = _eager(
            np.delete(src, drop), np.delete(dst, drop), np.delete(send, drop),
            round_index=6,
        )
        plan_cluster, plan_arrivals, _ = self._planned(
            src, dst, np.delete(send, drop), drop=drop, round_index=6
        )
        assert np.array_equal(plan_arrivals, eager_arrivals)
        self._assert_parity(eager_cluster, plan_cluster)

    def test_metrics_reset_revalidates_pair_handles(self):
        plan_cluster, _, plan = self._planned(SRC, DST, 0.0)
        plan_cluster.metrics.reset()
        plan.deliver(0.0)
        eager_cluster, _ = _eager(SRC, DST, 0.0)
        assert list(plan_cluster.metrics.per_pair_messages.items()) == list(
            eager_cluster.metrics.per_pair_messages.items()
        )

    def test_unread_deliveries_build_no_pair_table(self):
        """Deliveries count totals at once and pairs only when read."""
        cluster = _phase_cluster()
        batched = cluster.batched()
        plan = batched.plan(np.array([1]), np.array([0]), 1)
        plan.deliver(0.0)
        batched.deliver(SRC, DST, FIELDS, 0.0)
        metrics = cluster.metrics
        assert metrics.messages_total == 1 + SRC.size
        assert metrics._pairs == 0 and metrics._pair_keys.size == 0
        assert metrics.per_pair_messages == {
            (1, 0): 3, (2, 0): 2, (3, 1): 1, (4, 1): 1, (5, 2): 1
        }

    def test_plan_pairs_are_counted_by_the_first_read_only(self):
        cluster = _phase_cluster()
        plan = cluster.batched().plan(SRC, DST, 2)
        metrics = cluster.metrics
        plan.deliver(0.0)
        plan.deliver(0.0)
        # No pair exists before the first read ...
        assert metrics._pairs == 0
        assert metrics.per_pair_messages == {
            (1, 0): 4, (2, 0): 4, (3, 1): 2, (4, 1): 2, (5, 2): 2
        }
        # ... and later deliveries fold onto the table on the next read.
        plan.deliver(0.0)
        assert metrics._pairs == 5
        assert metrics.per_pair_messages[(1, 0)] == 6

    def test_unread_live_plans_never_fold_however_many(self):
        """The log holds any number of live plans without folding: an
        epoch's plan count does not bound it."""
        cluster = _phase_cluster()
        batched = cluster.batched()
        plans = [
            batched.plan(np.array([k % 5 + 1]), np.array([0]), 1) for k in range(40)
        ]
        for _ in range(5):
            for plan in plans:
                plan.deliver(0.0)
        metrics = cluster.metrics
        assert metrics._pairs == 0 and len(metrics._log) <= len(plans)
        assert metrics.per_pair_messages == {(k, 0): 40 for k in range(1, 6)}

    def test_building_a_plan_lets_the_evicted_ones_go(self):
        """Building a plan folds the log, so an evicted plan it still
        references is freed, and its counts are kept."""
        cluster = _phase_cluster()
        batched = cluster.batched()
        plan = batched.plan(SRC, DST, 2)
        plan.deliver(0.0)
        evicted = weakref.ref(plan)
        del plan
        assert evicted() is not None  # the unread log still holds it
        batched.plan(np.array([1]), np.array([0]), 1).deliver(0.0)
        assert evicted() is None
        assert cluster.metrics.per_pair_messages == {
            (1, 0): 3, (2, 0): 2, (3, 1): 1, (4, 1): 1, (5, 2): 1
        }

    def test_shape_mismatch_raises(self):
        cluster = _phase_cluster()
        with pytest.raises(ValueError):
            cluster.batched().plan(np.array([1, 2]), np.array([0]), 1)

    def test_ineligible_cluster_refuses(self):
        cluster = _phase_cluster()
        plan = cluster.batched().plan(np.array([1]), np.array([0]), 1)
        cluster.set_extra_delay(0, 1.0)
        with pytest.raises(SimulationError):
            plan.deliver(0.0)
