"""Phase-batched message delivery: the protocol layer's fast path.

The event engine delivers one :class:`~repro.net.message.Message` at a
time through a heapq and per-frame Python callbacks. For the protocols'
*healthy* rounds that generality is wasted: every round is a fixed
sequence of broadcast/gather phases whose frames are all sent over the
same default link. :class:`BatchedCluster` delivers such a phase in one
step — all link delays sampled as a single numpy draw, frames carried as
struct-of-arrays (:class:`~repro.net.message.FrameBatch`), metrics and
receive counts bumped in bulk — and lets the caller advance virtual time
to the phase maximum afterwards.

Two refinements ride on the same contract:

- **Streaming chunks.** ``deliver(..., chunk_frames=K)`` processes the
  batch as zero-copy slices of at most ``K`` frames, so an N=100,000
  phase never holds more than one chunk of per-frame intermediates.
  Chunked delivery is bit-identical to one-shot delivery: per-chunk
  delay draws are stream-identical to a single draw (``sample_batch``
  splits are stable — pinned by the mixed-interleaving test), chunk
  accounting sums to the phase totals, and per-pair counters are still
  created in frame order.
- **Delivery plans.** A :class:`DeliveryPlan` precomputes everything a
  repeating ``(src, dst)`` frame layout implies — counts, bytes, the
  per-receiver bump list, the per-pair counter handles — so the
  FD tree round pays O(unique pairs) cached bumps per phase
  instead of an ``np.unique`` pass, with identical observable
  accounting.

Bit-identity contract (same discipline as ``docs/performance.md``):

- **Draw order.** A phase's frames must be listed in event-engine send
  order; ``LatencyModel.sample_batch`` is bit-identical to sequential
  scalar draws *and* leaves the generator in the same stream position,
  so batched rounds and event-engine rounds can be mixed within one run
  (the auto-fallback relies on this).
- **Accounting.** Message/byte totals, per-round and per-pair counts,
  ``received_count`` and ``processed_events`` advance exactly as the
  per-frame path would advance them — including frames addressed to a
  failed node, which are counted and drawn but never bump its
  ``received_count`` (a dead process behind a routable address).
- **Eligibility.** :meth:`Cluster.batch_eligible` guards the fast path:
  any chaos hook (partition, extra delay, frame loss), per-pair link
  override, co-location, lossy default link, or in-flight event disables
  batching; the protocols then fall back to the event engine, whose
  semantics are untouched.
"""

from __future__ import annotations

import os

import numpy as np

from repro.exceptions import SimulationError
from repro.net.cluster import Cluster
from repro.net.message import FrameBatch, SCALAR_BYTES

__all__ = [
    "BatchedCluster",
    "DeliveryPlan",
    "group_by_destination",
    "default_chunk_frames",
    "DEFAULT_CHUNK_FRAMES",
]

#: Default streaming-chunk size for phase delivery. Small enough that a
#: chunk's per-frame intermediates stay cache-resident, large enough
#: that phases below N~65k keep their historical one-shot path.
DEFAULT_CHUNK_FRAMES = 65536

#: Env override for :func:`default_chunk_frames` (``0`` disables
#: chunking entirely).
CHUNK_ENV = "REPRO_BATCH_CHUNK"


def default_chunk_frames() -> int | None:
    """The streaming chunk size: ``$REPRO_BATCH_CHUNK`` or the default
    (``None`` — unchunked — when the env var is ``0`` or negative)."""
    raw = os.environ.get(CHUNK_ENV)
    if raw is None:
        return DEFAULT_CHUNK_FRAMES
    value = int(raw)
    return value if value > 0 else None


def group_by_destination(
    dst: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group per-frame ``values`` by destination in one argsort pass.

    Returns ``(unique_dst, groups)`` with ``unique_dst`` ascending and
    ``groups[i]`` holding the values of the frames addressed to
    ``unique_dst[i]``, in original frame order (the argsort is stable).
    O(E log E) array ops, no per-frame Python — the delivery loop and the
    tree fast path's per-head gathers both ride on this.
    """
    dst = np.asarray(dst)
    values = np.asarray(values)
    order = np.argsort(dst, kind="stable")
    sorted_dst = dst[order]
    boundaries = np.flatnonzero(sorted_dst[1:] != sorted_dst[:-1]) + 1
    groups = np.split(values[order], boundaries)
    if sorted_dst.size == 0:
        return sorted_dst, []
    unique = sorted_dst[np.concatenate(([0], boundaries))]
    return unique, groups


class BatchedCluster:
    """Phase-level batched delivery over a cluster's default link."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def now(self) -> float:
        return self._cluster.engine.now

    def eligible(self) -> bool:
        """True when batched delivery is observably identical to the
        event engine (see :meth:`Cluster.batch_eligible`)."""
        return self._cluster.batch_eligible()

    def deliver(
        self,
        batch: FrameBatch,
        send_times: float | np.ndarray,
        chunk_frames: int | None = None,
    ) -> np.ndarray:
        """Deliver one phase; returns each frame's arrival time.

        ``send_times`` is a scalar (all frames sent together) or a
        per-frame array. The link delays for the whole phase are sampled
        in frame order — the caller must list frames in event-engine
        send order so the generator consumes the stream identically to
        per-frame sends. Metrics and the receivers' ``received_count``
        are updated in bulk; the caller advances the clock via
        :meth:`finish_round` once the round's last phase is in.

        ``chunk_frames`` streams the batch as zero-copy slices of at
        most that many frames (see the module docstring; ``None`` keeps
        the historical one-shot delivery). Chunking changes peak memory
        only — arrivals, metrics, and RNG stream position are
        bit-identical.
        """
        if not self.eligible():
            raise SimulationError(
                "batched delivery requested while the cluster is not "
                "batch-eligible (chaos hooks active or frames in flight)"
            )
        if chunk_frames is None or batch.count <= chunk_frames:
            return self._deliver_frames(batch, send_times)
        scalar_send = np.ndim(send_times) == 0
        if not scalar_send:
            send_times = np.asarray(send_times, dtype=float)
        arrivals = np.empty(batch.count, dtype=float)
        for lo, sub in batch.chunks(chunk_frames):
            hi = lo + sub.count
            arrivals[lo:hi] = self._deliver_frames(
                sub, send_times if scalar_send else send_times[lo:hi]
            )
        return arrivals

    def _deliver_frames(
        self, batch: FrameBatch, send_times: float | np.ndarray
    ) -> np.ndarray:
        """One-shot delivery of ``batch`` (the eligibility check already
        ran)."""
        delays = self._cluster._default_link.delay_batch(
            batch.count, batch.size_bytes
        )
        arrivals = np.asarray(send_times, dtype=float) + delays
        self._cluster.metrics.record_batch_arrays(
            batch.round_index, batch.count, batch.total_bytes, batch.src, batch.dst
        )
        # One stable argsort/split pass replaces the historical
        # per-destination bincount loop — O(E) array ops plus one Python
        # attribute bump per *receiver* (bit-identical counts, pinned by
        # tests/unit/test_net_batch.py). Over a lazy node table the
        # per-receiver bumps collapse to a single scatter-add on the
        # shared counter column. A failed receiver discards its frames
        # uncounted, as :meth:`Node.deliver` does: the frames still
        # crossed the wire (metrics above) and drew a delay.
        lazy = self._cluster.lazy_nodes
        if lazy is not None:
            unique_dst, counts = np.unique(batch.dst, return_counts=True)
            live = ~lazy.failed[unique_dst]
            lazy.bump(unique_dst[live], counts[live])
            return arrivals
        unique_dst, groups = group_by_destination(batch.dst, batch.dst)
        node = self._cluster.node
        for dst, group in zip(unique_dst.tolist(), groups):
            receiver = node(dst)
            if not receiver.failed:
                receiver.received_count += group.size
        return arrivals

    def plan(
        self, src: np.ndarray, dst: np.ndarray, payload_fields: int
    ) -> "DeliveryPlan":
        """Precompute a :class:`DeliveryPlan` for a repeating phase
        layout (same ``src``/``dst`` arrays every round)."""
        return DeliveryPlan(self, src, dst, payload_fields)

    def finish_round(self, now: float, events: int) -> None:
        """Advance virtual time to the round's last arrival and credit
        the delivered frames as processed events, so batched rounds and
        event-engine rounds report identical clock/event statistics."""
        engine = self._cluster.engine
        engine.advance_to(now)
        engine.credit_events(events)


class DeliveryPlan:
    """Cached delivery accounting for a phase whose frame layout repeats.

    The FD tree round delivers the same ``(src, dst)`` arrays every
    round (the overlay is fixed until membership changes), so everything
    :meth:`BatchedCluster.deliver` derives from them per call — frame
    count, wire bytes, the unique-pair histogram in first-occurrence
    order, the per-receiver bump list — is computed once here. A plan
    delivery then costs one delay draw plus O(unique pairs + receivers)
    cached counter bumps, with accounting **identical** to
    ``deliver`` on an equivalent :class:`FrameBatch`: same totals, same
    per-pair values, same counter creation order, same ``received_count``
    advances, same RNG stream consumption.

    Building a plan is array-native: two ``np.unique`` passes (receiver
    counts; unique pairs in first-occurrence order, kept as int64
    ``src``/``dst``/``count`` columns) and one ``argsort``. The per-pair
    Python list that ``_bump_pairs`` walks is built on the first pair
    bump, so with pair accounting off (``REPRO_PAIR_METRICS=0``) it never
    exists: at N=10⁶ the 18 plans of a tree round then build
    in ~0.23 s (``perfbench`` ``fd_tree_1m``, traced).

    Payload *values* are never materialized: batched delivery is
    payload-oblivious (only the field count enters the wire size), so a
    plan carries ``payload_fields`` instead of arrays — this is what
    "streaming FrameBatch construction" means for the tree round,
    where ~3N frames per round exist only as this plan's columns.

    ``deliver(..., drop=k)`` delivers the layout minus frame ``k`` (the
    straggler's suppressed decision in phase E): ``count - 1`` delay
    draws against the caller's masked send times, the dropped frame's
    pair and receiver bumps withheld. The dropped frame's pair must be
    unique within the batch (true for member->head layouts, where every
    member is a distinct pair) so counter creation order still matches
    the eager masked path.

    Plans hold references to the cluster's node objects and metric
    counters; they die with the protocol's overlay cache on any
    membership change, and re-resolve their counter handles when the
    metrics object is reset (:attr:`NetworkMetrics.pair_epoch`). Unlike
    :meth:`BatchedCluster.deliver` a plan bumps every receiver it
    lists without consulting ``failed``: plans are built over live
    participants only.
    """

    def __init__(
        self,
        batched: BatchedCluster,
        src: np.ndarray,
        dst: np.ndarray,
        payload_fields: int,
    ) -> None:
        self._batched = batched
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError(
                f"src/dst shape mismatch: {self.src.shape} vs {self.dst.shape}"
            )
        self.count = int(self.src.size)
        self.size_bytes = SCALAR_BYTES * int(payload_fields)
        cluster = batched.cluster
        # Per-receiver bumps, ascending destination (the order the
        # one-shot path applies them; addition is commutative but keep
        # it anyway for strict attribute-write parity). Over a lazy node
        # table the plan keeps (dst, count) arrays instead of resolved
        # node objects — resolving would hydrate every receiver, which
        # at N=10⁶ is exactly what lazy mode exists to avoid.
        unique_dst, recv_counts = np.unique(self.dst, return_counts=True)
        if cluster.lazy_nodes is not None:
            self._recv = None
            self._recv_dst = unique_dst
            self._recv_counts = recv_counts
        else:
            node = cluster.node
            self._recv = [
                (node(d), c)
                for d, c in zip(unique_dst.tolist(), recv_counts.tolist())
            ]
            self._recv_dst = self._recv_counts = None
        # Unique (src, dst) pairs in first-occurrence frame order — the
        # counter creation order record_batch_arrays uses — as three
        # int64 columns, plus each frame's entry index (for drop=).
        keys = (self.src << 32) | self.dst
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        self._frame_entry = rank[inverse]
        self._pair_src = self.src[first[order]]
        self._pair_dst = self.dst[first[order]]
        self._pair_count = counts[order]
        # The per-pair Python list (and its counter handles) is built on
        # the first pair bump only, so it never exists when pair
        # accounting is off.
        self._pairs: list | None = None
        self._pair_counters: list = []
        self._pair_epoch = -1

    def deliver(
        self,
        round_index: int,
        send_times: float | np.ndarray,
        drop: int | None = None,
    ) -> np.ndarray:
        """Deliver the planned phase; returns per-frame arrival times.

        With ``drop=k``, ``send_times`` must already exclude frame ``k``
        (length ``count - 1`` or scalar) and the returned arrivals are
        for the remaining frames in order.
        """
        batched = self._batched
        if not batched.eligible():
            raise SimulationError(
                "batched delivery requested while the cluster is not "
                "batch-eligible (chaos hooks active or frames in flight)"
            )
        cluster = batched.cluster
        count = self.count if drop is None else self.count - 1
        delays = cluster._default_link.delay_batch(count, self.size_bytes)
        arrivals = np.asarray(send_times, dtype=float) + delays
        metrics = cluster.metrics
        metrics.record_totals(round_index, count, count * self.size_bytes)
        if metrics.pair_accounting and count:
            self._bump_pairs(metrics, drop)
        if self._recv is None:
            cluster.lazy_nodes.bump(self._recv_dst, self._recv_counts)
            if drop is not None:
                cluster.lazy_nodes.received_count[int(self.dst[drop])] -= 1
        else:
            for node, bump in self._recv:
                node.received_count += bump
            if drop is not None:
                cluster.node(int(self.dst[drop])).received_count -= 1
        return arrivals

    def _bump_pairs(self, metrics, drop: int | None) -> None:
        if self._pairs is None:
            self._pairs = list(
                zip(
                    zip(self._pair_src.tolist(), self._pair_dst.tolist()),
                    self._pair_count.tolist(),
                )
            )
        if self._pair_epoch != metrics.pair_epoch:
            # Metrics were reset: stale counter objects; re-resolve
            # lazily (creation order = first bump order, like the eager
            # path rebuilding its registry).
            self._pair_counters = [None] * len(self._pairs)
            self._pair_epoch = metrics.pair_epoch
        drop_entry = -1 if drop is None else int(self._frame_entry[drop])
        counters = self._pair_counters
        for entry, (pair, bump) in enumerate(self._pairs):
            if entry == drop_entry:
                bump -= 1
                if bump == 0:
                    continue  # never create a handle the eager path wouldn't
            counter = counters[entry]
            if counter is None:
                counter = counters[entry] = metrics._pair_handle(pair)
            counter.value += bump
