"""Phase-batched message delivery: the protocol layer's fast path.

The event engine delivers one :class:`~repro.net.message.Message` at a
time through a heapq and per-frame Python callbacks. For the protocols'
*healthy* rounds that generality is wasted: every round is a fixed
sequence of broadcast/gather phases whose frames are all sent over the
same default link. :class:`BatchedCluster` delivers such a phase in one
step — all link delays sampled as a single numpy draw, frames given as
bare ``src``/``dst`` id arrays plus a payload field count (delivery never
reads payload values; only their number enters the wire size), metrics
and receive counts bumped in bulk. The cluster's one view keeps the
round's tally (last arrival, frames delivered), and
:meth:`BatchedCluster.finish_round` advances virtual time and credits
events from it once the round's last phase is in.

Two refinements ride on the same contract:

- **Streaming chunks.** A phase above ``chunk_frames`` frames is
  processed as index slices of ``src``/``dst``/``send_times`` of at most
  that many frames, so an N=100,000 phase never holds more than one
  chunk of per-frame intermediates. Chunked delivery is bit-identical
  to one-shot delivery: per-chunk delay draws are stream-identical to a
  single draw (``sample_batch`` splits are stable — pinned by the
  mixed-interleaving test), chunk accounting sums to the phase totals,
  and pairs still enter the metrics' pair table in frame order.
- **Delivery plans.** A :class:`DeliveryPlan` precomputes everything a
  repeating ``(src, dst)`` frame layout implies — counts, bytes, the
  per-receiver bump list — so the FD tree round and the steady flat
  round log one plan reference per phase in the metrics instead of the
  phase's pair keys, with identical observable accounting.

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

import numpy as np

from repro.exceptions import SimulationError
from repro.net.cluster import Cluster
from repro.net.message import SCALAR_BYTES

__all__ = [
    "BatchedCluster",
    "DeliveryPlan",
    "DEFAULT_CHUNK_FRAMES",
]

#: Default streaming-chunk size for phase delivery. Small enough that a
#: chunk's per-frame intermediates stay cache-resident, large enough
#: that phases below N~65k keep their historical one-shot path.
DEFAULT_CHUNK_FRAMES = 65536


class BatchedCluster:
    """Phase-level batched delivery over a cluster's default link.

    A cluster has one view (:meth:`Cluster.batched`). Between
    :meth:`begin_round` and :meth:`finish_round` it keeps the round's
    index and its tally — the last arrival and the number of frames
    delivered — so a round runner only lists each phase's layout and
    send times.
    """

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        #: Most frames :meth:`deliver` processes in one slice.
        self.chunk_frames = DEFAULT_CHUNK_FRAMES
        self.begin_round(0)

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def now(self) -> float:
        return self._cluster.engine.now

    def _require_eligible(self) -> None:
        """Refuse delivery unless it is observably identical to the
        event engine (see :meth:`Cluster.batch_eligible`)."""
        if not self._cluster.batch_eligible():
            raise SimulationError(
                "batched delivery requested while the cluster is not "
                "batch-eligible (chaos hooks active or frames in flight)"
            )

    def begin_round(self, round_index: int) -> None:
        """Start a round: later deliveries are accounted to
        ``round_index``, and the tally restarts at the current clock
        (discarding whatever a raised round left behind)."""
        self.round_index = round_index
        #: The round's last arrival so far (the clock when it began).
        self.last_arrival = self._cluster.engine.now
        #: Frames delivered since :meth:`begin_round`.
        self.frames = 0

    def _tally(self, arrivals: np.ndarray) -> np.ndarray:
        if arrivals.size:
            self.last_arrival = max(self.last_arrival, float(arrivals.max()))
            self.frames += arrivals.size
        return arrivals

    def deliver(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        fields: int,
        send_times: float | np.ndarray,
    ) -> np.ndarray:
        """Deliver one phase — frame ``k`` from ``src[k]`` to ``dst[k]``,
        ``fields`` scalars each — and return each frame's arrival time.

        ``send_times`` is a scalar (all frames sent together) or a
        per-frame array. The link delays for the whole phase are sampled
        in frame order — the caller must list frames in event-engine
        send order so the generator consumes the stream identically to
        per-frame sends. Metrics and the receivers' ``received_count``
        are updated in bulk; the arrivals join the round's tally, which
        :meth:`finish_round` turns into clock and event statistics.

        A phase above :attr:`chunk_frames` streams as index slices of
        at most that many frames (see the module docstring). Chunking
        changes peak memory only — arrivals, metrics, and RNG stream
        position are bit-identical.
        """
        self._require_eligible()
        size_bytes = SCALAR_BYTES * int(fields)
        send_times = np.asarray(send_times, dtype=float)
        count, chunk = len(src), self.chunk_frames
        if count <= chunk:
            return self._tally(
                self._deliver_frames(src, dst, size_bytes, send_times)
            )
        arrivals = np.empty(count, dtype=float)
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            arrivals[lo:hi] = self._deliver_frames(
                src[lo:hi], dst[lo:hi], size_bytes,
                send_times if send_times.ndim == 0 else send_times[lo:hi],
            )
        return self._tally(arrivals)

    def _deliver_frames(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        size_bytes: int,
        send_times: np.ndarray,
    ) -> np.ndarray:
        """One-shot delivery of frames ``src -> dst`` (the eligibility
        check already ran)."""
        cluster = self._cluster
        count = len(src)
        arrivals = send_times + cluster._default_link.delay_batch(
            count, size_bytes
        )
        cluster.metrics.record_batch_arrays(
            self.round_index, count, count * size_bytes, src, dst
        )
        # A failed receiver discards its frames uncounted (see
        # :meth:`Cluster.bump_received`): the frames still crossed the
        # wire (metrics above) and drew a delay.
        unique_dst, counts = np.unique(dst, return_counts=True)
        cluster.bump_received(unique_dst, counts)
        return arrivals

    def plan(
        self, src: np.ndarray, dst: np.ndarray, fields: int
    ) -> "DeliveryPlan":
        """Precompute a :class:`DeliveryPlan` for a repeating phase
        layout (same ``src``/``dst`` arrays every round)."""
        return DeliveryPlan(self, src, dst, fields)

    def finish_round(self, extra_events: int = 0) -> None:
        """Advance virtual time to the round's last arrival and credit
        the delivered frames, plus ``extra_events`` (timeouts that fired
        outside the queue), as processed events, so batched rounds and
        event-engine rounds report identical clock/event statistics."""
        engine = self._cluster.engine
        engine.advance_to(self.last_arrival)
        engine.credit_events(self.frames + extra_events)


class DeliveryPlan:
    """Cached delivery accounting for a phase whose frame layout repeats.

    The FD tree round delivers the same ``(src, dst)`` arrays every
    round (the overlay is fixed until membership changes), so everything
    :meth:`BatchedCluster.deliver` derives from them per call — frame
    count, wire bytes, the per-receiver bump list — is computed once
    here. A plan delivery then costs one delay draw, the receiver bumps
    and a reference to the plan in the metrics' delivery log
    (:meth:`NetworkMetrics.record_plan
    <repro.net.metrics.NetworkMetrics.record_plan>`), with accounting
    **identical** to ``deliver`` on the same layout: same totals, same
    per-pair values, same pair creation order, same ``received_count``
    advances, same RNG stream consumption.

    Building a plan is one ``np.unique`` pass (the receiver counts) and
    a fold of the metrics' delivery log. A plan holds no pair table: the
    metrics fold its frames' pair keys (:meth:`keys`) into theirs when
    the pair counts are read or the next plan is built. Like
    ``deliver``, a plan carries a payload field count, never payload
    values.

    ``deliver(..., drop=k)`` delivers the layout minus frame ``k`` (the
    straggler's suppressed decision in phase E): ``count - 1`` delay
    draws against the caller's masked send times, the dropped frame's
    pair and receiver bumps withheld — the same accounting, pair
    creation order included, as the eager masked path, so no pair is
    created whose every frame was dropped.

    Receiver counts go through
    :meth:`~repro.net.cluster.Cluster.bump_received`, as in
    :meth:`BatchedCluster.deliver`.
    """

    def __init__(
        self,
        batched: BatchedCluster,
        src: np.ndarray,
        dst: np.ndarray,
        fields: int,
    ) -> None:
        self._batched = batched
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError(
                f"src/dst shape mismatch: {self.src.shape} vs {self.dst.shape}"
            )
        self.count = int(self.src.size)
        self.size_bytes = SCALAR_BYTES * int(fields)
        # A new plan means the previous epoch's are being let go: fold
        # the log that still references them.
        batched.cluster.metrics.fold()
        # Per-receiver bumps as (ascending dst, count) arrays — the
        # one-shot path's bump list. Keeping ids rather than node
        # objects hydrates no lazy receiver.
        self._recv_dst, self._recv_counts = np.unique(
            self.dst, return_counts=True
        )

    def keys(self) -> np.ndarray:
        """Each frame's int64 ``src << 32 | dst`` pair key, in frame
        order (what the metrics fold a logged delivery into)."""
        return (self.src << 32) | self.dst

    def deliver(
        self, send_times: float | np.ndarray, drop: int | None = None
    ) -> np.ndarray:
        """Deliver the planned phase in the view's current round; returns
        per-frame arrival times, which join the round's tally.

        With ``drop=k``, ``send_times`` must already exclude frame ``k``
        (length ``count - 1`` or scalar) and the returned arrivals are
        for the remaining frames in order.
        """
        batched = self._batched
        batched._require_eligible()
        cluster = batched.cluster
        count = self.count if drop is None else self.count - 1
        delays = cluster._default_link.delay_batch(count, self.size_bytes)
        arrivals = np.asarray(send_times, dtype=float) + delays
        metrics = cluster.metrics
        metrics.record_totals(
            batched.round_index, count, count * self.size_bytes
        )
        if count:
            metrics.record_plan(self, drop)
        recv_counts = self._recv_counts
        if drop is not None:
            recv_counts = recv_counts.copy()
            recv_counts[np.searchsorted(self._recv_dst, self.dst[drop])] -= 1
        cluster.bump_received(self._recv_dst, recv_counts)
        return batched._tally(arrivals)
