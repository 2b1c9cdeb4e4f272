"""The cluster: nodes + links + event engine + metrics.

A :class:`Cluster` wires :class:`~repro.net.node.Node` objects into a
full mesh (per-pair links can be overridden for heterogeneous topologies)
and routes messages through the :class:`~repro.net.events.EventEngine`
with the link's sampled delay. All message and byte counts flow into
:class:`~repro.net.metrics.NetworkMetrics`, which the §IV-C complexity
experiment reads.

The transport contract
----------------------
``Cluster.send`` gives the protocols datagram-with-retries semantics:

- **Reliable over lossy links.** A frame dropped by the link's loss
  model is retransmitted after ``retransmit_timeout``; each attempt pays
  the link delay afresh and is counted in the metrics. When
  ``max_retransmits`` attempts are all lost the send fails loudly with
  :class:`~repro.exceptions.TransportError` (carrying src/dst/tag and
  the attempt count) — the protocols assume rounds eventually complete,
  so a permanently-dead link is an error, not a silent drop.
- **Not order-preserving.** A retransmitted frame can be overtaken by a
  later send; round-synchronous protocols tolerate this.
- **Partitions blackhole silently.** When a network partition (see
  :meth:`set_partition`) separates ``src`` from ``dst``, the frame
  vanishes *without* consuming the retransmit budget and without an
  error: a partition outlives any retry budget, and the failure
  detectors — not the transport — are responsible for noticing silence.
  Blackholed frames are tallied in ``metrics.messages_blackholed``.
- **Co-located nodes bypass the network entirely** (zero delay, no
  loss, no partition, not counted): they model processes sharing one
  machine.

Chaos hooks (:mod:`repro.chaos` drives these): :meth:`set_partition` /
:meth:`clear_partition` split the cluster into isolated groups,
:meth:`set_extra_delay` slows one node's sends and receives (a
transient straggler), and :meth:`set_frame_loss` overrides every link's
loss model with a cluster-wide drop probability (a loss burst).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ProtocolError, SimulationError, TransportError
from repro.net.events import EventEngine
from repro.net.links import Link
from repro.net.message import Message, scalar_payload_size
from repro.net.metrics import NetworkMetrics
from repro.net.node import LazyNodeTable, Node

__all__ = ["Cluster"]


class Cluster:
    """A set of nodes communicating over simulated links."""

    def __init__(
        self,
        nodes: "Sequence[Node] | LazyNodeTable",
        default_link: Link | None = None,
        retransmit_timeout: float = 0.05,
        max_retransmits: int = 30,
    ) -> None:
        """``retransmit_timeout``/``max_retransmits`` configure the
        transport layer used over lossy links: a dropped frame is resent
        after the timeout, up to the retry budget (then the send fails
        loudly — protocols assume reliable rounds).

        ``nodes`` is normally the full node sequence; a
        :class:`~repro.net.node.LazyNodeTable` may stand in for it, in
        which case node objects are hydrated (and attached) on first
        :meth:`node` access — the struct-of-arrays peer store uses this
        so an N=10⁶ cluster never materializes a million objects."""
        if len(nodes) == 0:
            raise SimulationError("a cluster needs at least one node")
        if retransmit_timeout <= 0 or max_retransmits < 0:
            raise SimulationError("invalid transport parameters")
        self.retransmit_timeout = float(retransmit_timeout)
        self.max_retransmits = int(max_retransmits)
        self._colocated: set[frozenset[int]] = set()
        #: node id -> partition group (None: no partition in effect).
        self._partition: dict[int, int] | None = None
        #: node id -> extra seconds added to its sends and receives.
        self._extra_delay: dict[int, float] = {}
        #: cluster-wide frame-loss override: (probability, rng) or None.
        self._loss_override: tuple[float, Any] | None = None
        self.engine = EventEngine()
        self.metrics = NetworkMetrics()
        #: Optional :class:`repro.obs.Tracer`; when set, the chaos hooks
        #: below emit one ``fault`` record per state change, stamped with
        #: :attr:`trace_round` (the protocol keeps it current).
        self.tracer = None
        self.trace_round = 0
        #: Hydrated node objects (all of them in eager mode; a cache in
        #: lazy mode).
        self._nodes: dict[int, Node] = {}
        self._lazy: LazyNodeTable | None = None
        self._links: dict[tuple[int, int], Link] = {}
        self._default_link = default_link if default_link is not None else Link()
        self._batched: "BatchedCluster | None" = None
        if isinstance(nodes, LazyNodeTable):
            self._lazy = nodes
        else:
            ids = [node.node_id for node in nodes]
            if len(set(ids)) != len(ids):
                raise SimulationError(f"duplicate node ids: {sorted(ids)}")
            for node in nodes:
                node.attach(self)
                self._nodes[node.node_id] = node

    @property
    def lazy_nodes(self) -> LazyNodeTable | None:
        """The lazy node table, when this cluster was built over one."""
        return self._lazy

    @property
    def node_ids(self) -> "list[int] | range":
        if self._lazy is not None:
            return self._lazy.ids()
        return sorted(self._nodes)

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            if self._lazy is not None:
                node = self._lazy.build(node_id)  # raises on unknown id
                node.attach(self)
                self._nodes[node_id] = node
                return node
            raise ProtocolError(f"unknown node id {node_id}") from None

    def bump_received(self, unique_dst: np.ndarray, counts: np.ndarray) -> None:
        """Credit batched deliveries to many receivers at once.

        A failed receiver discards its frames uncounted, as
        :meth:`Node.deliver` does. In lazy mode this is one array op on
        the shared counter column; in eager mode it applies the same
        bumps node by node, ascending destination."""
        lazy = self._lazy
        if lazy is not None:
            if lazy.failed.any():  # steady rounds skip the O(N) gather
                live = ~lazy.failed[unique_dst]
                unique_dst, counts = unique_dst[live], counts[live]
            lazy.bump(unique_dst, counts)
            return
        node = self.node
        for dst, bump in zip(unique_dst.tolist(), counts.tolist()):
            receiver = node(dst)
            if not receiver.failed:
                receiver.received_count += bump

    def set_link(self, src: int, dst: int, link: Link) -> None:
        """Override the link used for ``src -> dst`` messages."""
        self.node(src), self.node(dst)  # validate endpoints
        self._links[(src, dst)] = link

    def colocate(self, a: int, b: int) -> None:
        """Declare two nodes co-located on one machine.

        Messages between them become in-process calls: delivered with
        zero delay, never dropped, and **not counted** in the network
        metrics — this models the paper's §IV-B1 option of "an elected
        worker acts also as the master".
        """
        self.node(a), self.node(b)  # validate endpoints
        if a == b:
            raise ProtocolError("a node is trivially colocated with itself")
        self._colocated.add(frozenset((a, b)))

    def is_colocated(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._colocated

    @property
    def default_link(self) -> Link:
        """The link every pair without an override uses (the only link a
        batch-eligible cluster sends over)."""
        return self._default_link

    def link_for(self, src: int, dst: int) -> Link:
        return self._links.get((src, dst), self._default_link)

    # -- chaos hooks ------------------------------------------------------
    def _emit_fault(
        self,
        fault: str,
        workers: Sequence[int] = (),
        severity: float = 0.0,
        groups: Sequence[Sequence[int]] = (),
    ) -> None:
        if self.tracer is None:
            return
        from repro.obs.records import FaultRecord

        self.tracer.emit(
            FaultRecord(
                round=int(self.trace_round),
                fault=fault,
                workers=tuple(int(w) for w in workers),
                severity=float(severity),
                groups=tuple(
                    tuple(int(w) for w in group) for group in groups
                ),
            )
        )

    def set_partition(self, groups: Sequence[Iterable[int]]) -> None:
        """Split the cluster into isolated groups (a network partition).

        ``groups`` lists disjoint sets of node ids; any node not listed
        belongs to one shared implicit group (so ``[(2, 3)]`` cuts
        workers 2-3 off from everyone else). Messages between different
        groups are silently blackholed until :meth:`clear_partition`.
        A new partition replaces the previous one.
        """
        mapping: dict[int, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                self.node(node_id)  # validate
                if node_id in mapping:
                    raise SimulationError(
                        f"node {node_id} appears in two partition groups"
                    )
                mapping[node_id] = index
        self._partition = mapping
        if self.tracer is not None:
            by_group: dict[int, list[int]] = {}
            for node_id, index in sorted(mapping.items()):
                by_group.setdefault(index, []).append(node_id)
            self._emit_fault(
                "partition", groups=[by_group[i] for i in sorted(by_group)]
            )

    def clear_partition(self) -> None:
        """Heal the partition: every route works again."""
        self._partition = None
        self._emit_fault("partition_heal")

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def can_communicate(self, a: int, b: int) -> bool:
        """True unless a partition separates ``a`` from ``b``."""
        if self._partition is None:
            return True
        return self._partition.get(a, -1) == self._partition.get(b, -1)

    def set_extra_delay(self, node_id: int, seconds: float) -> None:
        """Add ``seconds`` to every send/receive of ``node_id`` (a
        transient slowdown); ``0`` restores normal speed."""
        self.node(node_id)  # validate
        if seconds < 0:
            raise SimulationError(f"extra delay must be >= 0, got {seconds}")
        if seconds == 0.0:
            self._extra_delay.pop(node_id, None)
            self._emit_fault("delay_clear", workers=[node_id])
        else:
            self._extra_delay[node_id] = float(seconds)
            self._emit_fault("delay", workers=[node_id], severity=seconds)

    def set_frame_loss(
        self, probability: float, rng: "np.random.Generator"
    ) -> None:
        """Override every link's loss model with a cluster-wide drop
        probability (a loss burst); clear with :meth:`clear_frame_loss`."""
        if not 0.0 <= probability < 1.0:
            raise SimulationError(
                f"loss probability must lie in [0, 1), got {probability}"
            )
        self._loss_override = (float(probability), rng)
        self._emit_fault("frame_loss", severity=probability)

    def clear_frame_loss(self) -> None:
        self._loss_override = None
        self._emit_fault("frame_loss_clear")

    @property
    def chaos_active(self) -> bool:
        """True while any chaos hook (partition, extra delay, frame-loss
        override) is in effect."""
        return (
            self._partition is not None
            or bool(self._extra_delay)
            or self._loss_override is not None
        )

    def batch_eligible(self) -> bool:
        """True when phase-batched delivery is observably identical to
        per-frame delivery: no chaos hooks, no per-pair link overrides,
        no co-located nodes, a lossless default link (no retransmits),
        and an empty event queue (nothing in flight to interleave with).
        """
        return (
            not self.chaos_active
            and not self._links
            and not self._colocated
            and self._default_link.loss_probability == 0.0
            and self.engine.pending == 0
        )

    def batched(self) -> "BatchedCluster":
        """This cluster's one phase-level batched view (the fast path)."""
        if self._batched is None:
            from repro.net.batch import BatchedCluster

            self._batched = BatchedCluster(self)
        return self._batched

    def _frame_dropped(self, link: Link) -> bool:
        """Sample one transmission attempt under the active loss regime."""
        if self._loss_override is not None:
            probability, rng = self._loss_override
            return bool(rng.random() < probability)
        return link.drops_frame()

    def send(
        self,
        src: int,
        dst: int,
        tag: str,
        payload: Mapping[str, Any],
        round_index: int = 0,
    ) -> None:
        """Route one message; delivery is scheduled on the event engine."""
        if dst == src:
            raise ProtocolError(f"node {src} attempted to message itself")
        receiver = self.node(dst)
        message = Message(
            src=src,
            dst=dst,
            tag=tag,
            payload=dict(payload),
            size_bytes=scalar_payload_size(payload),
            send_time=self.engine.now,
            round_index=round_index,
        )
        if self.is_colocated(src, dst):
            # In-process delivery: immediate, lossless, off the wire.
            self.engine.schedule(0.0, lambda: receiver.deliver(message))
            return
        self.metrics.record(message)
        if not self.can_communicate(src, dst):
            # A partition blackholes the frame: no delivery, no error,
            # no retransmissions — silence is the failure detectors' job.
            self.metrics.record_blackholed()
            return
        link = self.link_for(src, dst)
        # Transport layer: a dropped frame is retransmitted after the
        # timeout; each attempt pays the link delay afresh. All attempts
        # are counted in the metrics (they really cross the wire).
        total_delay = 0.0
        attempt = 0
        while self._frame_dropped(link):
            attempt += 1
            if attempt > self.max_retransmits:
                raise TransportError(src, dst, tag, self.max_retransmits)
            self.metrics.record(message)  # the retransmitted frame
            total_delay += self.retransmit_timeout  # sender's ack timer
        total_delay += link.delay(message.size_bytes)
        total_delay += self._extra_delay.get(src, 0.0)
        total_delay += self._extra_delay.get(dst, 0.0)
        self.engine.schedule(total_delay, lambda: receiver.deliver(message))

    def run(self, max_events: int | None = None) -> int:
        """Drain all in-flight messages and callbacks."""
        return self.engine.run(max_events=max_events)
