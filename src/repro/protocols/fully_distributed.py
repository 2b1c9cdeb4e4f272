"""Algorithm 2: DOLBIE in the fully-distributed architecture, verbatim.

No master: every worker broadcasts its local cost ``l_{i,t}`` and local
step size ``alpha-bar_{i,t}`` (line 4), after which all workers
*independently* agree on the global cost, the straggler (deterministic
lowest-index tie-breaking, line 7) and the consensus step size
``alpha_t = min_j alpha-bar_{j,t}`` (line 6) — no extra coordination
messages are needed because the inputs are identical everywhere.

Non-stragglers then update risk-aversely (line 8) and send their new
decision *only to the straggler* (line 9) — the limited-information
design of §IV-B2: a non-straggler never learns the other workers'
decisions. The straggler closes the simplex constraint (line 12) and
caps its own local step size by Eq. (8) (line 13).

Per-round communication: ``N(N-1)`` broadcast messages plus ``N-1``
decisions — the O(N^2) row of §IV-C.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.backend import kernels
from repro.core.interface import identify_straggler
from repro.core.ledger import LedgerEntry, RoundLedger
from repro.core.loop import RunResult, run_protocol
from repro.core.membership import add_worker_allocation
from repro.core.peerstore import (
    Column,
    LedgerBook,
    NanNoneColumn,
    NegativeNoneColumn,
    PeerStore,
)
from repro.core.quantities import risk_averse_update
from repro.core.step_size import feasibility_cap, initial_step_size
from repro.costs.base import CostFunction
from repro.costs.timevarying import CostProcess
from repro.costs.vector import as_cost_vector
from repro.exceptions import ConfigurationError, ProtocolError
from repro.net.aggtree import AggregationTree, segment_reduce
from repro.net.batch import DeliveryPlan
from repro.net.cluster import Cluster
from repro.net.links import Link
from repro.net.message import SCALAR_BYTES, Message
from repro.net.node import LazyNodeTable, Node
from repro.net.topology import Topology, connected_components
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.protocols.routes import (
    Route,
    RouteChoice,
    always,
    choose_route,
    round_span,
)
from repro.protocols.tracing import emit_membership, emit_round
from repro.simplex.sampling import equal_split, is_feasible

__all__ = ["FullyDistributedDolbie"]

TAG_COST = "cost"
TAG_DECISION = "decision"
TAG_FLOOD = "flood"

#: Wire size of a cost broadcast frame: ``(l_i, alpha-bar_i)``.
COST_FRAME_BYTES = 2 * SCALAR_BYTES


class _Peer(Node):
    """One worker of Algorithm 2, as a flyweight view over the
    protocol's :class:`~repro.core.peerstore.PeerStore`.

    Every scalar field (``x``, ``alpha_bar``, ``local_cost``, the
    agreed ``global_cost``/``straggler_id``, the node's
    ``failed``/``received_count``) is a :class:`~repro.core.peerstore.
    Column` over the store's packed columns, and ``roster`` a property
    over the store's shared roster, so views and array code see one
    state. Views are hydrated
    lazily (via the cluster's :class:`~repro.net.node.LazyNodeTable`)
    only when some code path addresses the peer as an object — the
    event engine, chaos tooling, tests — and are cached by
    :meth:`~repro.net.cluster.Cluster.node` for the protocol's lifetime.
    The per-round containers (``_peer_costs``, ``_peer_decisions``,
    ``_seen_floods``) and the ``cost_fn`` object live on the view: they
    hold python objects, exist only around event-engine rounds, and are
    empty on every peer a clean round never hydrates.

    With ``neighbors=None`` the peer assumes the paper's implicit
    all-to-all connectivity and messages everyone directly. With an
    explicit neighbor list (a connected :class:`~repro.net.topology.
    Topology`), per-round broadcasts and the decision unicasts are
    *flooded*: every first-seen flood frame is ingested (if addressed to
    this peer) and forwarded to all neighbors except the sender, with
    (kind, origin) deduplication per round. The computed allocations are
    identical; only message counts and virtual time grow.
    """

    #: Failure-detector timeout (virtual seconds) of a round that arms
    #: it. Assigning a view its own value is honoured by the event
    #: engine; the batched detection round runs only while no view has
    #: one.
    cost_timeout = 1.0

    # Scalar fields over the store columns; NaN / -1 encode None.
    x = Column()
    alpha_bar = Column()
    local_cost = NanNoneColumn()
    current_round = Column()
    is_straggler = Column()
    global_cost = NanNoneColumn()
    straggler_id = NegativeNoneColumn()
    failed = Column()
    received_count = Column()

    def __init__(
        self,
        store: PeerStore,
        node_id: int,
        num_workers: int,
        neighbors: Sequence[int] | None = None,
    ) -> None:
        # Deliberately NOT calling Node.__init__: it assigns
        # received_count=0 and failed=False, which would clobber live
        # store state through the column descriptors.
        self._store = store
        self.node_id = int(node_id)
        self._handlers = {}
        self._cluster = None
        self.num_workers = int(num_workers)
        self.neighbors = list(neighbors) if neighbors is not None else None
        self.cost_fn: CostFunction | None = None
        self._peer_costs: dict[int, tuple[float, float]] = {}
        self._peer_decisions: dict[int, float] = {}
        self._seen_floods: set[tuple[str, int]] = set()
        self.on(TAG_COST, self._on_cost)
        self.on(TAG_DECISION, self._on_decision)
        self.on(TAG_FLOOD, self._on_flood)

    @property
    def roster(self) -> "frozenset[int]":
        """Workers this peer believes are alive (crash tolerance).

        Peers without a divergent view share the store's one frozenset;
        roster changes always *rebind* (``-=`` makes a new frozenset),
        never mutate in place, so sharing is safe."""
        store = self._store  # PeerStore.roster_of, inlined (hot path)
        roster = store.roster_overrides.get(self.node_id, store._shared_roster)
        return store.shared_roster if roster is None else roster

    @roster.setter
    def roster(self, value) -> None:
        self._store.set_roster(self.node_id, value)

    def deliver(self, message: Message) -> None:
        """:meth:`Node.deliver` on the packed columns: one index per
        flag instead of property round trips on every delivery."""
        store, i = self._store, self.node_id
        handler = self._handlers.get(message.tag)
        if store.failed[i] or handler is None:
            super().deliver(message)  # discards, or raises on the tag
            return
        store.received_count[i] += 1
        handler(message)

    def observe_round(
        self,
        round_index: int,
        cost_fn: CostFunction,
        arm_failure_detector: bool = False,
    ) -> None:
        """Lines 1-4: play, suffer, learn f, broadcast (l_i, alpha-bar_i).

        ``arm_failure_detector`` schedules a timeout after which peers
        whose cost broadcast never arrived are dropped from this peer's
        roster (every surviving peer drops the same set, so the rosters
        stay consistent without extra messages)."""
        self.current_round = round_index
        self.cost_fn = cost_fn
        self.local_cost = cost_fn(self.x)
        self.is_straggler = False
        self.global_cost = None
        self.straggler_id = None
        self._peer_costs = {self.node_id: (self.local_cost, self.alpha_bar)}
        self._peer_decisions = {}
        self._seen_floods = {("cost", self.node_id)}
        if arm_failure_detector:
            self.cluster.engine.schedule(
                self.cost_timeout, lambda r=round_index: self._on_cost_timeout(r)
            )
        if self.neighbors is None:
            self.broadcast(
                TAG_COST,
                {"l": self.local_cost, "alpha_bar": self.alpha_bar},
                round_index,
            )
        else:
            self._flood(
                kind="cost",
                origin=self.node_id,
                dst=-1,  # broadcast
                body={"l": self.local_cost, "alpha_bar": self.alpha_bar},
                round_index=round_index,
                exclude=None,
            )

    # -- flooding over a restricted topology ------------------------------
    def _flood(
        self,
        kind: str,
        origin: int,
        dst: int,
        body: dict[str, float],
        round_index: int,
        exclude: int | None,
    ) -> None:
        assert self.neighbors is not None
        payload = {"kind_is_cost": 1.0 if kind == "cost" else 0.0,
                   "origin": float(origin), "dst": float(dst), **body}
        for neighbor in self.neighbors:
            if neighbor != exclude:
                self.send(neighbor, TAG_FLOOD, payload, round_index)

    def _on_flood(self, message: Message) -> None:
        self._check_round(message)
        kind = "cost" if message.payload["kind_is_cost"] == 1.0 else "decision"
        origin = int(message.payload["origin"])
        dst = int(message.payload["dst"])
        key = (kind, origin)
        if key in self._seen_floods:
            return
        self._seen_floods.add(key)
        # Forward first so dissemination does not depend on local state.
        body = {
            k: v
            for k, v in message.payload.items()
            if k not in ("kind_is_cost", "origin", "dst")
        }
        self._flood(kind, origin, dst, body, message.round_index,
                    exclude=message.src)
        if kind == "cost":
            self._ingest_cost(origin, float(body["l"]),
                              float(body["alpha_bar"]), message.round_index)
        elif dst == self.node_id:
            self._ingest_decision(origin, float(body["x"]))

    def _check_round(self, message: Message) -> None:
        if message.round_index != self.current_round:
            raise ProtocolError(
                f"peer {self.node_id} got a round-{message.round_index} "
                f"{message.tag!r} during round {self.current_round}"
            )

    def _on_cost(self, message: Message) -> None:
        """Direct (complete-topology) cost broadcast."""
        self._check_round(message)
        if message.src in self._peer_costs:
            raise ProtocolError(f"duplicate cost broadcast from peer {message.src}")
        self._ingest_cost(
            message.src,
            float(message.payload["l"]),
            float(message.payload["alpha_bar"]),
            message.round_index,
        )

    def _ingest_cost(
        self, origin: int, cost: float, alpha_bar: float, round_index: int
    ) -> None:
        """Lines 5-10: once all costs arrive, everyone decides locally."""
        self._peer_costs[origin] = (cost, alpha_bar)
        if len(self._peer_costs) < len(self.roster):
            return
        self._coordinate(round_index)

    def _on_cost_timeout(self, round_index: int) -> None:
        """Drop peers whose cost broadcast never arrived (crash tolerance).

        Works on any topology because the controller only starts the
        round on peers forming one connected component of the *effective*
        graph (alive peers, partition-respecting edges): flooding reaches
        every participant, so by the timeout each participant holds
        exactly the participants' costs and all of them drop the same
        silent set — rosters stay consistent without extra messages."""
        if round_index != self.current_round or self.global_cost is not None:
            return
        missing = self.roster - set(self._peer_costs)
        if not missing:
            return
        if len(self.roster) - len(missing) < 2:
            raise ProtocolError(
                f"peer {self.node_id}: fewer than 2 peers responded in round "
                f"{round_index} ({sorted(missing)} silent); cannot continue"
            )
        self.roster -= missing
        self._coordinate(round_index)

    def _coordinate(self, round_index: int) -> None:
        ordered_ids = sorted(self._peer_costs)
        costs = np.array([self._peer_costs[j][0] for j in ordered_ids])
        alphas = np.array([self._peer_costs[j][1] for j in ordered_ids])
        self.straggler_id = ordered_ids[identify_straggler(costs)]  # line 7
        self.global_cost = float(costs.max())  # line 5
        alpha = float(alphas.min())  # line 6 (consensus step size)

        if self.node_id != self.straggler_id:
            assert self.cost_fn is not None
            x_prime = min(self.cost_fn.max_acceptable(self.global_cost), 1.0)
            x_prime = max(x_prime, self.x)
            self.x = self.x - alpha * (self.x - x_prime)  # line 8
            if self.neighbors is None:
                self.send(
                    self.straggler_id, TAG_DECISION, {"x": self.x}, round_index
                )  # line 9
            else:
                # Multi-hop unicast to the straggler via flooding.
                self._seen_floods.add(("decision", self.node_id))
                self._flood(
                    kind="decision",
                    origin=self.node_id,
                    dst=self.straggler_id,
                    body={"x": self.x},
                    round_index=round_index,
                    exclude=None,
                )
            # line 10: alpha-bar unchanged for non-stragglers.
            if self.neighbors is None and self._peer_decisions:
                raise ProtocolError(
                    f"peer {self.node_id} buffered decisions but is not the straggler"
                )
        else:
            self._maybe_close_round()

    def _on_decision(self, message: Message) -> None:
        """Lines 11-13 (straggler only).

        With heterogeneous link delays a decision can overtake a cost
        broadcast, arriving before this peer knows it is the straggler —
        buffer it and validate once the straggler identity is resolved.
        """
        self._check_round(message)
        if message.src in self._peer_decisions:
            raise ProtocolError(f"duplicate decision from peer {message.src}")
        self._ingest_decision(message.src, float(message.payload["x"]))

    def _ingest_decision(self, origin: int, x_new: float) -> None:
        self._peer_decisions[origin] = x_new
        if self.straggler_id is None:
            return  # straggler identity not yet known; buffered
        if self.straggler_id != self.node_id:
            raise ProtocolError(
                f"peer {self.node_id} received a decision but is not the straggler"
            )
        self._maybe_close_round()

    def _maybe_close_round(self) -> bool:
        """Straggler: close the simplex once all live decisions are in."""
        if len(self._peer_decisions) < len(self.roster) - 1:
            return False
        x_new = 1.0 - sum(self._peer_decisions.values())  # line 12
        if x_new < -1e-9:
            raise ProtocolError(
                f"straggler workload went negative ({x_new:.3e}); the verbatim "
                "Eq. (8) cap was insufficient this round"
            )
        # Snap dust to exactly zero — mirrors the centralized reference,
        # whose closing sum runs in a different order and would otherwise
        # drift onto a different trajectory via straggler-tie flips.
        self.x = x_new if x_new >= 1e-12 else 0.0
        self.alpha_bar = min(
            self.alpha_bar, feasibility_cap(self.x, len(self.roster))
        )  # line 13 / Eq. (8)
        return True


class _PeerSeq(Sequence):
    """``protocol.peers``: a sequence of lazily hydrated :class:`_Peer`
    views (the cluster's node cache is the single view cache, so
    ``peers[i] is cluster.node(i)``)."""

    def __init__(self, protocol: "FullyDistributedDolbie") -> None:
        self._protocol = protocol

    def __len__(self) -> int:
        return self._protocol.num_workers

    def __getitem__(self, index: int):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if not -n <= index < n:
            raise IndexError(index)
        return self._protocol.cluster.node(index % n)


class _Membership(NamedTuple):
    """One membership epoch, resolved once at the round boundary that
    starts it and reused by every round of the epoch.

    ``ids`` are the participants (ascending), the ledger roster table's
    interned array that every ledger row of the epoch points to; ``agree``
    is whether every participant's local roster matches the set
    (:meth:`FullyDistributedDolbie._rosters_agree`).
    """

    ids: np.ndarray
    agree: bool


class _FlatRound:
    """Frame-order index structures of the flat batched round for one
    participant set (rebuilt when the set changes).

    Frame ``k`` of the cost broadcast is sender ``src[k]`` to receiver
    ``dst[k]``, in the exact event-engine send order: participants in id
    order, each broadcasting to every other node id ascending — dead
    peers included, as :meth:`~repro.net.node.Node.broadcast` does.
    ``in_frames[r]`` lists the frame indices addressed to participant
    ``parts[r]`` by the other participants, in ascending order —
    ascending frame index doubles as the event engine's same-time
    delivery tie-break.

    A full roster also holds a :class:`DeliveryPlan` for the cost
    broadcast (``plan``), so steady rounds skip the per-phase pair
    lookup and receiver grouping. Degraded and detection sets are
    one-off and keep the one-shot delivery, which also leaves the dead
    receivers' counts alone; so does a broadcast above the batched
    view's ``chunk_frames``, which streams in chunks.
    """

    def __init__(
        self, protocol: "FullyDistributedDolbie", membership: _Membership
    ) -> None:
        n = protocol.num_workers
        parts = membership.ids
        m = parts.size
        self.parts = parts
        self.full = m == n
        ids = np.arange(n)
        grid = np.broadcast_to(ids, (m, n))
        self.src = np.repeat(parts, n - 1)
        self.dst = grid[grid != parts[:, None]]
        # Row r of the position-minus-self matrix is receiver r's
        # senders (ascending); the frame from sender position s to
        # receiver j sits at s*(n-1) + (j if j < parts[s] else j - 1).
        pos = np.arange(m)
        senders = np.broadcast_to(pos, (m, m))[pos[:, None] != pos]
        senders = senders.reshape(m, m - 1)
        recv = parts[:, None]
        offsets = np.where(recv < parts[senders], recv, recv - 1)
        self.in_frames = senders * (n - 1) + offsets
        taking_part = np.zeros(n, dtype=bool)
        taking_part[parts] = True
        self.nonparticipants = np.flatnonzero(~taking_part)
        batched = protocol.cluster.batched()
        self.plan = (  # payload (l, alpha_bar)
            batched.plan(self.src, self.dst, 2)
            if self.full and self.src.size <= batched.chunk_frames
            else None
        )

    def matches(self, membership: _Membership) -> bool:
        """A full set is identified by its size, a degraded one by its
        interned id array."""
        ids = membership.ids
        return ids is self.parts or (self.full and ids.size == self.parts.size)


class _TreeRound:
    """Everything the tree round precomputes for one roster.

    Built once per participant set (keyed by the membership's interned
    id array) and reused until a roster change or a membership event
    drops it. Holds three kinds of state:

    - **Index arrays** (int64): the overlay's own arrays
      (:class:`~repro.net.aggtree.AggregationTree`, read in place) plus
      the shard ends, the member->shard map and the up-tree combine
      order derived from them.
    - **Delivery plans** (:class:`repro.net.batch.DeliveryPlan`) for
      every fixed-layout phase — A (member reports, 2 payload fields),
      B/C (per-level consensus frames, 3 fields), D (member fan-out, 3
      fields), E (member decisions, 1 field), F (per-level partial sums,
      1 field). Payload values are never materialized; the plans carry
      only the accounting a materialized frame batch would produce.
    - **Buffers**: the per-shard reduction outputs. Peer state is read
      from the live store every round, never mirrored.
    """

    def __init__(
        self, protocol: "FullyDistributedDolbie", membership: _Membership
    ) -> None:
        self.key = membership.ids
        tree = AggregationTree.build(
            membership.ids, protocol.shard_size, protocol.branching
        )
        self.tree = tree
        n = protocol.num_workers
        m = tree.num_shards
        self.m = m
        member_mask = np.zeros(n, dtype=bool)
        member_mask[tree.ids] = True
        self.nonparticipants = np.flatnonzero(~member_mask)
        self.ends = tree.ends
        self.member_shard = np.repeat(
            np.arange(m, dtype=np.int64), self.ends - tree.offsets - 1
        )
        self.order = tree.up_order()
        self.root_arr = np.array([tree.root])
        heads, parent = tree.heads, tree.parent
        batched = protocol.cluster.batched()
        if tree.member_ids.size:
            self.plan_a: DeliveryPlan | None = batched.plan(
                tree.member_ids, tree.member_head, 2
            )
            self.plan_d: DeliveryPlan | None = batched.plan(
                tree.member_head, tree.member_ids, 3
            )
            self.plan_e: DeliveryPlan | None = batched.plan(
                tree.member_ids, tree.member_head, 1
            )
        else:
            self.plan_a = self.plan_d = self.plan_e = None
        #: (level, parent-of-level, consensus plan, partial-sum plan) per
        #: up-tree level, deepest first — phase B's and F's shared walk.
        self.up_levels: list[
            tuple[np.ndarray, np.ndarray, DeliveryPlan, DeliveryPlan]
        ] = []
        for level in tree.levels[:0:-1]:
            par = parent[level]
            self.up_levels.append(
                (
                    level,
                    par,
                    batched.plan(heads[level], heads[par], 3),
                    batched.plan(heads[level], heads[par], 1),
                )
            )
        #: (level, parent-of-level, plan) per down-tree level, top first
        #: — phase C's walk.
        self.down_levels: list[
            tuple[np.ndarray, np.ndarray, DeliveryPlan]
        ] = []
        for level in tree.levels[1:]:
            par = parent[level]
            self.down_levels.append(
                (level, par, batched.plan(heads[par], heads[level], 3))
            )
        dtype = protocol.backend.dtype
        self.out_max = np.empty(m, dtype=dtype)
        self.out_arg = np.empty(m, dtype=np.int64)
        self.out_alpha = np.empty(m, dtype=dtype)
        self.acc_sum = np.empty(m, dtype=dtype)


class FullyDistributedDolbie:
    """Run Algorithm 2 on the discrete-event network substrate."""

    name = "DOLBIE/fully-distributed"

    def __init__(
        self,
        num_workers: int,
        initial_allocation: np.ndarray | None = None,
        alpha_1: float | None = None,
        link: Link | None = None,
        topology: Topology | None = None,
        use_fast_path: bool = True,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        aggregation: str = "flat",
        shard_size: int | None = None,
        branching: int = 4,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        """``topology`` restricts connectivity to a connected graph (see
        :class:`repro.net.topology.Topology`); per-round information then
        spreads by flooding instead of direct all-to-all sends. ``None``
        keeps the paper's implicit complete graph.

        ``use_fast_path`` enables the batched round-synchronous fast path
        (:mod:`repro.net.batch`) on all-to-all rounds — healthy ones, the
        failure detection after a crash, and degraded rounds the
        survivors agree on; it is bit-identical to the event engine and
        disabled automatically whenever chaos hooks, stalled peers, a
        detection whose frames could miss the timeout, or a restricted
        topology are in play (see :attr:`ROUTES`; :attr:`last_route`
        names each round's route and why the faster ones refused it).

        ``aggregation`` selects the round's exchange pattern. ``"flat"``
        (default) is the paper's all-to-all broadcast — the bit-pinned
        reference. ``"tree"`` shards the roster and exchanges aggregates
        over a ``branching``-ary tree of shard heads
        (:mod:`repro.net.aggtree`): O(N) frames per round instead of
        O(N^2), identical consensus outcomes (exact semilattice
        reductions), a differently-associated decision sum (regret impact
        measured, see ``docs/performance.md``). Tree rounds run the fused
        kernels of :mod:`repro.backend.kernels` over cached delivery
        plans, without materializing the ~3N per-round frames; a round
        whose rosters disagree (the failure detection after a crash)
        runs flat, and one that is not batch-eligible (chaos) runs on
        the flat event engine. ``shard_size`` defaults to ~sqrt(N).

        ``backend`` picks the float dtype of the fast paths'
        array arithmetic once, at config time (:mod:`repro.backend`):
        ``"numpy64"`` (default, bit-identical to the historical code) or
        ``"numpy32"``. Event-engine rounds, and the flat batched rounds
        on a degraded roster that stand in for them, always compute in
        float64 — the backend governs the healthy vectorized rounds only.
        ``"compiled"`` is accepted as another name for ``"numpy64"``.

        Peer state lives in packed struct-of-arrays columns
        (:class:`repro.core.peerstore.PeerStore`) and per-worker ledger
        replicas in span arrays (:class:`repro.core.peerstore.
        LedgerBook`): construction and checkpointing are O(N) array
        allocations, which is what makes N=10⁶ tractable. Peer objects
        (``protocol.peers[i]``) are flyweight views over the columns,
        hydrated only when some code path addresses one — the event
        engine, chaos tooling, flooding over a sparse ``topology``
        (a view's ``neighbors`` are ``topology.neighbors(i)``).

        ``tracer``/``profiler`` attach the observability layer (see
        :mod:`repro.obs`); trace payloads are identical on both
        execution paths."""
        if num_workers < 2:
            raise ConfigurationError(f"need >= 2 workers, got {num_workers}")
        if aggregation not in ("flat", "tree"):
            raise ConfigurationError(
                f"aggregation must be 'flat' or 'tree', got {aggregation!r}"
            )
        if aggregation == "tree" and topology is not None:
            raise ConfigurationError(
                "tree aggregation assumes the complete graph; combine it "
                "with topology=None (flooding over a sparse topology "
                "already avoids all-to-all sends)"
            )
        self.aggregation = aggregation
        self.shard_size = None if shard_size is None else int(shard_size)
        self.branching = int(branching)
        if self.shard_size is not None and self.shard_size < 2:
            raise ConfigurationError(
                f"shard_size must be >= 2, got {self.shard_size}"
            )
        if self.branching < 2:
            raise ConfigurationError(
                f"branching must be >= 2, got {self.branching}"
            )
        self.backend = get_backend(backend)
        self.num_workers = int(num_workers)
        self.topology = topology
        if topology is not None and topology.num_nodes != num_workers:
            raise ConfigurationError(
                f"topology has {topology.num_nodes} nodes for "
                f"{num_workers} workers"
            )
        x0 = (
            equal_split(num_workers)
            if initial_allocation is None
            else np.asarray(initial_allocation, dtype=float)
        )
        if not is_feasible(x0) or x0.size != num_workers:
            raise ConfigurationError("initial allocation must be feasible")
        if alpha_1 is None:
            alpha_1 = initial_step_size(x0)
        self._store = PeerStore(num_workers, x0, float(alpha_1))
        table = LazyNodeTable(
            num_workers,
            self._hydrate_peer,
            self._store.received_count,
            self._store.failed,
        )
        self.cluster = Cluster(table, default_link=link)
        self.peers: Sequence[_Peer] = _PeerSeq(self)
        self._alive = np.ones(num_workers, dtype=bool)
        #: Alive peers currently unreachable from the primary component
        #: (cut off by a partition or a dead relay); their shares are
        #: folded into the straggler until the topology heals.
        self._stalled: set[int] = set()
        self.use_fast_path = bool(use_fast_path)
        #: Rounds run by each route of :attr:`ROUTES`.
        self.route_counts = dict.fromkeys(
            (route.name for route in self.ROUTES), 0
        )
        #: The route the latest round took and the earlier routes'
        #: refusal reasons (``None`` before the first round).
        self.last_route: RouteChoice | None = None
        #: The current membership epoch (``None`` until the next round
        #: boundary resolves one): emptied by crash, rejoin, readmit,
        #: checkpoint restore and every detection or event round.
        self._membership: _Membership | None = None
        #: Per-participant-set caches of the flat and the tree round.
        self._flat_round: _FlatRound | None = None
        self._tree_round: _TreeRound | None = None
        #: The overlay used by the most recent tree round (``None`` until
        #: one runs) — the chaos invariant checker revalidates it against
        #: the roster after every round.
        self.last_tree: AggregationTree | None = None
        self.tracer = tracer
        self.profiler = profiler
        self.cluster.tracer = tracer
        #: Authoritative round ledger (one entry per completed round) and
        #: each peer's replica of it, span-compressed: healthy replicas
        #: are contiguous runs of the authority. A crash wipes the
        #: peer's replica — process memory is gone — while a
        #: checkpointed *restart* restores it (see
        #: :mod:`repro.core.ledger`).
        self.ledger = RoundLedger()
        self._ledger_book = LedgerBook(num_workers, self.ledger)

    def _hydrate_peer(self, node_id: int) -> _Peer:
        """Factory the lazy node table uses to build flyweight peer
        views over the store columns (cached by the cluster)."""
        return _Peer(
            self._store,
            node_id,
            self.num_workers,
            None if self.topology is None else self.topology.neighbors(node_id),
        )

    def crash_worker(self, worker: int) -> None:
        """Silence ``worker`` from the next round on. Surviving peers'
        failure detectors drop it consistently; its share folds into that
        round's straggler. On a sparse topology the survivors degrade to
        the largest still-connected component (a crashed relay stalls the
        peers it cut off — see :meth:`run_round`)."""
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(f"worker index {worker} out of range")
        self._alive[worker] = False
        self._stalled.discard(worker)
        self._store.failed[worker] = True  # no need to hydrate a view
        self._invalidate_membership()
        # Process memory is gone: the peer's ledger replica dies with it.
        self._ledger_book.wipe(worker)
        emit_membership(
            self.tracer, self.cluster.trace_round, "crash", [worker],
            self.roster,
        )

    def rejoin_worker(self, worker: int, share: float | None = None) -> None:
        """Re-admit ``worker`` (crash recovery / partition heal).

        Revives the process if it was dead and re-shards the workload:
        the newcomer receives ``share`` (default ``1/(N+1)`` on the
        post-join fleet) via :func:`repro.core.membership.
        add_worker_allocation`'s proportional scaling, every live peer's
        roster is re-agreed to include it, and its local step size is
        re-capped by the Eq. (8) rule so its first update stays feasible.
        If the peer is still unreachable (partition not yet healed) the
        next round's reachability pass will stall it again.
        """
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(f"worker index {worker} out of range")
        if self._alive[worker] and worker not in self._stalled:
            raise ConfigurationError(f"worker {worker} is already active")
        self._alive[worker] = True
        self._store.failed[worker] = False
        self._invalidate_membership()
        self._readmit(worker, share)
        emit_membership(
            self.tracer, self.cluster.trace_round, "rejoin", [worker],
            self.roster,
        )

    def worker_ledger(self, worker: int) -> RoundLedger:
        """``worker``'s replica of the round ledger."""
        return self._ledger_book.worker_ledger(worker)

    def restore_worker_ledger(
        self, worker: int, entries: Sequence[LedgerEntry]
    ) -> None:
        """Reload ``worker``'s ledger replica from a checkpoint (the
        restart fault's recovery path; a plain rejoin starts empty)."""
        self._ledger_book.restore_replica(worker, entries)

    def _invalidate_membership(self) -> None:
        """Empty the membership cache and drop the tree round's.

        Called on every mutation no round performs itself:
        crash/rejoin/checkpoint restore change the roster, and
        ``_readmit`` rebinds every participant's roster."""
        self._membership = None
        self._tree_round = None

    def _participant_ids(self) -> np.ndarray:
        """Peers expected to take part in the next round (ascending)."""
        if self._stalled:
            active = self._alive.copy()
            active[list(self._stalled)] = False
            return np.flatnonzero(active)
        return np.flatnonzero(self._alive)

    def _readmit(self, worker: int, share: float | None = None) -> None:
        """Reshard the live allocation over ``participants + worker`` and
        re-merge every participant's roster (the heal-side half of the
        failure-detector protocol)."""
        self._invalidate_membership()
        self._stalled.discard(worker)
        incumbents = [i for i in self._participant_ids().tolist() if i != worker]
        if not incumbents:
            raise ConfigurationError(
                f"cannot rejoin worker {worker}: no live quorum to join"
            )
        store = self._store
        if not store.roster_overrides:
            # Every incumbent shares the one roster: the membership scan
            # collapses to a single lookup.
            if store.in_shared_roster(worker):
                return  # never dropped from the live rosters; shares intact
        elif all(worker in store.roster_of(i) for i in incumbents):
            return
        inc = np.asarray(incumbents, dtype=np.int64)
        x_live = store.x[inc]
        # A peer that crashed or stalled at this same round boundary
        # still holds its share (the failure detectors only fold it once
        # a round runs), so the incumbents' mass can sum below 1; absorb
        # any such residual proportionally before resharding.
        total = float(x_live.sum())
        if total > 1e-12:
            x_live = x_live / total
        else:  # pathological: the departed peers held ~all the workload
            x_live = np.full(len(incumbents), 1.0 / len(incumbents))
        x_new = add_worker_allocation(x_live, share)
        store.x[inc] = x_new[:-1]
        store.x[worker] = float(x_new[-1])
        new_roster = frozenset(incumbents) | {worker}
        # Dead and stalled peers keep the roster they last saw.
        stale = np.flatnonzero(~self._alive).tolist()
        stale.extend(self._stalled)
        store.rebind_roster(new_roster, stale_ids=stale)
        consensus = float(store.alpha_bar[inc].min())
        cap = feasibility_cap(float(x_new[-1]), len(new_roster))
        store.alpha_bar[worker] = min(consensus, cap)

    def _reachable_components(self) -> list[set[int]]:
        """Components of the effective graph: alive peers, restricted to
        topology edges the current partition still allows."""
        alive = set(np.flatnonzero(self._alive).tolist())
        if self.topology is None and not self.cluster.partitioned and alive:
            # Complete graph, no partition: any alive set is one component.
            # Skips the O(N^2) traversal on every healthy round.
            return [alive]

        def neighbors(i: int) -> list[int]:
            if self.topology is None:
                candidates: Sequence[int] = range(self.num_workers)
            else:
                candidates = self.topology.neighbors(i)
            return [
                j
                for j in candidates
                if j != i and j in alive and self.cluster.can_communicate(i, j)
            ]

        return connected_components(alive, neighbors)

    @property
    def alive_workers(self) -> list[int]:
        """Peers whose process is running (may include peers stalled
        behind a partition — see :attr:`roster` for the coordinating
        quorum)."""
        return np.flatnonzero(self._alive).tolist()

    @property
    def roster(self) -> list[int]:
        """The quorum currently coordinating rounds: alive peers
        reachable from the primary component. The allocation sums to 1
        over exactly this set, and every listed peer's local roster
        agrees with it after each completed round."""
        return self._participant_ids().tolist()

    @property
    def allocation(self) -> np.ndarray:
        return self._store.x.copy()

    @property
    def alpha(self) -> float:
        """The consensus step size the *next* round will use (the min
        over the active quorum's local step sizes)."""
        return float(self._store.alpha_bar[self._participant_ids()].min())

    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def header_context(self) -> dict:
        """The engine identity a trace header carries."""
        return {
            "fast_path": self.use_fast_path,
            "topology": "complete" if self.topology is None else "custom",
        }

    # -- route counters (views over route_counts) ---------------------------
    @property
    def fast_rounds(self) -> int:
        """Rounds run batched: tree, flat and detection rounds."""
        counts = self.route_counts
        return counts["tree"] + counts["flat"] + counts["detect"]

    @property
    def tree_rounds(self) -> int:
        """Rounds run with tree aggregation (a subset of fast_rounds)."""
        return self.route_counts["tree"]

    @property
    def detect_rounds(self) -> int:
        """Failure detections run batched (a subset of fast_rounds)."""
        return self.route_counts["detect"]

    @property
    def fallback_rounds(self) -> int:
        """Rounds run on the event engine."""
        return self.route_counts["event"]

    # -- membership and the route checks ------------------------------------
    def _resolve_membership(self, round_index: int) -> _Membership:
        """Resolve the membership at a round boundary.

        The round runs on the *primary* component of the effective graph
        (alive peers over partition-respecting edges): largest
        component, lowest peer id breaking ties. Stalled peers that
        became reachable again (partition healed) are re-admitted via
        resharding; alive peers that just became unreachable stall and
        have their shares folded by the participants' failure detectors
        during this round."""
        components = self._reachable_components()
        primary = max(components, key=lambda c: (len(c), -min(c)))
        if len(primary) < 2:
            raise ProtocolError(
                f"round {round_index}: the primary component has only "
                f"{len(primary)} reachable peer(s) "
                f"(components: {sorted(sorted(c) for c in components)}); "
                "a partition or a dead relay left no quorum to continue"
            )
        for worker in sorted(self._stalled & primary):
            self._readmit(worker)  # heal: re-merge roster and reshard
        for worker in sorted(set(self.alive_workers) - primary):
            self._stalled.add(worker)
        rosters = self.ledger.rosters  # one id array per distinct roster
        ids = rosters[rosters.intern(self._participant_ids())]
        return _Membership(ids, self._rosters_agree(ids))

    def _rosters_agree(self, participants: Sequence[int]) -> bool:
        """Every participant's local roster matches the participant set.

        Checked by length — O(1) per peer — which is sound because
        rosters only ever change collectively (timeout shrink, readmit
        rebind)."""
        store = self._store
        if not store.roster_overrides:
            # One shared roster for everyone — a single length check
            # replaces the N-peer scan (and hydrates no views).
            return store.shared_size() == len(participants)
        want = len(participants)
        return all(len(store.roster_of(i)) == want for i in participants)

    def _batch_refusal(self) -> str | None:
        """Why no batched route can run this round, or ``None``: they
        need the fast path on, the paper's implicit all-to-all
        connectivity, no stalled peers, and a chaos-free cluster with
        nothing in flight (:meth:`~repro.net.cluster.Cluster.
        batch_eligible`)."""
        if not self.use_fast_path:
            return "fast path disabled"
        if self.topology is not None:
            return "restricted topology"
        if self._stalled:
            return "stalled peers"
        if not self.cluster.batch_eligible():
            return "cluster not batch-eligible"
        return None

    def _check_tree(self, members: _Membership, blocked: str | None) -> str | None:
        """Hierarchical aggregation tolerates a *degraded* roster — the
        overlay is rebuilt from whatever quorum survives — but needs
        every participant's local roster to agree with the set (a
        pending failure detection first runs the ``detect`` route, which
        is what re-agrees the rosters)."""
        if self.aggregation != "tree":
            return "aggregation is flat"
        return self._check_flat(members, blocked)

    def _check_flat(self, members: _Membership, blocked: str | None) -> str | None:
        """The flat batched round on an agreed roster — a healthy round,
        or a degraded roster everyone agrees on. Any worker outside the
        participant set is then dead."""
        if blocked is not None:
            return blocked
        return None if members.agree else "rosters disagree"

    def _check_detect(self, members: _Membership, blocked: str | None) -> str | None:
        """Whether this round is a failure detection the flat batched
        round reproduces exactly.

        That is the state :meth:`crash_worker` leaves behind: every
        participant holds one roster ``R`` strictly containing the
        participant set, and every peer of ``R`` outside it is dead. On
        the event engine each participant then arms its detector for
        ``T = t0 + cost_timeout`` and broadcasts. When no cost frame can
        reach or tie ``T`` (the link's
        :meth:`~repro.net.links.Link.max_delay` guard below), each
        participant holds exactly the participants' costs when its
        timeout fires; all of them drop the same silent set
        ``R - participants`` in ascending id order (timeout order) and
        coordinate at ``T``. Otherwise the event engine runs the round
        (and raises when too few costs beat the timeout).
        """
        if blocked is not None:
            return blocked
        store = self._store
        participants = members.ids.tolist()
        roster = store.roster_of(participants[0])
        size = len(roster)
        if size <= len(participants) or not roster.issuperset(participants):
            return "no pending detection"
        if store.roster_overrides and not all(
            len(store.roster_of(i)) == size for i in participants
        ):
            return "no pending detection"
        if self._alive[list(roster.difference(participants))].any():
            return "silent peer alive"
        timeout = _Peer.cost_timeout
        if any(
            peer.cost_timeout != timeout
            for peer in self.cluster._nodes.values()  # hydrated views
        ):
            return "per-view cost timeout"  # the event engine orders them
        t0 = self.cluster.engine.now
        bound = self.cluster.default_link.max_delay(COST_FRAME_BYTES)
        if not t0 + bound < t0 + timeout:
            return "detection latency guard"
        return None

    def _run_round_tree(
        self,
        round_index: int,
        costs: Sequence[CostFunction],
        members: _Membership,
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """One round with hierarchical (tree) aggregation — O(N) frames.

        Phases (each delivered as one vectorized delay draw, in
        deterministic frame order):

        A. members -> shard heads: ``(l_i, alpha-bar_i)`` reports;
        B. heads -> parents, deepest level first: subtree consensus
           aggregates ``(max l, straggler candidate, min alpha-bar)``;
        C. root -> heads, top level first: the agreed global triple;
        D. heads -> members: the triple, fanned out;
        E. non-straggler members -> heads: updated decisions;
        F. heads -> parents: subtree decision *partial sums*;
        G. root -> straggler: the grand total (skipped if the root is the
           straggler), which closes the simplex.

        The consensus quantities are exact semilattice reductions, so
        the tree computes bit for bit what the flat broadcast computes
        (asserted below). Only the decision sum's association differs —
        the measured tree-vs-flat trajectory gap. A send fires the
        moment its inputs are in: per-frame send times thread head
        readiness through the levels, so virtual time reflects the
        tree's O(log) sequential depth.

        The shard reductions and the documented-order decision sums run
        as fused kernels (:mod:`repro.backend.kernels`) over preallocated
        flat buffers; deliveries go through cached
        :class:`~repro.net.batch.DeliveryPlan` objects, and the batched
        view keeps the round's clock and event tally (pinned by the
        ``fd-tree`` golden traces and the kernel property suite).

        Peer writes are limited to the store columns any later code path
        can observe before the next round rewrites them
        (``current_round``, ``global_cost``, ``straggler_id``, ``x``, the
        straggler's ``alpha_bar`` cap — what the chaos invariants, the
        public properties, and the next round's inputs read).
        ``local_cost``, ``is_straggler`` and the views' per-round
        containers are left alone; an event-engine fallback round
        re-initializes all of them via ``observe_round`` before use.
        """
        n = self.num_workers
        store = self._store
        backend = self.backend
        cc = self._tree_round
        if cc is None or cc.key is not members.ids:
            # Rebuilt deterministically from the sorted roster alone —
            # every peer could do the same locally.
            cc = self._tree_round = _TreeRound(self, members)
        tree = cc.tree
        x_played = store.x.copy()
        m = cc.m
        parts = tree.ids
        batched = self.cluster.batched()
        batched.begin_round(round_index)
        t0 = batched.now
        x = backend.asarray(x_played)
        # The store column itself on numpy64; phase A indexes a copy.
        alphas = backend.asarray(store.alpha_bar)
        vector = as_cost_vector(costs, backend.dtype)
        local = vector.values(x)
        backend.ensure(local, "local costs")

        # Participant-ordered views (phase A payloads + reduction input).
        ordered_local = local[parts]
        ordered_alpha = alphas[parts]

        # Lines 5-7 as flat reductions, kept (cheap) to cross-check the
        # tree combine: max/min/lowest-index-argmax are exact under any
        # combination order (see repro.net.aggtree).
        straggler = int(parts[identify_straggler(ordered_local)])
        global_cost = float(ordered_local.max())
        alpha = float(ordered_alpha.min())

        # Phase A: member cost reports to their shard head.
        if cc.plan_a is not None:
            head_ready = np.maximum(
                segment_reduce(
                    np.maximum, cc.plan_a.deliver(t0), tree.member_offsets,
                    -np.inf,
                ),
                t0,
            )
        else:
            head_ready = np.full(m, t0)

        # Per-shard consensus + up-tree semilattice combine (phase B's
        # aggregates), fused.
        out_max, out_arg, out_alpha = cc.out_max, cc.out_arg, cc.out_alpha
        kernels.shard_consensus(
            ordered_local, ordered_alpha, parts, tree.offsets,
            cc.ends, out_max, out_arg, out_alpha,
        )
        del ordered_alpha
        kernels.combine_up_consensus(
            out_max, out_arg, out_alpha, cc.order, tree.parent
        )
        assert (
            float(out_max[0]) == global_cost
            and int(out_arg[0]) == straggler
            and float(out_alpha[0]) == alpha
        ), "tree aggregation diverged from the flat reduction"

        # Phase B: aggregates climb the head tree, deepest level first.
        up_ready = head_ready.copy()
        for level, parent_lv, plan_b, _plan_f in cc.up_levels:
            arrivals = plan_b.deliver(up_ready[level])
            np.maximum.at(up_ready, parent_lv, arrivals)

        # Phase C: the global triple descends the head tree.
        down_ready = np.full(m, np.inf)
        down_ready[0] = up_ready[0]
        for level, parent_lv, plan_c in cc.down_levels:
            down_ready[level] = plan_c.deliver(down_ready[parent_lv])

        # Phase D: heads fan the triple out to their members.
        if cc.plan_d is not None:
            member_know = cc.plan_d.deliver(down_ready[cc.member_shard])
        else:
            member_know = np.empty(0)

        # Line 8 at every non-straggler (vectorized; the straggler's slot
        # is overwritten by the closure below).
        x_new = risk_averse_update(vector, global_cost, x, alpha)
        backend.ensure(x_new, "updated allocation")

        # Phase E: member decisions to their heads (straggler excluded;
        # plan delivery with drop= draws count-1 delays against the
        # masked send times, exactly like a masked frame batch).
        sum_ready = down_ready.copy()  # heads' own decisions ready on D
        if cc.plan_e is not None:
            member_ids = tree.member_ids
            drop = int(np.searchsorted(member_ids, straggler))
            if not (
                drop < member_ids.size
                and int(member_ids[drop]) == straggler
            ):
                drop = -1
            if member_ids.size - (1 if drop >= 0 else 0) > 0:
                if drop >= 0:
                    arrivals = cc.plan_e.deliver(
                        np.delete(member_know, drop), drop=drop
                    )
                    shard_idx = np.delete(cc.member_shard, drop)
                else:
                    arrivals = cc.plan_e.deliver(member_know)
                    shard_idx = cc.member_shard
                np.maximum.at(sum_ready, shard_idx, arrivals)
                del arrivals, shard_idx  # phase E's masked copies
        del member_know

        # Phase F: documented-order decision sums + up-tree frames.
        exclude_pos = int(np.searchsorted(parts, straggler))
        acc_sum = cc.acc_sum
        kernels.shard_decision_sums(
            x_new[parts], tree.offsets, cc.ends, exclude_pos, acc_sum
        )
        kernels.combine_up_sums(acc_sum, cc.order, tree.parent)
        backend.ensure(acc_sum, "decision partial sums")
        for level, parent_lv, _plan_b, plan_f in cc.up_levels:
            arrivals = plan_f.deliver(sum_ready[level])
            np.maximum.at(sum_ready, parent_lv, arrivals)

        # Phase G + line 12: the grand total reaches the straggler.
        total = acc_sum[0]
        if straggler != tree.root:
            batched.deliver(
                cc.root_arr, np.array([straggler]), 1, float(sum_ready[0])
            )
        raw, x_close = kernels.phase_g_close(total)
        if raw < -1e-9:
            raise ProtocolError(
                f"straggler workload went negative ({raw:.3e}); the "
                "verbatim Eq. (8) cap was insufficient this round"
            )

        # Post-round state: the final allocation and the slim write set
        # (see the docstring), as sliced column stores — zero peer views
        # hydrated on a clean round.
        x_new = np.asarray(x_new, dtype=float)
        x_new[straggler] = x_close
        # Non-participants' shares were folded into the straggler.
        x_new[cc.nonparticipants] = 0.0
        local64 = np.full(n, np.nan)
        local64[parts] = np.asarray(ordered_local, dtype=float)
        store.current_round[parts] = round_index
        store.global_cost[parts] = global_cost
        store.straggler_id[parts] = straggler
        store.x[:] = x_new
        store.alpha_bar[straggler] = min(
            float(store.alpha_bar[straggler]),
            feasibility_cap(x_close, parts.size),
        )  # line 13 / Eq. (8)

        batched.finish_round()
        self.last_tree = tree
        return x_played, local64, global_cost, straggler

    def _run_round_fast(
        self,
        round_index: int,
        costs: Sequence[CostFunction],
        members: _Membership,
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """One flat round as two batched phases (Algorithm 2 verbatim).

        Bit-identical to the event-engine round: link delays are drawn in
        frame order (one draw per phase), per-peer completion events and
        their (time, sequence) tie-breaks are reconstructed with array
        ops, and the straggler's closing sum accumulates the decisions in
        the same arrival order the event engine would insert them.

        The participants are the live peers. Their broadcasts also go to
        the dead peers' node ids: those frames are counted and drawn,
        and their receivers discard them uncounted. In a failure
        detection (the rosters disagree: the ``detect`` route, see
        :meth:`_check_detect`) no participant completes on arrival; at
        ``T = t0 + cost_timeout`` (class-wide: the check refuses a round
        where a view has its own) each one drops the silent set and
        coordinates, so the decisions leave at ``T`` in ascending id
        order and the participants' timeouts count as processed events.

        A full-roster round computes in the backend dtype; a degraded or
        detection round computes in float64 whatever the backend, as the
        event engine does.
        """
        store = self._store
        fr = self._flat_round
        if fr is None or not fr.matches(members):
            fr = self._flat_round = _FlatRound(self, members)
        x_played = self.allocation
        parts = fr.parts
        m = parts.size
        # Participant columns: a full roster slices (no copies). Payload
        # arithmetic runs in the backend dtype on a full roster and in
        # float64 otherwise; virtual time and link delays stay float64.
        sel = slice(None) if fr.full else parts
        backend = self.backend if fr.full else get_backend("numpy64")
        batched = self.cluster.batched()
        batched.begin_round(round_index)
        t0 = batched.now
        x = backend.asarray(x_played)
        alphas = backend.asarray(store.alpha_bar)
        vector = as_cost_vector(costs, backend.dtype, among=parts)
        local = vector.values(x)
        backend.ensure(local, "local costs")

        # Phase 1 (line 4): (l_i, alpha-bar_i) broadcast to every node id.
        if fr.plan is not None:
            arrivals = fr.plan.deliver(t0)
        else:
            arrivals = batched.deliver(fr.src, fr.dst, 2, t0)

        # Lines 5-7: identical consensus at every participant.
        local_p = local[sel]
        straggler = int(parts[identify_straggler(local_p)])
        global_cost = float(local_p.max())
        alpha = float(alphas[sel].min())

        # Line 8: risk-averse update at the non-stragglers.
        x_new = risk_averse_update(vector, global_cost, x, alpha)
        backend.ensure(x_new, "updated allocation")

        # Phase 2 (line 9): decisions to the straggler.
        keep = parts != straggler
        if members.agree:
            # Each non-straggler sends the moment its completing event
            # fires — frame order is completion order (time, then
            # completing-event sequence).
            arrivals_in = arrivals[fr.in_frames]  # (m, m-1) per receiver
            completion = arrivals_in.max(axis=1)
            # Among tied last arrivals the event engine fires the
            # highest-sequence (= frame index) last.
            completing_frame = np.where(
                arrivals_in == completion[:, None], fr.in_frames, -1
            ).max(axis=1)
            send_order = np.lexsort(
                (completing_frame[keep], completion[keep])
            )
            senders = parts[keep][send_order]
            send_times = completion[keep][send_order]
        else:
            # Every participant's timeout fires at T, in id order, and
            # each non-straggler sends from it.
            senders = parts[keep]
            send_times = t0 + _Peer.cost_timeout
        decision_arrivals = batched.deliver(
            senders, np.full(m - 1, straggler), 1, send_times
        )

        # Lines 11-12: the straggler closes the simplex, accumulating the
        # decisions in arrival order (ties by send sequence) exactly as
        # the event engine inserts them into its dict.
        arrival_order = np.lexsort((np.arange(m - 1), decision_arrivals))
        ordered_senders = senders[arrival_order]
        total = backend.dtype.type(0.0)
        for value in x_new[ordered_senders]:
            total += value
        x_close = 1.0 - total
        # A negative closure raises at the straggler's last decision,
        # after every other participant has updated: that state is
        # written below first, as the event engine would leave it.
        closed = x_close >= -1e-9
        if closed:
            x_close = float(x_close) if x_close >= 1e-12 else 0.0
            x_new[straggler] = x_close
        straggler_x = store.x[straggler]

        # Write the post-round state every participant would hold, as
        # column stores. The views' per-round containers are left alone,
        # as in the tree round: ``observe_round`` re-initializes them.
        store.current_round[sel] = round_index
        store.local_cost[sel] = local_p
        store.is_straggler[sel] = False
        store.global_cost[sel] = global_cost
        store.straggler_id[sel] = straggler
        store.x[sel] = x_new[sel]
        if not members.agree:
            # Each participant's ``roster -= missing``: an override of
            # its own holding the survivors.
            survivors = frozenset(parts.tolist())
            store.roster_overrides.update(
                dict.fromkeys(parts.tolist(), survivors)
            )
        if not closed:
            store.x[straggler] = straggler_x
            self.cluster.engine.advance_to(batched.last_arrival)
            raise ProtocolError(
                f"straggler workload went negative ({x_close:.3e}); the verbatim "
                "Eq. (8) cap was insufficient this round"
            )
        # Dead peers' shares were folded into the straggler's closure.
        store.x[fr.nonparticipants] = 0.0
        store.alpha_bar[straggler] = min(
            float(store.alpha_bar[straggler]),
            feasibility_cap(x_close, m),
        )  # line 13 / Eq. (8)
        batched.finish_round(0 if members.agree else m)
        # Results/traces are reporting infrastructure: always float64,
        # NaN for the dead peers, who report no cost.
        local = np.asarray(local, dtype=float)
        local[fr.nonparticipants] = np.nan
        return x_played, local, global_cost, straggler

    def _run_round_event(
        self,
        round_index: int,
        costs: Sequence[CostFunction],
        members: _Membership,
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """One round on the discrete-event engine (the general path)."""
        store = self._store
        participants = members.ids.tolist()
        participant_set = set(participants)
        x_played = self.allocation
        rosters_incomplete = any(
            store.roster_of(i) != participant_set for i in participants
        )
        peers = self.peers
        for i in participants:
            peers[i].observe_round(
                round_index, costs[i], arm_failure_detector=rosters_incomplete
            )
        if self.topology is None:
            budget = 4 * self.num_workers * self.num_workers + 50
        else:
            # Flooding: each of ~2N disseminations crosses each edge at
            # most twice in each direction.
            budget = 16 * self.num_workers * (self.topology.num_edges + 1) + 50
        self.cluster.run(max_events=budget)
        taking_part = np.zeros(self.num_workers, dtype=bool)
        taking_part[members.ids] = True
        store.x[~taking_part] = 0.0  # shares folded into the straggler's closure
        local = np.where(taking_part, store.local_cost, np.nan)
        straggler = int(store.straggler_id[participants[0]])
        global_cost = float(store.global_cost[participants[0]])
        assert straggler >= 0 and not np.isnan(global_cost)
        # Every participating peer must have reached the same view.
        seen = store.straggler_id[members.ids]
        disagree = np.flatnonzero(
            (seen != straggler) | (store.global_cost[members.ids] != global_cost)
        )
        if disagree.size:
            i = int(disagree[0])
            raise ProtocolError(
                f"peers disagree on the round outcome: peer {participants[i]} "
                f"sees straggler {int(seen[i])}, expected {straggler}"
            )
        return x_played, local, global_cost, straggler

    #: Routes in preference order: a round takes the first whose check
    #: accepts it (see :mod:`repro.protocols.routes`).
    ROUTES = (
        Route("tree", _check_tree, _run_round_tree),
        Route("flat", _check_flat, _run_round_fast),
        Route("detect", _check_detect, _run_round_fast),
        Route("event", always, _run_round_event),
    )

    def run_round(
        self, round_index: int, costs: Sequence[CostFunction]
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """Execute one round on the first route of :attr:`ROUTES` that
        accepts it; returns (x_played, l, l_t, s_t).

        Membership is resolved once per epoch (:meth:`_resolve_membership`).
        A later round of the epoch reuses it while a batched route is
        possible at all: with no chaos hooks, no partition and no
        stalled peers, the primary component and the rosters are
        exactly what the epoch's first round left them, since every
        membership event empties the cache and so does every detection
        or event round (both rewrite rosters or peer state)."""
        if len(costs) != self.num_workers:
            raise ConfigurationError(
                f"round {round_index}: {len(costs)} costs for {self.num_workers} workers"
            )
        tracer = self.tracer
        if tracer is not None:
            self.cluster.trace_round = round_index
            engine = self.cluster.engine
            start_time = engine.now
            start_events = engine.processed_events
            roster_before = self.roster
        members, blocked = self._membership, self._batch_refusal()
        if members is None or blocked is not None:
            members = self._membership = self._resolve_membership(round_index)
            blocked = self._batch_refusal()  # resolution may stall peers
        route, self.last_route = choose_route(self.ROUTES, self, members, blocked)
        self.route_counts[route.name] += 1
        if route.name in ("detect", "event"):
            self._membership = None
        with round_span(self.profiler, route):
            result = route.run(self, round_index, costs, members)
        self._ledger_book.record(
            LedgerEntry(round_index, int(result[3]), float(result[2]), members.ids)
        )
        if tracer is not None:
            roster_after = self.roster
            if roster_after != roster_before:
                emit_membership(
                    tracer, round_index, "roster_change",
                    sorted(set(roster_before) ^ set(roster_after)),
                    roster_after,
                )
            emit_round(
                tracer, round_index, result[0], result[1], result[2],
                result[3], self.allocation, start_time, start_events,
                self.cluster.engine,
            )
        return result

    def run(self, process: CostProcess, horizon: int) -> RunResult:
        """Drive the protocol for ``horizon`` rounds (see
        :func:`repro.core.loop.run_protocol`)."""
        return run_protocol(self, process, horizon)
