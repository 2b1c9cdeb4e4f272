"""Struct-of-arrays peer state: the FD protocol's only peer representation.

One python object per worker is small, but N of them is not: at
N=1,000,000 a roster of peer objects costs seconds of pure allocation
and hundreds of megabytes of object headers before the first round runs
— and checkpointing walks every one of them. In Algorithm 2 a peer's
whole per-round state is a handful of scalars, so
``FullyDistributedDolbie`` keeps it in packed columns:

========================  =======================================
peer field                 packed array (dtype, shape ``(N,)``)
========================  =======================================
``x``                      float64 (the simplex allocation)
``alpha_bar``              float64 (Eq. 8 local step size)
``local_cost``             float64, ``NaN`` encodes ``None``
``current_round``          int64
``is_straggler``           bool
``global_cost``            float64, ``NaN`` encodes ``None``
``straggler_id``           int64, ``-1`` encodes ``None``
``failed``                 bool (the Node liveness flag)
``received_count``         int64 (the Node delivery counter)
========================  =======================================

:class:`PeerStore` holds exactly those arrays — O(N) *array*
allocations instead of N python objects — while the protocol keeps a
peer/node API through lazily hydrated flyweight views (``_Peer`` in
:mod:`repro.protocols.fully_distributed`): a view is a real network
node whose scalar fields are :class:`Column` descriptors over the
store's arrays (decoding the ``None`` encodings above), created only
when some code path actually addresses that peer as an
object (the event engine, flooding over a sparse topology, chaos
tooling). A clean tree or flat fast round hydrates **zero** views.

Rosters follow a shared-frozenset contract (one frozenset for
everyone, rebound never mutated): :attr:`PeerStore.shared_roster` plus
a sparse override dict for the transiently divergent peers around a
membership event.

Per-peer RNG state does not exist in this codebase (all randomness
lives in the link/latency models, captured by :mod:`repro.ckpt.state`);
per-peer *decisions* exist only transiently during event-engine rounds
and live on the hydrated views.

:class:`LedgerBook` is the same idea applied to the per-worker ledger
replicas: healthy replicas are contiguous suffixes of the authoritative
ledger, so the book stores one ``[start, stop)`` span pair per worker
(two int64 arrays) and materializes a real :class:`~repro.core.ledger.
RoundLedger` only for workers whose replica left the single-span fast
path (stall-then-rejoin gaps). Appending a round to a million replicas
becomes two vectorized array updates. The span layout is exactly the
``{"span": [start, end]}`` packing :mod:`repro.ckpt.state` already uses
on disk, so checkpoints translate 1:1.

Both classes are pure data + numpy — no protocol or network imports —
so they sit in ``repro.core`` below everything that uses them.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from repro.core.ledger import LedgerEntry, RoundLedger

__all__ = [
    "PeerStore",
    "LedgerBook",
    "Column",
    "NanNoneColumn",
    "NegativeNoneColumn",
]


class PeerStore:
    """Packed per-peer protocol state for one FD roster (see module doc)."""

    def __init__(
        self,
        num_workers: int,
        x0: np.ndarray,
        alpha_bar: float,
        roster: "frozenset[int] | None" = None,
    ) -> None:
        n = int(num_workers)
        self.num_workers = n
        # Protocol scalars are float64 (what the event engine computes
        # in), so the packed columns are float64 regardless of the array
        # backend — the fast paths convert to the backend dtype on read.
        self.x = np.array(x0, dtype=float)
        self.alpha_bar = np.full(n, float(alpha_bar))
        self.local_cost = np.full(n, np.nan)
        self.current_round = np.zeros(n, dtype=np.int64)
        self.is_straggler = np.zeros(n, dtype=bool)
        self.global_cost = np.full(n, np.nan)
        self.straggler_id = np.full(n, -1, dtype=np.int64)
        self.failed = np.zeros(n, dtype=bool)
        self.received_count = np.zeros(n, dtype=np.int64)
        #: The one frozenset shared by every peer without an override —
        #: O(1) roster construction however large N is.
        self.shared_roster: frozenset[int] = (
            roster if roster is not None else frozenset(range(n))
        )
        #: Sparse per-peer roster divergence (crash survivors holding a
        #: stale roster, mid-detection shrinks). Empty on every healthy
        #: round — the eligibility checks exploit that.
        self.roster_overrides: dict[int, frozenset[int]] = {}

    # -- rosters ----------------------------------------------------------
    def roster_of(self, worker: int) -> "frozenset[int]":
        return self.roster_overrides.get(worker, self.shared_roster)

    def set_roster(self, worker: int, roster) -> None:
        """Bind ``worker``'s roster view.

        Binding the shared object (identity, not equality — O(1)) drops
        the override; anything else records a sparse override."""
        if roster is self.shared_roster:
            self.roster_overrides.pop(worker, None)
        else:
            self.roster_overrides[worker] = roster

    def rebind_roster(
        self, new_roster: "frozenset[int]", stale_ids: Iterable[int] = ()
    ) -> None:
        """Re-agree the roster for every member of ``new_roster``.

        Members of ``new_roster`` share the new frozenset, while
        ``stale_ids`` (dead/stalled peers — the caller knows them, so
        this never scans all N) keep whatever roster they last saw."""
        old = self.shared_roster
        for worker in stale_ids:
            self.roster_overrides.setdefault(int(worker), old)
        self.shared_roster = new_roster
        for worker in [w for w in self.roster_overrides if w in new_roster]:
            del self.roster_overrides[worker]

    # -- checkpoint payloads ---------------------------------------------
    def state(self) -> dict:
        """Array-shaped capture (the ``peerstore`` snapshot block)."""
        return {
            "x": self.x.copy(),
            "alpha_bar": self.alpha_bar.copy(),
            "local_cost": self.local_cost.copy(),
            "current_round": self.current_round.copy(),
            "is_straggler": self.is_straggler.copy(),
            "global_cost": self.global_cost.copy(),
            "straggler_id": self.straggler_id.copy(),
            "failed": self.failed.copy(),
            "received_count": self.received_count.copy(),
            "shared_roster": np.array(sorted(self.shared_roster), dtype=np.int64),
            "roster_overrides": {
                int(w): np.array(sorted(r), dtype=np.int64)
                for w, r in sorted(self.roster_overrides.items())
            },
        }

    def restore(self, state) -> None:
        n = self.num_workers
        for field in (
            "x", "alpha_bar", "local_cost", "current_round", "is_straggler",
            "global_cost", "straggler_id", "failed", "received_count",
        ):
            arr = np.asarray(state[field])
            if arr.shape != (n,):
                raise ValueError(
                    f"peerstore field {field!r} has shape {arr.shape}, "
                    f"expected ({n},)"
                )
            getattr(self, field)[:] = arr
        self.shared_roster = frozenset(
            int(w) for w in np.asarray(state["shared_roster"]).tolist()
        )
        self.roster_overrides = {
            int(w): frozenset(int(i) for i in np.asarray(ids).tolist())
            for w, ids in state["roster_overrides"].items()
        }


class Column(property):
    """A view field backed by the same-named :class:`PeerStore` column.

    The owning view keeps its store as ``_store`` and its row as
    ``node_id``. Reads return a python scalar straight from the column
    (``ndarray.item``). The accessors are closures over the field name,
    made once the class body names the field, so the C-level
    ``property.__get__`` calls them directly and a read costs what a
    hand-written property costs: the event engine reads these once or
    more per delivered message. The subclasses decode the table's
    ``None`` encodings.
    """

    def __set_name__(self, owner, name: str) -> None:
        def get(view):
            return getattr(view._store, name).item(view.node_id)

        def set_(view, value):
            getattr(view._store, name)[view.node_id] = value

        property.__init__(self, get, set_)


class NanNoneColumn(Column):
    """A float column in which ``NaN`` encodes ``None``."""

    def __set_name__(self, owner, name: str) -> None:
        def get(view):
            value = getattr(view._store, name).item(view.node_id)
            return None if value != value else value  # the NaN test

        def set_(view, value):
            getattr(view._store, name)[view.node_id] = (
                np.nan if value is None else value
            )

        property.__init__(self, get, set_)


class NegativeNoneColumn(Column):
    """An int column in which ``-1`` encodes ``None``."""

    def __set_name__(self, owner, name: str) -> None:
        def get(view):
            value = getattr(view._store, name).item(view.node_id)
            return None if value < 0 else value

        def set_(view, value):
            getattr(view._store, name)[view.node_id] = (
                -1 if value is None else value
            )

        property.__init__(self, get, set_)


class LedgerBook:
    """Span-compressed per-worker replicas of one authoritative ledger.

    ``start``/``stop`` are ``(N,)`` int64 arrays: worker ``w``'s replica
    is ``authority.entries[start[w]:stop[w]]`` (``start == stop`` means
    empty — a fresh or crash-wiped replica). Workers whose replica is
    not one contiguous run (a stall gap, a restored restart prefix that
    diverged) are *materialized* into real :class:`RoundLedger` objects
    in :attr:`materialized`; everything stays correct, only the O(1)
    fan-out is lost for those few workers.
    """

    def __init__(self, num_workers: int, authority: RoundLedger) -> None:
        self.num_workers = int(num_workers)
        self._authority = authority
        self.start = np.zeros(self.num_workers, dtype=np.int64)
        self.stop = np.zeros(self.num_workers, dtype=np.int64)
        self.materialized: dict[int, RoundLedger] = {}

    @property
    def authority(self) -> RoundLedger:
        return self._authority

    def rebind_authority(self, authority: RoundLedger) -> None:
        """Point the spans at a restored authoritative ledger (the
        checkpoint-restore path replaces the ledger object)."""
        self._authority = authority

    def worker_ledger(self, worker: int) -> RoundLedger:
        """``worker``'s replica.

        Materialized workers return their live ledger object;
        span-backed workers return a *fresh* ledger built from the
        authoritative slice (the entries are the shared, immutable
        entry objects — building the view is O(span length))."""
        ledger = self.materialized.get(worker)
        if ledger is not None:
            return ledger
        replica = RoundLedger()
        lo, hi = int(self.start[worker]), int(self.stop[worker])
        for entry in self._authority[lo:hi]:
            replica.replicate(entry)
        return replica

    def wipe(self, worker: int) -> None:
        """Crash semantics: the replica's process memory is gone."""
        self.materialized.pop(worker, None)
        length = len(self._authority)
        self.start[worker] = length
        self.stop[worker] = length

    def restore_replica(
        self, worker: int, entries: Sequence[LedgerEntry]
    ) -> None:
        """Reload a replica (the restart fault's recovery path).

        A replica that is one contiguous run of the authority collapses
        back onto the span arrays; anything else is materialized."""
        self.materialized.pop(worker, None)
        entries = list(entries)
        auth = self._authority
        if not entries:
            self.wipe(worker)
            return
        lo = bisect.bisect_left(
            auth, entries[0].round_index, key=attrgetter("round_index")
        )
        hi = lo + len(entries)
        if hi <= len(auth) and auth[lo:hi] == entries:
            self.start[worker] = lo
            self.stop[worker] = hi
        else:
            self.materialized[worker] = RoundLedger(entries)

    def _materialize(self, worker: int) -> RoundLedger:
        ledger = self.worker_ledger(worker)
        self.materialized[worker] = ledger
        return ledger

    def fanout(self, ids: np.ndarray, entry: LedgerEntry) -> None:
        """Replicate ``entry`` — already appended to the authority as
        its last element — to every worker of the ascending id array
        ``ids``: O(1) per span-backed worker, vectorized."""
        length = len(self._authority)
        assert self._authority[length - 1] is entry
        if self.materialized:
            # The handful of materialized workers peel off to their own
            # ledgers; ids is ascending so membership is a search.
            mat = np.fromiter(sorted(self.materialized), dtype=np.int64)
            pos = np.searchsorted(ids, mat)
            hit = (pos < ids.size) & (ids[np.minimum(pos, ids.size - 1)] == mat)
            for worker in mat[hit].tolist():
                self.materialized[worker].replicate(entry)
            keep = np.ones(ids.size, dtype=bool)
            keep[pos[hit]] = False
            ids = ids[keep]
        empty = self.start[ids] == self.stop[ids]
        self.start[ids[empty]] = length - 1
        contiguous = self.stop[ids] == length - 1
        extend = empty | contiguous
        self.stop[ids[extend]] = length
        for worker in ids[~extend].tolist():  # a gap opened (stall)
            self._materialize(worker).replicate(entry)

    #: The benchmark's layer tracer patches both names of the fan-out.
    fanout_ids = fanout

    # -- checkpoint payloads ---------------------------------------------
    def spans_state(self) -> dict:
        """The span arrays (materialized workers are packed separately
        by :mod:`repro.ckpt.state`, which owns the replica format)."""
        return {"start": self.start.copy(), "stop": self.stop.copy()}

    def restore_spans(self, state) -> None:
        start = np.asarray(state["start"], dtype=np.int64)
        stop = np.asarray(state["stop"], dtype=np.int64)
        if start.shape != (self.num_workers,) or stop.shape != start.shape:
            raise ValueError("ledger span arrays have the wrong shape")
        self.start[:] = start
        self.stop[:] = stop
