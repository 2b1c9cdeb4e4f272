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
membership event. A fresh store's shared roster is the full range, and
its set is built only when some code path needs the object; rounds ask
its size and membership, which the store answers without it.

Per-peer RNG state does not exist in this codebase (all randomness
lives in the link/latency models, captured by :mod:`repro.ckpt.state`);
per-peer *decisions* exist only transiently during event-engine rounds
and live on the hydrated views.

:class:`LedgerBook` (:mod:`repro.core.ledger`, re-exported here) is the
same idea applied to the per-worker ledger replicas.

The store is pure data + numpy — no protocol or network imports — so
it sits in ``repro.core`` below everything that uses it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.ledger import LedgerBook

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
        # The shared roster, or None while it is the unbuilt full range
        # 0..N-1 (see shared_roster).
        self._shared_roster: frozenset[int] | None = roster
        #: Sparse per-peer roster divergence (crash survivors holding a
        #: stale roster, mid-detection shrinks). Empty on every healthy
        #: round — the eligibility checks exploit that.
        self.roster_overrides: dict[int, frozenset[int]] = {}

    # -- rosters ----------------------------------------------------------
    @property
    def shared_roster(self) -> "frozenset[int]":
        """The one frozenset shared by every peer without an override.

        A fresh store's roster is every worker, and its set (62.5 MiB of
        hash table and int objects at N=10⁶) is built on the first read:
        by a peer view, :meth:`rebind_roster` or a failure-detection
        check. Tree and flat rounds ask only :meth:`shared_size` and
        :meth:`in_shared_roster`, which answer without it."""
        roster = self._shared_roster
        if roster is None:
            roster = self._shared_roster = frozenset(range(self.num_workers))
        return roster

    @shared_roster.setter
    def shared_roster(self, roster: "frozenset[int]") -> None:
        self._shared_roster = roster

    def shared_size(self) -> int:
        """``len(shared_roster)``, without building the set."""
        roster = self._shared_roster
        return self.num_workers if roster is None else len(roster)

    def in_shared_roster(self, worker: int) -> bool:
        """``worker in shared_roster``, without building the set."""
        roster = self._shared_roster
        if roster is None:
            return 0 <= worker < self.num_workers
        return worker in roster

    def roster_of(self, worker: int) -> "frozenset[int]":
        roster = self.roster_overrides.get(worker)
        return self.shared_roster if roster is None else roster

    def set_roster(self, worker: int, roster) -> None:
        """Bind ``worker``'s roster view.

        Binding the shared object (identity, not equality — O(1)) drops
        the override; anything else records a sparse override. An
        unbuilt shared set has not been handed out, so no ``roster`` can
        be it."""
        if roster is self._shared_roster:
            self.roster_overrides.pop(worker, None)
        else:
            self.roster_overrides[worker] = roster

    def rebind_roster(
        self, new_roster: "frozenset[int]", stale_ids: Iterable[int] = ()
    ) -> None:
        """Re-agree the roster for every member of ``new_roster``.

        Members of ``new_roster`` share the new frozenset, while
        ``stale_ids`` (dead/stalled peers — the caller knows them, so
        this never scans all N) keep whatever roster they last saw; only
        they need the old shared set as an object."""
        stale = [int(w) for w in stale_ids]
        if stale:
            old = self.shared_roster
            for worker in stale:
                self.roster_overrides.setdefault(worker, old)
        self._shared_roster = new_roster
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
            "shared_roster": (
                np.arange(self.num_workers, dtype=np.int64)
                if self._shared_roster is None
                else np.array(sorted(self._shared_roster), dtype=np.int64)
            ),
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
        shared = np.asarray(state["shared_roster"])
        if shared.shape == (n,) and np.array_equal(shared, np.arange(n)):
            self._shared_roster = None  # the full range, left unbuilt
        else:
            self._shared_roster = frozenset(int(w) for w in shared.tolist())
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
