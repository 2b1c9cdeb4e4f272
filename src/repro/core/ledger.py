"""Round ledgers: the durable per-round history a worker must not lose.

Every protocol round ends in agreement — a straggler, a global cost, a
roster — and the *round ledger* makes it durable: one row per completed
round. The protocol keeps one authoritative ledger; every worker keeps
a replica of the rounds it took part in. A plain crash loses the
replica; a *restart* (checkpoint, die, resume) must preserve it as a
**prefix-consistent extension** of the authority: every row it holds
equals the authority's row for that round, with gaps only where the
worker was down (:func:`prefix_consistency_violations`, run every chaos
round through :meth:`LedgerBook.violations`; see
``docs/checkpointing.md``).

The history grows O(1) per round:

- :class:`RosterTable` stores each distinct participant set (a
  *membership epoch*) once, as a read-only int64 id array interned by
  content;
- :class:`RoundLedger` keeps its rows as int64 round, int64 straggler,
  float64 cost and int32 epoch columns; a :class:`LedgerEntry` is built
  when a row is read, its ``roster`` the epoch's shared id array;
- :class:`LedgerBook` keeps each worker's replica as a ``[start, stop)``
  span of the authority's rows and materializes a ledger of its own
  only for a replica with a gap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LedgerEntry",
    "RosterTable",
    "RoundLedger",
    "LedgerBook",
    "prefix_consistency_violations",
]


@dataclass(frozen=True, eq=False)
class LedgerEntry:
    """One agreed round. ``roster`` is any ascending int sequence (read
    from a ledger, the epoch's shared id array); equality compares the
    four fields by value."""

    round_index: int
    straggler: int
    global_cost: float
    roster: Sequence[int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LedgerEntry):
            return NotImplemented
        return (
            self.round_index == other.round_index
            and self.straggler == other.straggler
            and self.global_cost == other.global_cost
            and (
                self.roster is other.roster
                or np.array_equal(self.roster, other.roster)
            )
        )

    def __hash__(self) -> int:
        return hash((self.round_index, self.straggler, self.global_cost))

    def to_dict(self) -> dict:
        """JSON-able form (golden ledger records)."""
        return {
            "round_index": int(self.round_index),
            "straggler": int(self.straggler),
            "global_cost": float(self.global_cost),
            "roster": np.asarray(self.roster, dtype=np.int64).tolist(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LedgerEntry":
        return cls(
            int(data["round_index"]), int(data["straggler"]),
            float(data["global_cost"]), tuple(int(w) for w in data["roster"]),
        )


def _digest(ids: np.ndarray) -> bytes:
    return hashlib.blake2b(ids, digest_size=16).digest()


class RosterTable:
    """Epoch -> read-only int64 id array, each distinct set stored once.
    A set is found by content (a digest, then an exact comparison), or
    in O(1) by identity when it is an array the table handed out."""

    def __init__(self) -> None:
        self._ids: list[np.ndarray] = []
        self._by_digest: dict[bytes, int] = {}
        self._by_identity: dict[int, int] = {}

    def __getitem__(self, epoch: int) -> np.ndarray:
        return self._ids[epoch]

    def find(self, ids) -> int:
        """The epoch holding exactly ``ids``, or -1."""
        epoch = self._by_identity.get(id(ids), -1)
        if epoch >= 0 and self._ids[epoch] is ids:
            return epoch
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        epoch = self._by_digest.get(_digest(ids), -1)
        return epoch if epoch >= 0 and np.array_equal(self._ids[epoch], ids) else -1

    def intern(self, ids) -> int:
        """The epoch of ``ids``, added as a read-only copy if new."""
        epoch = self.find(ids)
        if epoch < 0:
            epoch, stored = len(self._ids), np.array(ids, dtype=np.int64)
            stored.flags.writeable = False
            self._ids.append(stored)
            self._by_digest.setdefault(_digest(stored), epoch)
            self._by_identity[id(stored)] = epoch
        return epoch

    def translate(self, other: "RosterTable", epochs: np.ndarray) -> np.ndarray:
        """``other``'s epochs as this table's (-1 where absent)."""
        if other is self:
            return epochs
        unique, inverse = np.unique(epochs, return_inverse=True)
        mapped = [self.find(other[e]) for e in unique.tolist()]
        return np.array(mapped, dtype=np.int64)[inverse]

    def state(self) -> dict:
        sizes = np.array([ids.size for ids in self._ids], dtype=np.int64)
        flat = np.concatenate(self._ids) if self._ids else sizes
        return {"ids": flat, "sizes": sizes}

    @classmethod
    def from_state(cls, state: Mapping) -> "RosterTable":
        table = cls()
        bounds = np.cumsum(np.asarray(state["sizes"], dtype=np.int64))
        flat = np.asarray(state["ids"], dtype=np.int64)
        for ids in np.split(flat, bounds[:-1]) if bounds.size else ():
            table.intern(ids)
        return table


def to_runs(column: np.ndarray, step: int) -> dict:
    """``column`` as runs that advance by ``step`` per row (each run's
    first row and value, and the length): rounds, epochs and row
    numbers change rarely."""
    starts = np.flatnonzero(np.diff(column) != step) + 1
    if column.size:
        starts = np.concatenate(([0], starts))
    return {"starts": starts, "values": column[starts], "length": column.size}


def from_runs(packed: Mapping, step: int, dtype) -> np.ndarray:
    length = int(packed["length"])
    starts = np.asarray(packed["starts"], dtype=np.int64)
    lengths = np.diff(np.append(starts, length))
    offsets = np.arange(length) - np.repeat(starts, lengths)
    values = np.repeat(np.asarray(packed["values"], dtype=np.int64), lengths)
    return (values + step * offsets).astype(dtype)


_DTYPES = (np.int64, np.int64, np.float64, np.int32)  # round, straggler, cost, epoch


class RoundLedger:
    """Append-only, strictly round-ordered rows, kept as columns that
    grow by half when full. ``rosters`` is the epoch table the epoch
    column indexes; a book's replicas share their authority's."""

    def __init__(
        self, entries: Iterable[LedgerEntry] = (), rosters: RosterTable | None = None
    ) -> None:
        self.rosters = RosterTable() if rosters is None else rosters
        self._set_columns(*(np.empty(0, dtype) for dtype in _DTYPES))
        for entry in entries:
            self.append(entry)

    def _set_columns(self, *columns: np.ndarray) -> None:
        self._len = len(columns[0])
        self._round, self._straggler, self._cost, self._epoch = columns

    def _columns(self, rows=slice(None)) -> tuple:
        n = self._len
        columns = self._round, self._straggler, self._cost, self._epoch
        return tuple(column[:n][rows] for column in columns)

    def _push(self, *row) -> None:
        n = self._len
        columns = self._round, self._straggler, self._cost, self._epoch
        if n == self._round.size:
            grow = max(16, n // 2)
            columns = [np.concatenate((c, np.empty(grow, c.dtype))) for c in columns]
            self._set_columns(*columns)
        for column, value in zip(columns, row):
            column[n] = value
        self._len = n + 1

    def append(self, entry: LedgerEntry) -> None:
        """Append ``entry``; rounds must be strictly increasing."""
        last = self.last_round
        if last is not None and entry.round_index <= last:
            raise ValueError(
                f"ledger rounds must be strictly increasing: "
                f"{entry.round_index} after {last}"
            )
        self.replicate(entry)

    def replicate(self, entry: LedgerEntry) -> None:
        """Append without the monotonicity check (the fan-out of an
        entry the authoritative ledger just validated)."""
        self._push(
            entry.round_index, entry.straggler, entry.global_cost,
            self.rosters.intern(entry.roster),
        )

    @property
    def rounds(self) -> np.ndarray:
        return self._round[: self._len]

    def row_of(self, round_index: int) -> int:
        """The row holding ``round_index`` (a search), or -1."""
        i = int(self.rounds.searchsorted(round_index))
        return i if i < self._len and self._round[i] == round_index else -1

    def take(self, rows) -> "RoundLedger":
        """A ledger of the given rows (an index array or a slice), on
        this ledger's roster table."""
        out = RoundLedger(rosters=self.rosters)
        out._set_columns(*self._columns(rows))
        return out

    def rows_equal(self, rows, other: "RoundLedger", other_rows) -> np.ndarray:
        """Row-wise equality of ``self[rows]`` and ``other[other_rows]``."""
        mine, theirs = self._columns(rows), list(other._columns(other_rows))
        theirs[3] = self.rosters.translate(other.rosters, theirs[3])
        return np.logical_and.reduce([a == b for a, b in zip(mine, theirs)])

    def match(self, replica: "RoundLedger") -> tuple[np.ndarray, ...]:
        """Per row of ``replica``: the row of this ledger holding its
        round, whether there is one, and whether the two rows agree."""
        rows = self.rounds.searchsorted(replica.rounds)
        known = rows < self._len
        known[known] = self._round[rows[known]] == replica.rounds[known]
        agree = known.copy()
        agree[known] = self.rows_equal(rows[known], replica, known)
        return rows, known, agree

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self)

    @property
    def last_round(self) -> int | None:
        return int(self._round[self._len - 1]) if self._len else None

    def entry_for(self, round_index: int) -> LedgerEntry | None:
        i = self.row_of(round_index)
        return None if i < 0 else self[i]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> LedgerEntry:
        i = index + self._len if index < 0 else index
        if not 0 <= i < self._len:
            raise IndexError(index)
        return LedgerEntry(
            int(self._round[i]), int(self._straggler[i]),
            float(self._cost[i]), self.rosters[int(self._epoch[i])],
        )

    def __iter__(self) -> Iterator[LedgerEntry]:
        for r, s, c, e in zip(*(column.tolist() for column in self._columns())):
            yield LedgerEntry(r, s, c, self.rosters[e])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundLedger):
            return NotImplemented
        return self._len == other._len and bool(self.match(other)[2].all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        span = f"rounds {self._round[0]}..{self.last_round}" if self._len else "empty"
        return f"RoundLedger({self._len} entries, {span})"

    def to_records(self) -> list[dict]:
        """JSON-able entry records (golden continuations)."""
        return [entry.to_dict() for entry in self]

    @classmethod
    def from_records(cls, records: Sequence[Mapping]) -> "RoundLedger":
        return cls(LedgerEntry.from_dict(record) for record in records)

    def state(self) -> dict:
        """The columns, rounds and epochs as runs (checkpoints); the
        epochs index a roster table its owner writes once."""
        rounds, stragglers, costs, epochs = self._columns()
        return {
            "round": to_runs(rounds, 1), "straggler": stragglers.copy(),
            "cost": costs.copy(), "epoch": to_runs(epochs, 0),
        }

    @classmethod
    def from_state(cls, state: Mapping, rosters: RosterTable) -> "RoundLedger":
        out = cls(rosters=rosters)
        out._set_columns(
            from_runs(state["round"], 1, np.int64),
            np.array(state["straggler"], dtype=np.int64),
            np.array(state["cost"], dtype=np.float64),
            from_runs(state["epoch"], 0, np.int32),
        )
        return out

    @classmethod
    def from_legacy(
        cls, packed: Sequence[Mapping], authority: "RoundLedger"
    ) -> "RoundLedger":
        """A replica as snapshots before the column layout packed it:
        ``{"span": [start, end]}`` runs of the authority's rows and
        inline ``{"entry": {...}}`` records, on the authority's table."""
        out = cls(rosters=authority.rosters)
        for item in packed:
            if "span" in item:
                start, end = item["span"]
                for entry in authority.take(slice(int(start), int(end))):
                    out.replicate(entry)
            else:
                out.replicate(LedgerEntry.from_dict(item["entry"]))
        return out


def prefix_consistency_violations(
    replica: RoundLedger,
    authority: RoundLedger,
    *,
    preserved_prefix: Sequence[LedgerEntry] | None = None,
) -> list[str]:
    """Why ``replica`` is not a prefix-consistent extension of ``authority``
    (empty when every row it holds equals the authority's row for that
    round; gaps are fine). With ``preserved_prefix`` (what a restarted
    worker carried through its checkpoint) the replica must also *start
    with* exactly those entries: a restart that dropped or rewrote its
    pre-crash history is a violation even if the survivors agree."""
    problems: list[str] = []
    rows, known, agree = authority.match(replica)
    for i in np.flatnonzero(~agree).tolist():
        entry = replica[i]
        if not known[i]:
            problems.append(
                f"replica has round {entry.round_index} unknown to the authority"
            )
        else:
            problems.append(
                f"replica disagrees with authority at round {entry.round_index}: "
                f"{entry} != {authority[int(rows[i])]}"
            )
    if preserved_prefix is not None:
        prefix = preserved_prefix
        if not isinstance(prefix, RoundLedger):
            prefix = RoundLedger(prefix)
        held = min(len(replica), len(prefix))
        kept = replica.rows_equal(slice(0, held), prefix, slice(0, held))
        if held < len(prefix) or not kept.all():
            problems.append(
                f"restart lost its pre-crash ledger prefix ({len(prefix)} "
                f"entries expected, replica starts with {held})"
            )
    return problems


class LedgerBook:
    """Per-worker replicas of one authoritative ledger, as spans.

    ``start``/``stop`` are ``(N,)`` int64 arrays: worker ``w``'s replica
    is the authority's rows ``[start[w], stop[w])`` (empty when equal:
    a fresh or crash-wiped replica), so appending a round to a million
    replicas is two vectorized array updates. A replica that is not one
    contiguous run (a stall gap, a restored prefix that diverged) is
    *materialized* into a ledger of its own in :attr:`materialized`.
    """

    def __init__(self, num_workers: int, authority: RoundLedger) -> None:
        self.num_workers = int(num_workers)
        self.authority = authority
        self.start = np.zeros(self.num_workers, dtype=np.int64)
        self.stop = np.zeros(self.num_workers, dtype=np.int64)
        self.materialized: dict[int, RoundLedger] = {}

    def worker_ledger(self, worker: int) -> RoundLedger:
        """A materialized worker's live ledger, or its span's rows."""
        ledger = self.materialized.get(worker)
        if ledger is not None:
            return ledger
        return self.authority.take(
            slice(int(self.start[worker]), int(self.stop[worker]))
        )

    def wipe(self, worker: int) -> None:
        """Crash semantics: the replica's process memory is gone."""
        self.materialized.pop(worker, None)
        self.start[worker] = self.stop[worker] = len(self.authority)

    def restore_replica(self, worker: int, entries: Sequence[LedgerEntry]) -> None:
        """Reload a replica (a restart's recovery): one contiguous run of
        the authority becomes a span again, anything else materializes."""
        self.materialized.pop(worker, None)
        auth = self.authority
        if isinstance(entries, RoundLedger) and entries.rosters is auth.rosters:
            replica = entries.take(slice(None))
        else:
            replica = RoundLedger(entries, rosters=auth.rosters)
        if not len(replica):
            self.wipe(worker)
            return
        lo = int(auth.rounds.searchsorted(replica.rounds[0]))
        hi = lo + len(replica)
        if hi <= len(auth) and auth.rows_equal(
            slice(lo, hi), replica, slice(None)
        ).all():
            self.start[worker], self.stop[worker] = lo, hi
        else:
            self.materialized[worker] = replica

    def record(self, entry: LedgerEntry) -> None:
        """Append a round to the authority and fan it out to its roster."""
        self.authority.append(entry)
        self.fanout(entry.roster, entry)

    def fanout(self, ids: np.ndarray, entry: LedgerEntry) -> None:
        """Replicate ``entry`` — the authority's last row — to every
        worker of the ascending id array ``ids``: O(1) per span-backed
        worker, vectorized."""
        auth = self.authority
        length = len(auth)
        assert auth.last_round == entry.round_index
        if self.materialized:
            # Materialized workers peel off to their own ledgers.
            mat = np.fromiter(sorted(self.materialized), dtype=np.int64)
            pos = np.searchsorted(ids, mat)
            hit = (pos < ids.size) & (ids[np.minimum(pos, ids.size - 1)] == mat)
            for worker in mat[hit].tolist():
                self._copy_last(self.materialized[worker])
            ids = np.delete(ids, pos[hit])
        empty = self.start[ids] == self.stop[ids]
        self.start[ids[empty]] = length - 1
        extend = empty | (self.stop[ids] == length - 1)
        self.stop[ids[extend]] = length
        for worker in ids[~extend].tolist():  # a gap opened (stall)
            replica = self.materialized[worker] = self.worker_ledger(worker)
            self._copy_last(replica)

    #: The benchmark's layer tracer patches both names of the fan-out.
    fanout_ids = fanout

    def _copy_last(self, replica: RoundLedger) -> None:
        replica._push(*(column[-1] for column in self.authority._columns()))

    def violations(
        self,
        workers: np.ndarray,
        round_index: int,
        prefixes: Mapping[int, Sequence[LedgerEntry]] | None = None,
    ) -> list[str]:
        """Why the replicas of ``workers`` are not prefix-consistent
        extensions of the authority holding ``round_index``, by worker
        ascending. A span holds the authority's own rows, so it is
        checked by its bounds alone, vectorized; only materialized
        replicas and restart ``prefixes`` are compared row by row."""
        auth = self.authority
        n, row = len(auth), auth.row_of(round_index)
        prefixes = prefixes or {}
        workers = np.asarray(workers, dtype=np.int64)
        start, stop = self.start[workers], self.stop[workers]
        outside = (start < 0) | (start > row) | (stop <= row) | (stop > n)
        flagged = set(workers[outside].tolist())
        rostered = np.zeros(self.num_workers, dtype=bool)
        rostered[workers] = True
        flagged.update(w for w in (*self.materialized, *prefixes) if rostered[w])
        problems: list[str] = []
        for worker in sorted(flagged):
            replica = self.materialized.get(worker)
            if replica is None:
                lo, hi = int(self.start[worker]), int(self.stop[worker])
                if not 0 <= lo <= hi <= n:
                    problems.append(
                        f"worker {worker} ledger replica: span [{lo}, {hi}) "
                        f"points past the authority's {n} rows"
                    )
                    continue
                replica = auth.take(slice(lo, hi))
            problems.extend(
                f"worker {worker} ledger replica: {problem}"
                for problem in prefix_consistency_violations(
                    replica, auth, preserved_prefix=prefixes.get(worker)
                )
            )
            if replica.row_of(round_index) < 0:
                problems.append(f"worker {worker} ledger replica is missing this round")
        return problems

    def state(self) -> dict:
        """The roster table once, the authority's columns, the spans and
        each materialized replica's columns."""
        return {
            "rosters": self.authority.rosters.state(),
            "authority": self.authority.state(),
            "start": self.start.copy(),
            "stop": self.stop.copy(),
            "materialized": {
                int(w): r.state() for w, r in sorted(self.materialized.items())
            },
        }

    def _load(self, ledger: RoundLedger, start, stop) -> None:
        # In place: the protocol's ``ledger`` attribute stays the authority.
        self.authority.rosters = ledger.rosters
        self.authority._set_columns(*ledger._columns())
        start, stop = np.asarray(start, np.int64), np.asarray(stop, np.int64)
        if start.shape != (self.num_workers,) or stop.shape != start.shape:
            raise ValueError("ledger span arrays have the wrong shape")
        self.start[:], self.stop[:] = start, stop
        self.materialized = {}

    def restore(self, state: Mapping) -> None:
        """Inverse of :meth:`state`."""
        rosters = RosterTable.from_state(state["rosters"])
        authority = RoundLedger.from_state(state["authority"], rosters)
        self._load(authority, state["start"], state["stop"])
        for w, s in state["materialized"].items():
            self.materialized[int(w)] = RoundLedger.from_state(s, rosters)

    def restore_legacy(self, state: Mapping) -> None:
        """Load a snapshot from before the column layout: ``ledger`` (a
        record per entry, roster included), ``worker_ledgers`` (packed
        replicas, :meth:`RoundLedger.from_legacy`) and, once replicas
        were spans, ``worker_ledger_spans``. Rosters are interned."""
        spans = state.get("worker_ledger_spans")
        empty = np.zeros(self.num_workers, dtype=np.int64)
        self._load(
            RoundLedger.from_records(state["ledger"]),
            empty if spans is None else spans["start"],
            empty if spans is None else spans["stop"],
        )
        for worker, rows in state["worker_ledgers"].items():
            replica = RoundLedger.from_legacy(rows, self.authority)
            if spans is not None:
                self.materialized[int(worker)] = replica
            else:  # per-replica lists: FD object peers, MW before spans
                self.restore_replica(int(worker), replica)
