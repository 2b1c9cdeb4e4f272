"""Round ledgers: the durable per-round history a worker must not lose.

Every protocol round ends in agreement — a straggler, a global cost, a
roster. The *round ledger* is that agreement made durable: an
append-only sequence of :class:`LedgerEntry` rows, one per completed
round. The protocol keeps one authoritative ledger, and every worker
keeps its own replica covering the rounds it participated in.

The ledgers exist for the rolling-restart story (see
``docs/checkpointing.md``). A plain crash loses the worker's replica —
process memory is gone — and a plain rejoin starts an empty one. A
*restart* (checkpoint, die, resume) must preserve it: the restarted
worker's replica is required to be a **prefix-consistent extension** of
the authoritative ledger — every entry it holds agrees exactly with the
authority's entry for the same round, with a gap only where the worker
was down. :func:`prefix_consistency_violations` is that check; the
chaos invariant layer runs it every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "LedgerEntry",
    "RoundLedger",
    "prefix_consistency_violations",
]


@dataclass(frozen=True)
class LedgerEntry:
    """One agreed round: what every participant must remember about it."""

    round_index: int
    straggler: int
    global_cost: float
    roster: tuple[int, ...]

    def to_dict(self) -> dict:
        """JSON-able form (checkpoint snapshots)."""
        return {
            "round_index": int(self.round_index),
            "straggler": int(self.straggler),
            "global_cost": float(self.global_cost),
            "roster": list(self.roster),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LedgerEntry":
        return cls(
            round_index=int(data["round_index"]),
            straggler=int(data["straggler"]),
            global_cost=float(data["global_cost"]),
            roster=tuple(int(w) for w in data["roster"]),
        )


class RoundLedger:
    """Append-only, strictly round-ordered sequence of entries."""

    def __init__(self, entries: Iterable[LedgerEntry] = ()) -> None:
        self._entries: list[LedgerEntry] = []
        for entry in entries:
            self.append(entry)

    def append(self, entry: LedgerEntry) -> None:
        """Append ``entry``; rounds must be strictly increasing."""
        if self._entries and entry.round_index <= self._entries[-1].round_index:
            raise ValueError(
                f"ledger rounds must be strictly increasing: "
                f"{entry.round_index} after {self._entries[-1].round_index}"
            )
        self._entries.append(entry)

    def replicate(self, entry: LedgerEntry) -> None:
        """Append ``entry`` without the monotonicity check.

        For replica fan-out of an entry the *authoritative* ledger just
        validated (the FD tree round appends one entry to N
        replicas per round; re-running the check N times is pure
        overhead). Callers must only pass entries that
        :meth:`append` on the authoritative ledger accepted for the
        same round — the replica stays strictly round-ordered because
        it receives a subsequence of an ordered stream.
        """
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    @property
    def last_round(self) -> int | None:
        """The most recent recorded round, or ``None`` when empty."""
        return self._entries[-1].round_index if self._entries else None

    def entry_for(self, round_index: int) -> LedgerEntry | None:
        """The entry for ``round_index``, or ``None`` if absent."""
        for entry in reversed(self._entries):
            if entry.round_index == round_index:
                return entry
            if entry.round_index < round_index:
                return None
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        """One entry, or a slice of them as a list: reads no more of
        the ledger than they return, unlike :attr:`entries`."""
        return self._entries[index]

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundLedger):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        span = (
            f"rounds {self._entries[0].round_index}..{self._entries[-1].round_index}"
            if self._entries
            else "empty"
        )
        return f"RoundLedger({len(self._entries)} entries, {span})"

    def to_records(self) -> list[dict]:
        """JSON-able form (checkpoint snapshots)."""
        return [entry.to_dict() for entry in self._entries]

    @classmethod
    def from_records(cls, records: Sequence[Mapping]) -> "RoundLedger":
        return cls(LedgerEntry.from_dict(record) for record in records)


def prefix_consistency_violations(
    replica: RoundLedger,
    authority: RoundLedger,
    *,
    preserved_prefix: Sequence[LedgerEntry] | None = None,
) -> list[str]:
    """Why ``replica`` is not a prefix-consistent extension of ``authority``.

    Returns an empty list when every entry the replica holds agrees
    exactly with the authority's entry for the same round (gaps are
    fine — the worker was down). With ``preserved_prefix`` (what a
    restarted worker carried through its checkpoint), the replica must
    additionally *start with* exactly those entries: a restart that
    silently dropped or rewrote pre-crash history is a violation even
    if the surviving entries happen to agree.
    """
    problems: list[str] = []
    by_round = {entry.round_index: entry for entry in authority}
    for entry in replica:
        authoritative = by_round.get(entry.round_index)
        if authoritative is None:
            problems.append(
                f"replica has round {entry.round_index} unknown to the authority"
            )
        elif authoritative != entry:
            problems.append(
                f"replica disagrees with authority at round {entry.round_index}: "
                f"{entry} != {authoritative}"
            )
    if preserved_prefix is not None:
        held = replica.entries[: len(preserved_prefix)]
        if held != tuple(preserved_prefix):
            problems.append(
                f"restart lost its pre-crash ledger prefix "
                f"({len(preserved_prefix)} entries expected, replica starts "
                f"with {len(held)})"
            )
    return problems
