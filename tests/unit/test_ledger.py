"""Unit tests for round ledgers and prefix consistency."""

import numpy as np
import pytest

from repro.core.ledger import (
    LedgerBook,
    LedgerEntry,
    RosterTable,
    RoundLedger,
    prefix_consistency_violations,
)


def _entry(t, straggler=0, cost=1.0, roster=(0, 1, 2)):
    return LedgerEntry(
        round_index=t, straggler=straggler, global_cost=cost,
        roster=tuple(roster),
    )


class TestLedgerEntry:
    def test_dict_roundtrip(self):
        entry = _entry(7, straggler=2, cost=3.25, roster=(0, 2))
        assert LedgerEntry.from_dict(entry.to_dict()) == entry

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _entry(1).round_index = 2


class TestRoundLedger:
    def test_append_only_strictly_increasing(self):
        ledger = RoundLedger()
        ledger.append(_entry(1))
        ledger.append(_entry(3))  # gaps are fine (the worker was down)
        with pytest.raises(ValueError):
            ledger.append(_entry(3))
        with pytest.raises(ValueError):
            ledger.append(_entry(2))

    def test_entry_for(self):
        ledger = RoundLedger([_entry(1), _entry(3)])
        assert ledger.entry_for(3) == _entry(3)
        assert ledger.entry_for(2) is None
        assert ledger.entry_for(99) is None

    def test_last_round_and_len(self):
        assert RoundLedger().last_round is None
        ledger = RoundLedger([_entry(1), _entry(2)])
        assert ledger.last_round == 2
        assert len(ledger) == 2

    def test_records_roundtrip(self):
        ledger = RoundLedger([_entry(1), _entry(4, straggler=1)])
        assert RoundLedger.from_records(ledger.to_records()) == ledger


class TestPrefixConsistency:
    def test_identical_replica_is_consistent(self):
        authority = RoundLedger([_entry(t) for t in range(1, 6)])
        replica = RoundLedger(authority.entries)
        assert prefix_consistency_violations(replica, authority) == []

    def test_gaps_are_fine(self):
        authority = RoundLedger([_entry(t) for t in range(1, 6)])
        replica = RoundLedger([_entry(1), _entry(2), _entry(5)])
        assert prefix_consistency_violations(replica, authority) == []

    def test_unknown_round_is_flagged(self):
        authority = RoundLedger([_entry(1)])
        replica = RoundLedger([_entry(1), _entry(2)])
        problems = prefix_consistency_violations(replica, authority)
        assert any("unknown to the authority" in p for p in problems)

    def test_disagreement_is_flagged(self):
        authority = RoundLedger([_entry(1, cost=1.0)])
        replica = RoundLedger([_entry(1, cost=2.0)])
        problems = prefix_consistency_violations(replica, authority)
        assert any("disagrees with authority at round 1" in p for p in problems)

    def test_preserved_prefix_enforced(self):
        authority = RoundLedger([_entry(t) for t in range(1, 6)])
        prefix = authority.entries[:2]
        kept = RoundLedger([_entry(1), _entry(2), _entry(5)])
        assert (
            prefix_consistency_violations(
                kept, authority, preserved_prefix=prefix
            )
            == []
        )
        # A restart that silently dropped its pre-crash history is a
        # violation even though the surviving entries agree.
        dropped = RoundLedger([_entry(5)])
        problems = prefix_consistency_violations(
            dropped, authority, preserved_prefix=prefix
        )
        assert any("lost its pre-crash ledger prefix" in p for p in problems)


    def test_prefix_longer_than_the_replica_is_flagged(self):
        authority = RoundLedger([_entry(t) for t in range(1, 6)])
        short = RoundLedger(authority.entries[:2])
        assert prefix_consistency_violations(
            short, authority, preserved_prefix=authority.entries[:3]
        ) == [
            "restart lost its pre-crash ledger prefix (3 entries expected, "
            "replica starts with 2)"
        ]


class TestReplicate:
    def test_replicate_appends_without_validation(self):
        authority = RoundLedger()
        replica = RoundLedger()
        for t in (1, 2, 5):
            entry = LedgerEntry(t, straggler=0, global_cost=1.0, roster=(0, 1))
            authority.append(entry)  # validates
            replica.replicate(entry)  # unchecked fan-out of the same entry
        assert replica == authority
        assert prefix_consistency_violations(replica, authority) == []

    def test_replicated_subsequence_stays_consistent(self):
        # A replica that missed rounds (worker was down) receives a
        # subsequence of the authoritative stream — still valid.
        authority = RoundLedger()
        replica = RoundLedger()
        for t in range(1, 6):
            entry = LedgerEntry(t, straggler=t % 2, global_cost=float(t), roster=(0, 1))
            authority.append(entry)
            if t not in (2, 3):
                replica.replicate(entry)
        assert prefix_consistency_violations(replica, authority) == []
        assert len(replica) == 3


def _book(n=4, rounds=5):
    """A book whose authority holds ``rounds`` rounds of workers 0..n-1."""
    book = LedgerBook(n, RoundLedger())
    ids = np.arange(n, dtype=np.int64)
    for t in range(1, rounds + 1):
        book.record(LedgerEntry(t, t % n, float(t), ids))
    return book


class TestRosterEpochs:
    def test_equal_rosters_share_one_id_array(self):
        table = RosterTable()
        first = table.intern([0, 1, 3])
        assert table.intern(np.array([0, 1, 3])) == first
        assert table.intern((0, 1, 2, 3)) == first + 1
        assert table.find([0, 1]) == -1
        stored = table[first]
        assert not stored.flags.writeable
        assert table.intern(stored) == first  # found by identity

    def test_rows_read_back_with_the_shared_roster(self):
        book = _book()
        ledger = book.authority
        entry = ledger.entry_for(3)
        assert entry == LedgerEntry(3, 3, 3.0, (0, 1, 2, 3))
        assert entry.roster is ledger.entry_for(4).roster
        assert entry.roster is book.worker_ledger(2).entry_for(3).roster
        assert ledger.entry_for(6) is None

    def test_state_round_trip_writes_each_roster_once(self):
        book = _book()
        book.wipe(1)
        book.record(LedgerEntry(6, 0, 6.0, np.array([0, 2, 3])))
        book.record(LedgerEntry(7, 0, 7.0, np.arange(4)))  # the full roster again
        state = book.state()
        assert state["rosters"]["sizes"].tolist() == [4, 3]
        assert state["authority"]["epoch"]["values"].tolist() == [0, 1, 0]
        restored = LedgerBook(4, RoundLedger())
        restored.restore(state)
        assert restored.authority == book.authority
        for w in range(4):
            assert restored.worker_ledger(w) == book.worker_ledger(w)


class TestBookViolations:
    def test_consistent_book_has_none(self):
        book = _book()
        assert book.violations(np.arange(4), 5) == []

    def test_span_past_the_authority_is_reported(self):
        book = _book()
        book.stop[2] = 9
        assert book.violations(np.arange(4), 5) == [
            "worker 2 ledger replica: span [0, 9) points past the "
            "authority's 5 rows"
        ]

    def test_divergent_row_of_a_materialized_replica_is_reported(self):
        book = _book()
        auth = book.authority
        book.restore_replica(1, [auth[0], auth[2], auth[3], auth[4]])  # a gap
        assert set(book.materialized) == {1}
        assert book.violations(np.arange(4), 5) == []
        book.materialized[1]._cost[1] = -1.0  # round 3's cost diverges
        problems = book.violations(np.arange(4), 5)
        assert len(problems) == 1
        assert problems[0].startswith(
            "worker 1 ledger replica: replica disagrees with authority "
            "at round 3:"
        )

    def test_replica_missing_the_round_is_reported(self):
        book = _book()
        book.wipe(3)
        assert book.violations(np.arange(4), 5) == [
            "worker 3 ledger replica is missing this round"
        ]
