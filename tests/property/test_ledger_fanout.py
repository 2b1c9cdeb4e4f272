"""``LedgerBook``'s vectorized fan-out against per-worker replica lists.

Every FD round appends one entry to the authoritative ledger and fans it
out to the round's participants. The book keeps span-backed replicas and
materializes a worker only when its replica stops being one contiguous
run (a round it missed, a restored prefix). Whatever the mix of fan-outs,
crash wipes and restores, every replica must read exactly the entries a
plain per-worker list would hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ledger import LedgerEntry, RoundLedger
from repro.core.peerstore import LedgerBook

N = 6

_step = st.one_of(
    st.tuples(st.just("round"), st.sets(st.integers(0, N - 1), min_size=1)),
    st.tuples(st.just("wipe"), st.integers(0, N - 1)),
    st.tuples(st.just("restore"), st.integers(0, N - 1), st.integers(0, 8)),
)


@given(st.lists(_step, max_size=40))
@settings(max_examples=150, deadline=None)
def test_fanout_matches_per_worker_lists(steps):
    authority = RoundLedger()
    book = LedgerBook(N, authority)
    expected = {w: [] for w in range(N)}
    for step in steps:
        if step[0] == "round":
            ids = np.array(sorted(step[1]), dtype=np.int64)
            entry = LedgerEntry(len(authority) + 1, int(ids[0]), 1.0,
                                tuple(ids.tolist()))
            authority.append(entry)
            book.fanout(ids, entry)
            for w in ids.tolist():
                expected[w].append(entry)
        elif step[0] == "wipe":
            book.wipe(step[1])
            expected[step[1]] = []
        else:  # restore a prefix of the worker's replica, or of the authority
            _, worker, keep = step
            source = expected[worker] or list(authority)
            entries = source[:keep]
            book.restore_replica(worker, entries)
            expected[worker] = list(entries)
        for w in range(N):
            assert list(book.worker_ledger(w)) == expected[w], (step, w)
