"""System invariants that must survive every chaos round.

The checks encode what "the protocol is still correct" means under
faults, independently of the allocation's optimality:

1. **Simplex on the live roster.** The allocation sums to 1 over the
   protocol's roster, every share is non-negative, and deposed workers
   (dead or stalled) hold exactly 0.
2. **Agreement.** Every rostered participant reached the same straggler
   and global cost this round; in the fully-distributed architecture
   every participant's local roster equals the controller's.
3. **Liveness of the clock.** The round processed events and virtual
   time strictly advanced (a round that moves no messages is a
   deadlock in disguise; run soaks with positive link latency).
4. **No silent drops.** Unhandled tags raise ``ProtocolError`` at the
   node layer, so any swallowed exception would surface as a missing
   round outcome — checked via the returned global cost/straggler.
5. **Batched rounds skip no fault semantics.** The batched paths
   (:mod:`repro.net.batch`) reproduce the event engine only where its
   outcome is fixed by the link delays: no chaos hook is active, and
   every worker the roster lacks is dead — a crash the survivors agree
   on, or the failure detection that makes them agree (FD). A batched
   round (``protocol.last_route`` names any route but ``event``) is
   flagged when chaos hooks were active, when the roster shrank over the round
   by a worker that was alive when it began, or — flat rounds — when a
   live worker was off the roster (a stalled peer needs the event
   engine). :class:`RoundObservation` records the roster and the
   liveness flags before the round for these checks.
6. **Ledger prefix consistency.** The authoritative round ledger
   recorded this round's outcome, and every rostered worker's replica
   is a prefix-consistent extension of it — including workers that came
   back from a ``restart`` fault, whose replicas must begin with the
   exact prefix they checkpointed before dying (pass the injector's
   ``restart_prefixes`` so the checker can pin them).
7. **Tree overlay consistency.** When the round ran the hierarchical
   aggregation path (the ``tree`` route), the overlay the
   protocol used must be a valid partition of the live roster — every
   rostered worker in exactly one shard, heads the lowest member of
   their shard, parent links acyclic — and must equal the
   deterministic rebuild from the same roster (every survivor derives
   the identical overlay without communication, the tree analogue of
   roster agreement). Tree rounds are *allowed* on a degraded roster:
   the overlay is rebuilt from whatever quorum survives, so invariant
   5's live-workers-on-the-roster requirement applies only to flat
   batched rounds. Chaos hooks still disqualify both paths.
   The check is dtype-agnostic: tree rounds (the fused-kernel path of
   :mod:`repro.backend.kernels`) expose the ``last_tree`` overlay and
   write the peer fields this checker reads in either backend dtype.

``check_round_invariants`` returns human-readable violation strings
(empty list = healthy); :func:`assert_round_invariants` raises
:class:`~repro.exceptions.InvariantViolation` instead, for use as a
property-based testing oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvariantViolation

__all__ = [
    "RoundObservation",
    "check_round_invariants",
    "assert_round_invariants",
]

_ATOL = 1e-9


class RoundObservation:
    """Pre-round engine state to diff against after the round."""

    def __init__(self, protocol) -> None:
        engine = protocol.cluster.engine
        self.time_before = engine.now
        self.events_before = engine.processed_events
        self.roster_before = frozenset(protocol.roster)
        self.alive_before = np.array(protocol._alive, dtype=bool)


def check_round_invariants(
    protocol,
    observation: RoundObservation,
    round_index: int,
    local: np.ndarray,
    global_cost: float,
    straggler: int,
    restart_prefixes: dict[int, Sequence] | None = None,
) -> list[str]:
    """Check every invariant after ``run_round``; return violations."""
    violations: list[str] = []
    roster = list(protocol.roster)
    allocation = np.asarray(protocol.allocation, dtype=float)
    num_workers = allocation.size
    on_roster = np.zeros(num_workers, dtype=bool)
    on_roster[roster] = True

    def violated(message: str) -> None:
        violations.append(f"round {round_index}: {message}")

    # 1. simplex on the live roster
    if not roster:
        violated("empty roster")
        return violations
    live_sum = float(allocation[roster].sum())
    if abs(live_sum - 1.0) > _ATOL:
        violated(f"live allocation sums to {live_sum!r}, not 1")
    if (allocation < -1e-12).any():
        worst = int(np.argmin(allocation))
        violated(f"worker {worst} holds negative share {allocation[worst]!r}")
    for worker in np.flatnonzero(~on_roster & (allocation != 0.0)).tolist():
        violated(f"deposed worker {worker} still holds {allocation[worker]!r}")

    # 2. agreement on the round outcome and the roster
    if not 0 <= straggler < num_workers or not on_roster[straggler]:
        violated(f"straggler {straggler} is not on the roster {roster}")
    if not np.isfinite(global_cost):
        violated(f"global cost is not finite: {global_cost!r}")
    peers = getattr(protocol, "peers", None)
    if peers is not None:  # fully-distributed: per-peer replicated state
        roster_set = frozenset(roster)
        agreed = None  # peers share one roster object; compare it once
        for worker in roster:
            peer = peers[worker]
            if peer.roster is not agreed:
                if peer.roster != roster_set:
                    violated(
                        f"peer {worker} roster {sorted(peer.roster)} != {roster}"
                    )
                else:
                    agreed = peer.roster
            if peer.straggler_id != straggler:
                violated(
                    f"peer {worker} disagrees on the straggler "
                    f"({peer.straggler_id} vs {straggler})"
                )
            if peer.global_cost != global_cost:
                violated(
                    f"peer {worker} disagrees on the global cost "
                    f"({peer.global_cost!r} vs {global_cost!r})"
                )
    else:  # master-worker: the master's view is authoritative
        master = protocol.master
        if master.straggler != straggler or master.global_cost != global_cost:
            violated("master state disagrees with the round outcome")

    # 3. the virtual clock advanced and events flowed
    engine = protocol.cluster.engine
    if engine.processed_events <= observation.events_before:
        violated("round processed no events (deadlock?)")
    if engine.now < observation.time_before:
        violated("virtual time went backwards")
    elif engine.now == observation.time_before:
        violated(
            "virtual time did not advance (run chaos soaks with links "
            "of positive latency)"
        )

    # 5. batched rounds run chaos-free and lose only dead workers; a
    # *flat* one additionally has no live worker off the roster (tree
    # rounds rebuild the overlay from the surviving quorum).
    route = protocol.last_route.name
    took_fast_path = route != "event"
    took_tree_path = route == "tree"
    if took_fast_path:
        if protocol.cluster.chaos_active:
            violated(
                "the batched fast path ran while chaos hooks were active "
                "(fault semantics would be skipped)"
            )
        alive_before = observation.alive_before
        for worker in sorted(observation.roster_before - set(roster)):
            if alive_before[worker]:
                violated(
                    f"the batched fast path dropped worker {worker} from "
                    "the roster although it was alive"
                )
        if not took_tree_path:
            live_off_roster = sorted(
                set(np.flatnonzero(alive_before).tolist()) - set(roster)
            )
            if live_off_roster:
                violated(
                    f"the batched fast path ran without live workers "
                    f"{live_off_roster} on the roster "
                    f"({len(roster)}/{num_workers} workers)"
                )

    # 7. tree rounds used a valid, deterministically-rebuildable overlay
    if took_tree_path:
        tree = protocol.last_tree
        if tree is None:
            violated("a tree round ran but the protocol kept no overlay")
        else:
            for problem in tree.validate(sorted(roster)):
                violated(f"aggregation tree: {problem}")
            from repro.net.aggtree import AggregationTree

            rebuilt = AggregationTree.build(
                sorted(roster),
                shard_size=tree.shard_size,
                branching=tree.branching,
            )
            if not rebuilt.has_shards(tree.ids, tree.offsets):
                violated(
                    "aggregation tree is not the deterministic rebuild of "
                    "the live roster (survivors would disagree on shards)"
                )

    # 4. every rostered worker produced a cost; nobody else did
    reported = np.isfinite(np.asarray(local, dtype=float))
    for worker in np.flatnonzero(on_roster != reported).tolist():
        if on_roster[worker]:
            violated(f"rostered worker {worker} reported no cost")
        else:
            violated(f"deposed worker {worker} reported a cost")

    # 6. the round ledger agrees and every replica extends it
    ledger = getattr(protocol, "ledger", None)
    if ledger is not None:
        entry = ledger.entry_for(round_index)
        if entry is None:
            violated("the authoritative ledger has no entry for this round")
        else:
            if (
                entry.straggler != int(straggler)
                or entry.global_cost != float(global_cost)
                or not np.array_equal(entry.roster, roster)  # both ascending
            ):
                violated(
                    "the authoritative ledger entry disagrees with the "
                    f"round outcome ({entry})"
                )
            for problem in protocol._ledger_book.violations(
                roster, round_index, restart_prefixes
            ):
                violated(problem)
    return violations


def assert_round_invariants(
    protocol,
    observation: RoundObservation,
    round_index: int,
    local: np.ndarray,
    global_cost: float,
    straggler: int,
    restart_prefixes: dict[int, Sequence] | None = None,
) -> None:
    """Raise :class:`InvariantViolation` when any invariant breaks."""
    violations = check_round_invariants(
        protocol, observation, round_index, local, global_cost, straggler,
        restart_prefixes=restart_prefixes,
    )
    if violations:
        raise InvariantViolation("; ".join(violations))
