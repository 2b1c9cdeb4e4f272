"""Apply fault schedules to a running protocol at round boundaries.

The :class:`ChaosInjector` is the bridge between the pure-data
:class:`~repro.chaos.faults.FaultSchedule` and the live system: call
:meth:`ChaosInjector.apply` immediately before ``protocol.run_round(t,
...)`` and it expires elapsed transient faults, then applies every event
scheduled for round ``t`` through the protocol's public recovery API
(``crash_worker`` / ``rejoin_worker``) and the cluster's chaos hooks
(partition, extra delay, frame-loss override).

Architecture note: partitions are injected identically for both
protocols (the cluster blackholes cross-group frames). The
fully-distributed protocol re-merges healed peers itself during
``run_round``; the master-worker protocol cannot (a worker the master
declared dead must be explicitly re-admitted), so on ``heal`` the
injector re-joins every alive-but-deposed worker on the master's
behalf — the operator's "kick the node back into the fleet" action.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.faults import FaultEvent, FaultSchedule
from repro.core.ledger import RoundLedger
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Drives one protocol instance through a fault schedule."""

    def __init__(self, protocol, schedule: FaultSchedule) -> None:
        """``protocol`` is a :class:`~repro.protocols.master_worker.
        MasterWorkerDolbie` or :class:`~repro.protocols.fully_distributed.
        FullyDistributedDolbie` (anything exposing ``cluster``,
        ``alive_workers``, ``roster``, ``crash_worker`` and
        ``rejoin_worker``)."""
        for attr in ("cluster", "alive_workers", "roster",
                     "crash_worker", "rejoin_worker",
                     "worker_ledger", "restore_worker_ledger"):
            if not hasattr(protocol, attr):
                raise ConfigurationError(
                    f"protocol {type(protocol).__name__} lacks {attr!r}; "
                    "it cannot be chaos-injected"
                )
        self.protocol = protocol
        self.schedule = schedule
        self.applied: list[FaultEvent] = []
        #: ``chaos.events{kind=...}`` counters, one per fault kind.
        self.registry = MetricsRegistry()
        #: worker id -> round at which its slowdown expires.
        self._slow_until: dict[int, int] = {}
        #: round at which the active loss burst expires (0 = none).
        self._degrade_until = 0
        #: round -> workers whose restart completes at that boundary.
        self._pending_restarts: dict[int, list[int]] = {}
        #: worker id -> the ledger prefix it checkpointed before dying.
        #: Entries live from the restart fault until the worker is back
        #: (or until a plain crash/rejoin invalidates the restart).
        self.restart_prefixes: dict[int, RoundLedger] = {}

    @property
    def events_applied(self) -> int:
        """Total fault events actually applied so far."""
        return int(self.registry.value("chaos.events_applied"))

    @property
    def event_counts(self) -> dict[str, int]:
        """``{fault kind -> applied count}`` read from the registry."""
        return {
            str(kind): int(count)
            for kind, count in sorted(
                self.registry.series("chaos.events", "kind").items()
            )
        }

    @property
    def cluster(self):
        return self.protocol.cluster

    def apply(self, round_index: int) -> list[FaultEvent]:
        """Expire transients, then apply round ``round_index``'s events.

        Call once per round, before ``run_round``. Returns the events
        actually applied this round (crashes of already-dead workers and
        rejoins of already-active ones are skipped — a randomized
        schedule composed with manual interventions stays valid).
        """
        # Stamp the cluster's fault records with the round about to run.
        self.cluster.trace_round = round_index
        self._expire(round_index)
        self._complete_restarts(round_index)
        applied: list[FaultEvent] = []
        for event in self.schedule.events_at(round_index):
            if self._apply_event(event, round_index):
                applied.append(event)
                self.registry.counter("chaos.events", kind=event.kind).inc()
        if applied:
            self.registry.counter("chaos.events_applied").inc(len(applied))
        self.applied.extend(applied)
        return applied

    # -- internals --------------------------------------------------------
    def _expire(self, round_index: int) -> None:
        for worker, until in list(self._slow_until.items()):
            if round_index >= until:
                self.cluster.set_extra_delay(worker, 0.0)
                del self._slow_until[worker]
        if self._degrade_until and round_index >= self._degrade_until:
            self.cluster.clear_frame_loss()
            self._degrade_until = 0

    def _complete_restarts(self, round_index: int) -> None:
        """Bring restarted workers back, ledger restored from snapshot."""
        for worker in self._pending_restarts.pop(round_index, []):
            prefix = self.restart_prefixes.pop(worker, ())
            if worker in self.protocol.alive_workers:
                # A rejoin event got there first; the restart is moot.
                continue
            self.protocol.rejoin_worker(worker)
            # The point of a restart (vs. a cold crash): the worker's
            # replica of the round ledger survives in its snapshot.
            self.protocol.restore_worker_ledger(worker, prefix)
            # Re-register the preserved prefix so the ledger invariant
            # can keep checking it against the authority after rejoin.
            self.restart_prefixes[worker] = prefix

    def _apply_event(self, event: FaultEvent, round_index: int) -> bool:
        kind = event.kind
        if kind == "crash":
            targets = [
                w for w in event.workers if w in self.protocol.alive_workers
            ]
            for worker in targets:
                self.protocol.crash_worker(worker)
                # A cold crash loses the process memory — any snapshot a
                # previous restart preserved no longer describes the
                # (now empty) replica.
                self.restart_prefixes.pop(worker, None)
            return bool(targets)
        if kind == "rejoin":
            targets = [
                w
                for w in event.workers
                if w not in self.protocol.alive_workers
            ]
            for worker in targets:
                self.protocol.rejoin_worker(worker)
                self.restart_prefixes.pop(worker, None)
            return bool(targets)
        if kind == "restart":
            targets = [
                w for w in event.workers if w in self.protocol.alive_workers
            ]
            for worker in targets:
                # Checkpoint the worker's ledger replica *before* the
                # process dies, then crash it like any other failure.
                self.restart_prefixes[worker] = self.protocol.worker_ledger(
                    worker
                )
                self.protocol.crash_worker(worker)
                self._pending_restarts.setdefault(
                    round_index + event.duration, []
                ).append(worker)
            return bool(targets)
        if kind == "slowdown":
            for worker in event.workers:
                self.cluster.set_extra_delay(worker, event.severity)
                self._slow_until[worker] = max(
                    self._slow_until.get(worker, 0),
                    round_index + event.duration,
                )
            return True
        if kind == "degrade":
            # The drop sampler is salted by (schedule seed, round) so a
            # replayed schedule reproduces the exact same drop sequence.
            rng = np.random.default_rng(
                [self.schedule.seed or 0, event.round_index]
            )
            self.cluster.set_frame_loss(event.severity, rng)
            self._degrade_until = max(
                self._degrade_until, round_index + event.duration
            )
            return True
        if kind == "partition":
            self.cluster.set_partition(event.groups)
            return True
        if kind == "heal":
            self.cluster.clear_partition()
            # Master-worker: re-admit workers the master deposed while
            # they were cut off (their process never died). The
            # fully-distributed protocol re-merges on its own during
            # run_round, so this loop is a no-op there (stalled peers
            # are still listed in alive_workers but absent from roster
            # only for MW-style rosters; FD handles them first).
            if hasattr(self.protocol, "master"):
                roster = set(self.protocol.roster)
                for worker in self.protocol.alive_workers:
                    if worker not in roster:
                        self.protocol.rejoin_worker(worker)
            return True
        raise ConfigurationError(f"unhandled fault kind {kind!r}")
