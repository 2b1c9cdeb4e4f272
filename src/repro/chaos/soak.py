"""Soak testing: hundreds of randomized rounds with per-round invariants.

``run_soak`` turns the chaos layer into a property-based correctness
tool: it drives a protocol through a fault schedule for many rounds,
checks every invariant of :mod:`repro.chaos.invariants` after *each*
round, and reports everything needed to (a) assert zero violations and
(b) assert bit-identical reproducibility across runs with the same seed.

A protocol exception mid-soak (e.g. a quorum wiped out by an unsafe
hand-written schedule) is recorded as a violation, not propagated: a
soak's job is to report, and ``raise_on_violation=True`` restores
fail-fast behavior for use inside tests.

Soaks are durable: pass ``checkpoint_every`` and a
:class:`~repro.ckpt.store.CheckpointStore` and the full soak state —
protocol, injector bookkeeping, accumulated report arrays, recorded
trace — is snapshotted at round boundaries; ``resume_from`` continues a
killed soak bit-identically (the kill-resume CI job pins exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.chaos.faults import FaultSchedule
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import RoundObservation, check_round_invariants
from repro.costs.timevarying import CostProcess
from repro.exceptions import CheckpointError, InvariantViolation, ReproError

__all__ = ["SoakReport", "run_soak"]


@dataclass(frozen=True)
class SoakReport:
    """Everything a chaos soak observed."""

    protocol_name: str
    rounds_requested: int
    rounds_completed: int
    violations: tuple[tuple[int, str], ...]  # (round, description)
    events_applied: int
    event_counts: dict[str, int]
    allocations: np.ndarray  # (rounds_completed, N) post-round allocations
    global_costs: np.ndarray  # (rounds_completed,)
    final_roster: tuple[int, ...]
    virtual_time: float
    messages_total: int
    messages_blackholed: int
    resumed_from: int | None = None  # checkpointed round a resume started at

    @property
    def ok(self) -> bool:
        return not self.violations and (
            self.rounds_completed == self.rounds_requested
        )

    @property
    def cumulative_cost(self) -> float:
        return float(self.global_costs.sum())

    def summary(self) -> str:
        """A compact multi-line report (what the CLI prints)."""
        status = "PASS" if self.ok else "FAIL"
        counts = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.event_counts.items())
            if count
        ) or "none"
        resumed = (
            f" (resumed from round {self.resumed_from})"
            if self.resumed_from is not None
            else ""
        )
        lines = [
            f"[{status}] {self.protocol_name}: "
            f"{self.rounds_completed}/{self.rounds_requested} rounds, "
            f"{self.events_applied} fault events ({counts}){resumed}",
            f"  cumulative latency {self.cumulative_cost:.4f}s over "
            f"{self.virtual_time:.3f}s virtual time; "
            f"{self.messages_total} messages "
            f"({self.messages_blackholed} blackholed); "
            f"final roster {list(self.final_roster)}",
            f"  invariant violations: {len(self.violations)}",
        ]
        for round_index, description in self.violations[:10]:
            lines.append(f"    round {round_index}: {description}")
        if len(self.violations) > 10:
            lines.append(f"    ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def _soak_snapshot(
    protocol, injector, schedule, rounds, t,
    allocations, global_costs, violations,
):
    from repro.ckpt.snapshot import Snapshot
    from repro.ckpt.state import capture_injector, capture_protocol
    from repro.obs.diff import canonical_line

    tracer = getattr(protocol, "tracer", None)
    return Snapshot(
        kind="soak",
        round_index=t,
        config={"schedule": schedule.to_spec(), "rounds": int(rounds)},
        state={
            "protocol": capture_protocol(protocol),
            "injector": capture_injector(injector),
            "allocations": np.asarray(allocations[:t]),
            "global_costs": np.asarray(global_costs[:t]),
            "violations": [[int(r), str(m)] for r, m in violations],
            "trace": (
                None
                if tracer is None
                else [canonical_line(r) for r in tracer.records]
            ),
        },
    )


def _restore_soak(protocol, injector, schedule, snapshot,
                  allocations, global_costs):
    import json

    from repro.ckpt.state import restore_injector, restore_protocol
    from repro.obs.records import record_from_dict

    if snapshot.kind != "soak":
        raise CheckpointError(
            f"soak resume needs a 'soak' snapshot, got {snapshot.kind!r}"
        )
    if snapshot.config["schedule"] != schedule.to_spec():
        raise CheckpointError(
            "the snapshot was taken under a different fault schedule; "
            "resuming it here would not reproduce the original soak"
        )
    restore_protocol(protocol, snapshot.state["protocol"])
    restore_injector(injector, snapshot.state["injector"])
    completed = int(snapshot.round_index)
    allocations[:completed] = np.asarray(snapshot.state["allocations"])
    global_costs[:completed] = np.asarray(snapshot.state["global_costs"])
    violations = [
        (int(r), str(m)) for r, m in snapshot.state["violations"]
    ]
    trace_lines = snapshot.state["trace"]
    tracer = getattr(protocol, "tracer", None)
    if trace_lines is not None and tracer is not None:
        tracer.records.clear()
        for line in trace_lines:
            tracer.records.append(record_from_dict(json.loads(line)))
    return completed, violations


def run_soak(
    protocol_factory: Callable[[], object],
    schedule: FaultSchedule,
    process: CostProcess,
    rounds: int,
    *,
    raise_on_violation: bool = False,
    checkpoint_every: int = 0,
    checkpoint_store=None,
    resume_from=None,
    round_hook: Callable[[int, object], None] | None = None,
) -> SoakReport:
    """Soak ``rounds`` rounds of chaos and check invariants after each.

    ``protocol_factory`` builds a *fresh* protocol (so one soak cannot
    leak state into the next and two calls with identical inputs are
    bit-identical); ``process`` supplies the per-round cost functions.

    ``checkpoint_every=K`` (with a ``checkpoint_store``) snapshots the
    full soak state after rounds K, 2K, ...; ``resume_from`` takes such
    a :class:`~repro.ckpt.snapshot.Snapshot` and continues it — the
    factory must rebuild the same configuration the original soak ran
    (guarded by comparing the snapshot's schedule spec). ``round_hook``
    runs after each round's bookkeeping (the CLI's ``--kill-at-round``
    uses it to die *after* the checkpoint is on disk).
    """
    if checkpoint_every and checkpoint_store is None:
        raise CheckpointError("checkpoint_every requires a checkpoint_store")
    protocol = protocol_factory()
    injector = ChaosInjector(protocol, schedule)
    num_workers = protocol.num_workers
    allocations = np.zeros((rounds, num_workers))
    global_costs = np.zeros(rounds)
    violations: list[tuple[int, str]] = []
    completed = 0
    resumed_from = None
    if resume_from is not None:
        completed, violations = _restore_soak(
            protocol, injector, schedule, resume_from,
            allocations, global_costs,
        )
        resumed_from = completed
    for t in range(completed + 1, rounds + 1):
        try:
            injector.apply(t)
            # Observed once the round's faults have landed: the checks
            # judge the round itself (a batched failure detection may
            # drop a worker crashed at this boundary).
            observation = RoundObservation(protocol)
            _, local, global_cost, straggler = protocol.run_round(
                t, process.costs_at(t)
            )
        except ReproError as exc:
            if raise_on_violation:
                raise
            violations.append((t, f"{type(exc).__name__}: {exc}"))
            break
        round_violations = check_round_invariants(
            protocol, observation, t, local, global_cost, straggler,
            restart_prefixes=injector.restart_prefixes,
        )
        if round_violations and raise_on_violation:
            raise InvariantViolation("; ".join(round_violations))
        violations.extend((t, message) for message in round_violations)
        allocations[t - 1] = protocol.allocation
        global_costs[t - 1] = global_cost
        completed = t
        if checkpoint_every and t % checkpoint_every == 0:
            checkpoint_store.save(
                _soak_snapshot(
                    protocol, injector, schedule, rounds, t,
                    allocations, global_costs, violations,
                )
            )
        if round_hook is not None:
            round_hook(t, protocol)
    metrics = protocol.metrics
    return SoakReport(
        protocol_name=getattr(protocol, "name", type(protocol).__name__),
        rounds_requested=rounds,
        rounds_completed=completed,
        violations=tuple(violations),
        events_applied=injector.events_applied,
        event_counts=injector.event_counts,
        allocations=allocations[:completed],
        global_costs=global_costs[:completed],
        final_roster=tuple(protocol.roster),
        virtual_time=float(protocol.cluster.engine.now),
        messages_total=metrics.messages_total,
        messages_blackholed=metrics.messages_blackholed,
        resumed_from=resumed_from,
    )
