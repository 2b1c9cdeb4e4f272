"""Shared trace emission for both protocol architectures.

Algorithm 1 and Algorithm 2 record the same per-round observables, so
the emission logic lives here once. Everything recorded is **path
independent**: allocations and costs are bit-identical between the
event engine and the batched fast path by the protocols' equivalence
contract, and the phase record uses virtual time and processed-event
counts, never wall-clock time. A batched round keeps both aligned with
the event engine through its view's round tally (the last arrival and
the frames delivered between
:meth:`~repro.net.batch.BatchedCluster.begin_round` and
:meth:`~repro.net.batch.BatchedCluster.finish_round`). A golden trace
therefore diffs empty across engines — which is precisely what makes it
a regression oracle for the fast path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.events import EventEngine
from repro.obs.records import (
    DecisionRecord,
    MembershipRecord,
    PhaseRecord,
    StragglerRecord,
    float_tuple,
)
from repro.obs.tracer import Tracer

__all__ = ["emit_round", "emit_membership"]


def emit_round(
    tracer: Tracer,
    round_index: int,
    x_played: np.ndarray,
    local: np.ndarray,
    global_cost: float,
    straggler: int,
    next_allocation: np.ndarray,
    start_time: float,
    start_events: int,
    engine: EventEngine,
) -> None:
    """Emit the decision/straggler/phase records for one protocol round."""
    tracer.emit(
        DecisionRecord(
            round=round_index,
            allocation=float_tuple(x_played),
            local_costs=float_tuple(local),
            global_cost=float(global_cost),
            straggler=int(straggler),
            next_allocation=float_tuple(next_allocation),
        )
    )
    # Dead workers report NaN local cost; they wait for nothing.
    tracer.emit(
        StragglerRecord(
            round=round_index,
            worker=int(straggler),
            cost=float(global_cost),
            waiting_total=float(np.nansum(global_cost - local)),
        )
    )
    tracer.emit(
        PhaseRecord(
            round=round_index,
            phase="round",
            start=float(start_time),
            end=float(engine.now),
            events=int(engine.processed_events - start_events),
        )
    )


def emit_membership(
    tracer: Tracer | None,
    round_index: int,
    action: str,
    workers: Sequence[int],
    roster: Sequence[int],
) -> None:
    """Emit a membership record (no-op when tracing is disabled)."""
    if tracer is None:
        return
    tracer.emit(
        MembershipRecord(
            round=round_index,
            action=action,
            workers=tuple(int(w) for w in workers),
            roster=tuple(int(w) for w in roster),
        )
    )
