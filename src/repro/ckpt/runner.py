"""Checkpointed protocol runs and bit-identical resume.

``run_with_checkpoints`` replays exactly the run the trace scenarios in
:mod:`repro.obs.scenarios` define (same factory arguments, same cost
process, same header), with a per-round hook on
:func:`~repro.core.loop.run_protocol` that drops a
:class:`~repro.ckpt.snapshot.Snapshot` into a
:class:`~repro.ckpt.store.CheckpointStore` every K rounds.
``resume_run`` rebuilds a factory-fresh protocol from the snapshot's
``config`` block, rehydrates it through
:func:`repro.ckpt.state.restore_protocol`, replays the stored trace
prefix into a fresh tracer, and continues the remaining rounds. The
contract — pinned by the integration tests with ``repro trace diff``
and byte-compared CSVs — is that the merged resumed run is
indistinguishable from an uninterrupted one.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from repro.ckpt.snapshot import Snapshot
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.ckpt.store import CheckpointStore
from repro.core.loop import RunResult, run_protocol
from repro.exceptions import CheckpointError, ConfigurationError
from repro.obs.diff import canonical_line
from repro.obs.records import record_from_dict
from repro.obs.tracer import Trace, Tracer

__all__ = [
    "build_process",
    "build_protocol",
    "run_with_checkpoints",
    "resume_run",
    "run_result_to_csv",
]


def build_process(num_workers: int, seed: int):
    """The scenarios' cost process — stateless in (seed, t), so resume
    needs only (num_workers, seed) to regenerate it exactly."""
    from repro.costs.timevarying import RandomAffineProcess

    rng = np.random.default_rng(seed)
    speeds = rng.uniform(1.0, 3.0, size=num_workers)
    return RandomAffineProcess(speeds, sigma=0.2, comm_scale=0.01, seed=seed)


def build_protocol(
    architecture: str,
    engine: str,
    num_workers: int,
    tracer: Tracer | None = None,
):
    """The scenarios' protocol factory (same arguments as
    :func:`repro.obs.scenarios.protocol_trace`)."""
    from repro.protocols.fully_distributed import FullyDistributedDolbie
    from repro.protocols.master_worker import MasterWorkerDolbie

    if architecture not in ("mw", "fd"):
        raise ConfigurationError(
            f"architecture must be 'mw' or 'fd', got {architecture!r}"
        )
    if engine not in ("auto", "fast", "event"):
        raise ConfigurationError(
            f"engine must be 'auto', 'fast' or 'event', got {engine!r}"
        )
    cls = MasterWorkerDolbie if architecture == "mw" else FullyDistributedDolbie
    return cls(
        num_workers,
        alpha_1=0.001,
        use_fast_path=engine != "event",
        tracer=tracer,
    )


def _result_prefix_state(result: RunResult, completed: int) -> dict:
    return {
        "allocations": np.asarray(result.allocations[:completed]),
        "local_costs": np.asarray(result.local_costs[:completed]),
        "global_costs": np.asarray(result.global_costs[:completed]),
        "stragglers": np.asarray(result.stragglers[:completed]),
    }


def run_with_checkpoints(
    architecture: str,
    engine: str,
    num_workers: int,
    rounds: int,
    seed: int,
    *,
    store: CheckpointStore | None = None,
    checkpoint_every: int = 0,
    checkpoint_at: Iterable[int] = (),
    capture_trace: bool = True,
) -> tuple[Trace, RunResult]:
    """One scenario run, snapshotting at the requested round boundaries.

    ``checkpoint_every=K`` checkpoints after rounds K, 2K, ...;
    ``checkpoint_at`` adds explicit rounds. Returns the (trace, result)
    pair an uninterrupted :func:`protocol_trace`-style run produces.

    ``capture_trace`` (default True) embeds the observability trace in
    each snapshot so :func:`resume_run` reproduces the *whole* run's
    trace bit-for-bit. Trace lines are serialized incrementally — each
    checkpoint encodes only the records appended since the previous one
    — so checkpoint cost no longer grows with the number of elapsed
    rounds. Pass ``capture_trace=False`` for long headless runs where
    only the trajectory matters: snapshots then carry an empty trace
    (flagged ``trace_complete: False``) and a resumed run's trace
    covers just the suffix.
    """
    checkpoint_rounds = {int(t) for t in checkpoint_at}
    if checkpoint_every:
        checkpoint_rounds.update(
            range(checkpoint_every, rounds + 1, checkpoint_every)
        )
    if checkpoint_rounds and store is None:
        raise CheckpointError("checkpoint rounds requested without a store")

    tracer = Tracer()
    protocol = build_protocol(architecture, engine, num_workers, tracer)
    process = build_process(num_workers, seed)
    config = {
        "architecture": architecture,
        "engine": engine,
        "num_workers": int(num_workers),
        "rounds": int(rounds),
        "seed": int(seed),
    }

    # Incremental trace serialization: each checkpoint only encodes the
    # records appended since the last one, keeping per-checkpoint cost
    # O(rounds since previous checkpoint) instead of O(elapsed rounds).
    trace_lines: list[str] = []
    traced = 0

    def checkpoint(t: int, partial: RunResult) -> None:
        nonlocal traced
        if t not in checkpoint_rounds:
            return
        if capture_trace:
            trace_lines.extend(
                canonical_line(r) for r in tracer.records[traced:]
            )
            traced = len(tracer.records)
        snapshot = Snapshot(
            kind="run",
            round_index=t,
            config=config,
            state={
                "protocol": capture_protocol(protocol),
                "results": _result_prefix_state(partial, t),
                "trace": list(trace_lines),
                "trace_complete": bool(capture_trace),
            },
        )
        store.save(snapshot)

    result = run_protocol(protocol, process, rounds, on_round=checkpoint)
    return tracer.trace, result


def resume_run(
    snapshot: Snapshot, rounds: int | None = None
) -> tuple[Trace, RunResult]:
    """Continue a checkpointed run to ``rounds`` (default: the horizon
    the original run was launched with).

    The returned trace and result cover the *whole* run — stored prefix
    plus resumed suffix — and are bit-identical to an uninterrupted run
    of the same configuration. (When the snapshot was taken with
    ``capture_trace=False`` the stored prefix is empty and the returned
    trace covers only the resumed suffix; the trajectory arrays are
    always complete.)
    """
    if snapshot.kind != "run":
        raise CheckpointError(
            f"resume_run needs a 'run' snapshot, got {snapshot.kind!r}"
        )
    config = snapshot.config
    total_rounds = int(config["rounds"] if rounds is None else rounds)
    completed = int(snapshot.round_index)
    if total_rounds < completed:
        raise CheckpointError(
            f"cannot resume to round {total_rounds}: the snapshot already "
            f"covers {completed} round(s)"
        )

    tracer = Tracer()
    protocol = build_protocol(
        str(config["architecture"]),
        str(config["engine"]),
        int(config["num_workers"]),
        tracer,
    )
    restore_protocol(protocol, snapshot.state["protocol"])
    for line in snapshot.state.get("trace", []):
        tracer.records.append(record_from_dict(json.loads(line)))
    process = build_process(int(config["num_workers"]), int(config["seed"]))

    result = run_protocol(
        protocol, process, total_rounds,
        start=completed + 1, prefix=snapshot.state["results"],
    )
    return tracer.trace, result


def run_result_to_csv(result: RunResult) -> str:
    """Deterministic CSV of a run trajectory (``repr`` floats, so equal
    trajectories produce byte-identical files)."""
    n = result.num_workers
    header = "round,straggler,global_cost," + ",".join(
        f"x{i}" for i in range(n)
    )
    lines = [header]
    for t in range(result.horizon):
        cells = [
            str(t + 1),
            str(int(result.stragglers[t])),
            repr(float(result.global_costs[t])),
        ]
        cells.extend(repr(float(v)) for v in result.allocations[t])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
