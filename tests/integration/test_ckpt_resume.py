"""Bit-identical checkpoint/resume across engines and architectures.

The ISSUE-level acceptance check: a fig4-scale run (N=30) checkpointed
at t=50 and resumed must produce the *same* trace (headers included),
the same result arrays, and the same CSV bytes as the uninterrupted
run — on both engines and both protocol architectures. A separate test
drives the CLI through a real SIGKILL and asserts the resumed trace
file is byte-equivalent.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.faults import FaultSchedule
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import RoundObservation, check_round_invariants
from repro.ckpt import CheckpointStore, resume_run, run_with_checkpoints
from repro.ckpt.runner import run_result_to_csv
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.state import restore_injector, restore_protocol
from repro.core.ledger import RoundLedger
from repro.costs.timevarying import DriftingAffineProcess
from repro.exceptions import CheckpointError
from repro.net.links import ConstantLatency, Link
from repro.obs.diff import diff_traces
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.protocols.master_worker import MasterWorkerDolbie

WORKERS, ROUNDS, CHECKPOINT_AT, SEED = 30, 100, 50, 5
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


@pytest.mark.parametrize("architecture", ["mw", "fd"])
@pytest.mark.parametrize("engine", ["fast", "event"])
def test_resume_is_bit_identical(tmp_path, architecture, engine):
    store = CheckpointStore(tmp_path)
    full_trace, full = run_with_checkpoints(
        architecture, engine, WORKERS, ROUNDS, SEED,
        store=store, checkpoint_at=[CHECKPOINT_AT],
    )
    snapshot = store.load(CHECKPOINT_AT)
    assert snapshot.round_index == CHECKPOINT_AT
    resumed_trace, resumed = resume_run(snapshot)

    diff = diff_traces(full_trace, resumed_trace, include_header=True)
    assert diff.empty, diff.summary()
    assert np.array_equal(full.allocations, resumed.allocations)
    assert np.array_equal(full.global_costs, resumed.global_costs)
    assert np.array_equal(full.stragglers, resumed.stragglers)
    assert run_result_to_csv(full) == run_result_to_csv(resumed)


def test_trace_is_serialized_incrementally(tmp_path):
    # Each checkpoint's trace must extend the previous one's (the
    # runner only encodes records appended since the last checkpoint)
    # while the final snapshot still covers the full run.
    store = CheckpointStore(tmp_path)
    full_trace, _ = run_with_checkpoints(
        "fd", "fast", WORKERS, ROUNDS, SEED,
        store=store, checkpoint_every=4,
    )
    traces = [
        store.load(t).state["trace"] for t in range(4, ROUNDS + 1, 4)
    ]
    for earlier, later in zip(traces, traces[1:]):
        assert later[: len(earlier)] == earlier
        assert len(later) > len(earlier)
    assert all(store.load(t).state["trace_complete"]
               for t in range(4, ROUNDS + 1, 4))


def test_capture_trace_false_skips_trace_but_keeps_trajectory(tmp_path):
    store = CheckpointStore(tmp_path)
    _, full = run_with_checkpoints(
        "fd", "fast", WORKERS, ROUNDS, SEED,
        store=store, checkpoint_at=[CHECKPOINT_AT],
        capture_trace=False,
    )
    snapshot = store.load(CHECKPOINT_AT)
    assert snapshot.state["trace"] == []
    assert snapshot.state["trace_complete"] is False
    _, resumed = resume_run(snapshot)
    assert np.array_equal(full.allocations, resumed.allocations)
    assert np.array_equal(full.global_costs, resumed.global_costs)
    assert np.array_equal(full.stragglers, resumed.stragglers)


def test_resume_refuses_shorter_horizon(tmp_path):
    store = CheckpointStore(tmp_path)
    run_with_checkpoints(
        "mw", "fast", 6, 20, SEED, store=store, checkpoint_at=[10],
    )
    with pytest.raises(CheckpointError, match="already covers"):
        resume_run(store.load(10), rounds=5)


def test_checkpoints_without_store_rejected():
    with pytest.raises(CheckpointError, match="without a store"):
        run_with_checkpoints("mw", "fast", 6, 20, SEED, checkpoint_every=10)


def _run_cli(args, cwd, expect_kill=False):
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if expect_kill:
        assert proc.returncode == -signal.SIGKILL or proc.returncode == 137, (
            proc.returncode, proc.stderr
        )
    else:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_kill_resume_trace_is_byte_identical(tmp_path):
    """SIGKILL a checkpointed soak mid-run, resume it, and diff traces."""
    soak = [
        "chaos", "--protocol", "mw", "--workers", "5", "--rounds", "30",
        "--scenario", "rolling-restart",
    ]
    _run_cli(
        [*soak, "--checkpoint-every", "10", "--checkpoint-dir", "ck",
         "--kill-at-round", "20", "--trace-out", "dead.jsonl"],
        tmp_path, expect_kill=True,
    )
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
        "ckpt-00000010.json", "ckpt-00000020.json",
    ]
    resumed = _run_cli(
        [*soak, "--checkpoint-dir", "ck", "--resume",
         "--trace-out", "resumed.jsonl"],
        tmp_path,
    )
    assert "resuming from round 20" in resumed.stdout
    assert "[PASS]" in resumed.stdout
    _run_cli([*soak, "--trace-out", "clean.jsonl"], tmp_path)

    from repro.io import load_trace

    diff = diff_traces(
        load_trace(tmp_path / "clean.jsonl"),
        load_trace(tmp_path / "resumed.jsonl"),
        include_header=True,
    )
    assert diff.empty, diff.summary()


def test_master_worker_replica_list_snapshot_restores():
    """MW snapshots written before the span arrays still load.

    ``tests/golden/mw_replica_snapshot.json`` holds per-replica ledger
    lists and no ``worker_ledger_spans`` (N=8, ``ConstantLatency(0.001)``,
    worker 2 restarted — crashed before round 3, rejoined with its
    rounds 1-2 restored before round 5 — and worker 5 crashed before
    round 6; snapshot after round 6). ``mw_replica_continuation.json``
    records what that protocol then produced in rounds 7-9."""
    snap = Snapshot.from_bytes(
        (GOLDEN_DIR / "mw_replica_snapshot.json").read_bytes()
    )
    assert "worker_ledger_spans" not in snap.state
    n = int(snap.config["num_workers"])
    protocol = MasterWorkerDolbie(n, link=Link(ConstantLatency(0.001)))
    restore_protocol(protocol, snap.state)
    expected = json.loads(
        (GOLDEN_DIR / "mw_replica_continuation.json").read_text()
    )
    for w, records in enumerate(expected["worker_ledgers_at_snapshot"]):
        assert protocol.worker_ledger(w) == RoundLedger.from_records(
            records
        ), f"worker {w} replica restored wrong"
    assert [e.round_index for e in protocol.worker_ledger(2)] == [1, 2, 5, 6]
    assert len(protocol.worker_ledger(5)) == 0
    speeds = [1.0 + 3.0 * (i / max(n - 1, 1)) for i in range(n)]
    process = DriftingAffineProcess(
        speeds, amplitude=0.25, period=40.0, seed=int(snap.config["seed"])
    )
    for record in expected["rounds"]:
        t = record["round"]
        x, _, cost, straggler = protocol.run_round(t, process.costs_at(t))
        assert x.tolist() == record["allocation"]
        assert cost == record["global_cost"]
        assert straggler == record["straggler"]
    assert protocol.allocation.tolist() == expected["allocation_after"]
    assert protocol.alpha == expected["alpha_after"]
    assert protocol.metrics.messages_total == expected["messages_total"]
    assert protocol.cluster.engine.now == expected["now"]
    assert protocol.ledger == RoundLedger.from_records(expected["ledger"])
    for w, records in enumerate(expected["worker_ledgers"]):
        assert protocol.worker_ledger(w) == RoundLedger.from_records(
            records
        ), f"worker {w} replica diverged"


def _ledger_digest(ledger) -> str:
    records = json.dumps(ledger.to_records(), sort_keys=True)
    return hashlib.sha256(records.encode()).hexdigest()


def test_long_ledger_snapshot_restores_and_continues():
    """Snapshots written before the column ledger layout still load.

    ``tests/golden/fd_long_ledger_snapshot.json`` was written by the
    per-entry ledger layout (a blob-container version-2 file): N=64 tree
    aggregation, ``ConstantLatency(0.001)``, a scripted schedule of
    crash/rejoin epochs, worker 9 restarted at round 60 (its replica is
    materialized, its prefix pinned) and worker 21 restarted at round
    209 (pending at the snapshot after round 210, back at 212).
    ``fd_long_ledger_continuation.json`` holds digests of the ledgers at
    the snapshot and what the uninterrupted run produced in rounds
    211-230, checked here with every round invariant."""
    raw = (GOLDEN_DIR / "fd_long_ledger_snapshot.json").read_bytes()
    assert json.loads(raw.partition(b"\n")[0])["version"] == 2
    snap = Snapshot.from_bytes(raw)
    config = snap.config
    n = int(config["num_workers"])
    protocol = FullyDistributedDolbie(
        n, link=Link(ConstantLatency(0.001)), aggregation=config["aggregation"]
    )
    restore_protocol(protocol, snap.state["protocol"])
    injector = ChaosInjector(protocol, FaultSchedule.from_spec(config["schedule"]))
    restore_injector(injector, snap.state["injector"])
    expected = json.loads(
        (GOLDEN_DIR / "fd_long_ledger_continuation.json").read_text()
    )
    assert set(protocol._ledger_book.materialized) == {9}
    assert sorted(injector.restart_prefixes) == [9, 21]
    # Rosters were interned on load: equal rosters share one id array.
    rosters = {tuple(e.roster.tolist()) for e in protocol.ledger}
    assert len({id(e.roster) for e in protocol.ledger}) == len(rosters)
    at_snapshot = expected["at_snapshot"]
    assert _ledger_digest(protocol.ledger) == at_snapshot["ledger"]
    for w in range(n):
        assert (
            _ledger_digest(protocol.worker_ledger(w))
            == at_snapshot["worker_ledgers"][w]
        ), f"worker {w} replica restored wrong"
    speeds = [1.0 + 3.0 * (i / (n - 1)) for i in range(n)]
    process = DriftingAffineProcess(
        speeds, amplitude=0.25, period=40.0, seed=int(config["seed"])
    )
    for record in expected["rounds"]:
        t = record["round"]
        injector.apply(t)
        observation = RoundObservation(protocol)
        x, local, cost, straggler = protocol.run_round(t, process.costs_at(t))
        assert check_round_invariants(
            protocol, observation, t, local, cost, straggler,
            injector.restart_prefixes,
        ) == []
        assert x.tolist() == record["allocation"]
        assert cost == record["global_cost"]
        assert straggler == record["straggler"]
    assert protocol.allocation.tolist() == expected["allocation_after"]
    assert protocol.metrics.messages_total == expected["messages_total"]
    assert protocol.cluster.engine.now == expected["now"]
    assert _ledger_digest(protocol.ledger) == expected["ledger"]
    for w in range(n):
        assert (
            _ledger_digest(protocol.worker_ledger(w))
            == expected["worker_ledgers"][w]
        ), f"worker {w} replica diverged"
    assert {
        str(w): _ledger_digest(prefix)
        for w, prefix in sorted(injector.restart_prefixes.items())
    } == expected["restart_prefixes"]
