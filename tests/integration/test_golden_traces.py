"""Golden-trace regression tests.

The committed files under ``tests/golden/`` are the conformance oracle
for the full stack: protocol round loops, the DOLBIE update, the network
substrate, and the trace serialization itself. Each protocol scenario is
replayed on BOTH execution paths — the batched fast path and the
discrete-event engine — and each replay must diff empty against the same
committed file, which simultaneously pins the trajectory and proves the
two engines agree record-for-record.

On an intentional behavior change, regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py --bless
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.io import load_trace
from repro.obs import diff_traces
from repro.obs.scenarios import build_trace, fd_ring_protocol, fd_tree_protocol

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

BLESS_HINT = (
    "golden trace differs; if the change is intentional, regenerate with "
    "`PYTHONPATH=src python tests/golden/regenerate.py --bless`"
)


def _golden(name: str):
    path = GOLDEN_DIR / f"{name.replace('-', '_')}.jsonl"
    assert path.exists(), f"missing golden trace {path}"
    return load_trace(path)


@pytest.mark.parametrize("scenario", ["mw", "fd"])
@pytest.mark.parametrize("engine", ["fast", "event"])
def test_protocol_matches_golden_on_both_engines(scenario, engine):
    trace = build_trace(scenario, engine=engine)
    diff = diff_traces(_golden(scenario), trace)
    assert diff.empty, f"[{scenario}/{engine}] {BLESS_HINT}\n{diff.summary()}"


@pytest.mark.parametrize("scenario", ["loop", "trainer"])
def test_core_scenarios_match_golden(scenario):
    trace = build_trace(scenario)
    diff = diff_traces(_golden(scenario), trace, include_header=True)
    assert diff.empty, f"[{scenario}] {BLESS_HINT}\n{diff.summary()}"


def test_golden_traces_have_expected_shape():
    for scenario in ("mw", "fd", "loop"):
        trace = _golden(scenario)
        counts = trace.kind_counts()
        assert counts["header"] == 1
        assert counts["decision"] == 30
        assert counts["straggler"] == 30
        assert trace.rounds() == (1, 30)
    # Protocol traces additionally carry one phase record per round.
    assert _golden("mw").kind_counts()["phase"] == 30
    assert _golden("fd").kind_counts()["phase"] == 30
    # The centralized loop instruments DOLBIE itself, so its golden
    # also pins the risk-averse update internals (Eqs. 4-7).
    assert _golden("loop").kind_counts()["assistance"] == 30


def test_mw_and_fd_play_equivalent_decision_streams():
    """Algorithms 1 and 2 compute the same DOLBIE trajectory up to
    floating-point summation order (the master reduces centrally, the
    peers reduce locally): stragglers must match exactly, allocations to
    machine precision."""
    import numpy as np

    mw = _golden("mw").by_kind("decision")
    fd = _golden("fd").by_kind("decision")
    assert [r.straggler for r in mw] == [r.straggler for r in fd]
    assert [r.round for r in mw] == [r.round for r in fd]
    np.testing.assert_allclose(
        [r.next_allocation for r in mw],
        [r.next_allocation for r in fd],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        [r.global_cost for r in mw],
        [r.global_cost for r in fd],
        rtol=1e-12,
    )


def test_serving_scenario_matches_golden():
    trace = build_trace("serving")
    diff = diff_traces(_golden("serving"), trace, include_header=True)
    assert diff.empty, f"[serving] {BLESS_HINT}\n{diff.summary()}"


def test_serving_golden_has_expected_shape():
    trace = _golden("serving")
    counts = trace.kind_counts()
    assert counts["header"] == 1
    assert counts["serving_summary"] == 1
    # One record per control period, plus the final partial period.
    assert counts["serving_period"] >= 30
    summary = trace.by_kind("serving_summary")[0]
    assert summary.completed == summary.requests
    assert summary.failed == 0
    assert 0.0 < summary.p50 <= summary.p99 <= summary.p999


def test_serving_scenario_is_bit_identical_across_runs():
    # Two in-process builds — fresh RNG substreams each — must agree on
    # every record field, the cross-run determinism contract CI also
    # checks through the CLI.
    diff = diff_traces(
        build_trace("serving"), build_trace("serving"), include_header=True
    )
    assert diff.empty, diff.summary()


#: Run totals of the fd-tree scenarios that the trace records do not
#: carry, recorded when the goldens were blessed: scenario -> (backend,
#: messages_total, bytes_total, final virtual clock, sha256 of the
#: ledger's sorted-key JSON).
FD_TREE_PINS = {
    "fd-tree": (
        "numpy64", 8589, 138584, 1.9997800194340436,
        "adbc48587effd0d070ac56bb2d4b4ae65f110e4240048c446e5b4e71f55b9308",
    ),
    "fd-tree-f32": (
        "numpy32", 8589, 138584, 1.9997800194340436,
        "7769f07caddf520012efe72de2519ab52629f71fa26b10c6ef1be48178310bca",
    ),
}


@pytest.mark.parametrize("scenario", sorted(FD_TREE_PINS))
def test_fd_tree_matches_golden_and_pinned_totals(scenario):
    """Tree rounds through a member + shard-head crash and their rejoin,
    in both dtypes: trace, message/byte totals, clock and ledger."""
    backend, messages, nbytes, now, ledger_sha = FD_TREE_PINS[scenario]
    protocol = fd_tree_protocol(backend)
    trace = protocol.tracer.trace
    diff = diff_traces(_golden(scenario), trace, include_header=True)
    assert diff.empty, f"[{scenario}] {BLESS_HINT}\n{diff.summary()}"
    # The crash round is the one batched failure detection.
    assert (
        protocol.tree_rounds, protocol.fast_rounds, protocol.detect_rounds,
        protocol.fallback_rounds,
    ) == (29, 30, 1, 0)
    assert protocol.metrics.messages_total == messages
    assert protocol.metrics.bytes_total == nbytes
    assert protocol.cluster.engine.now == now
    assert _sha256_json(
        [entry.to_dict() for entry in protocol.ledger]
    ) == ledger_sha


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_fd_ring_matches_golden_and_pinned_totals():
    """Flooding over a ring through a relay crash and its rejoin: trace,
    message/byte totals, clock, link RNG position, the ledger and every
    worker's replica (recorded when the golden was blessed)."""
    protocol = fd_ring_protocol()
    diff = diff_traces(
        _golden("fd-ring"), protocol.tracer.trace, include_header=True
    )
    assert diff.empty, f"[fd-ring] {BLESS_HINT}\n{diff.summary()}"
    assert (protocol.fast_rounds, protocol.fallback_rounds) == (0, 30)
    assert protocol.metrics.messages_total == 15558
    assert protocol.metrics.bytes_total == 562112
    assert protocol.cluster.engine.now == 2.6773863060204808
    rng = protocol.cluster._default_link.latency._rng
    assert rng.bit_generator.state["state"]["state"] == (
        267411418849510394392798796071831299306
    )
    assert _sha256_json([entry.to_dict() for entry in protocol.ledger]) == (
        "d7c8370acfd1f00a4e39f3bf7a04b7b760f4a9cc4d49fd845f8806850bbb4935"
    )
    replicas = [
        [entry.to_dict() for entry in protocol.worker_ledger(w)]
        for w in range(protocol.num_workers)
    ]
    assert _sha256_json(replicas) == (
        "48ca220805681b71aec4cbbc325f0fb18faac87bff7d5b3b075d25f87e76d67d"
    )
