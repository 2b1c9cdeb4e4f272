"""Per-layer metrics of a traced run, computed from :mod:`tracing` spans.

Unless a name says otherwise, a metric is per traced op: seconds or
counts summed over the op's calls and averaged over the traced ops.
``setup.*``, ``protocols.construct_s`` and ``protocols.first_round_s``
cover the traced set-up instead. ``<layer>.<x>_s`` is inclusive wall
time; ``*.self_s`` and the per-kernel ``kernels.<fn>.s`` exclude the
wrapped calls made inside them.
"""

from __future__ import annotations

import numpy as np

from tracing import GC, KERNELS, ROOT, SETUP_OP, UNTIMED, numba_present


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_rows(tracer, workload, traced_ops, traced_times, untraced_times, net):
    """Return ``[(name, value, unit, samples)]``."""
    ops = set(traced_ops)
    n = max(len(ops), 1)
    inc, self_s, calls = tracer.totals(ops)
    s_inc, _s_self, s_calls = tracer.totals({SETUP_OP})
    per_op = {name: value / n for name, value in inc.items()}

    def op_time(name: str) -> float:
        return per_op.get(name, 0.0)

    def op_count(name: str) -> float:
        return tracer.counter_total(ops, name) / n

    rounds = {
        route: calls.get(f"protocols.round_{route}", 0) / n
        for route in ("tree", "flat", "event")
    }
    all_rounds = sum(rounds.values())

    kernel_names = [f"kernels.{fn}" for fn in KERNELS]
    materialize_calls = tracer.counter_total(ops, "mlsim.materialize_calls")
    misses = tracer.counter_total(ops, "mlsim.cache_misses")
    setup_calls = tracer.counter_total({SETUP_OP}, "mlsim.materialize_calls")
    setup_misses = tracer.counter_total({SETUP_OP}, "mlsim.cache_misses")

    protocol = workload.protocol
    num_workers = 0 if protocol is None else protocol.num_workers
    hydrated = op_count("peerstore.hydrated_peers")
    messages, nbytes, net_rounds = net

    # Layer self times (every wrapped call, the gc hook included) against
    # the wall time of the untraced ops: the sum should land within the
    # tracing overhead of it, short of the benchmark's own glue.
    layer_self = sum(v for k, v in self_s.items() if k not in (ROOT, UNTIMED)) / n
    glue = self_s.get(ROOT, 0.0) / n
    traced_p50 = float(np.median(traced_times)) if traced_times else 0.0
    untraced_p50 = float(np.median(untraced_times)) if untraced_times else 0.0
    untraced_mean = float(np.mean(untraced_times)) if untraced_times else 0.0

    rows = [
        ("protocols.construct_s", s_inc.get("protocols.construct", 0.0), "s"),
        ("protocols.first_round_s", tracer.first(SETUP_OP, "protocols.round"), "s"),
        ("protocols.rounds_tree", rounds["tree"], "count"),
        ("protocols.rounds_flat_fast", rounds["flat"], "count"),
        ("protocols.rounds_event", rounds["event"], "count"),
        ("protocols.round_tree_s", op_time("protocols.round_tree"), "s"),
        ("protocols.round_flat_s", op_time("protocols.round_flat"), "s"),
        ("protocols.round_event_s", op_time("protocols.round_event"), "s"),
        ("protocols.fallback_share", _ratio(rounds["event"], all_rounds), "share"),
        ("protocols.membership_s", op_time("protocols.membership"), "s"),
        ("protocols.self_s", sum(self_s.get(f"protocols.round_{r}", 0.0)
                                 for r in ("tree", "flat", "event")) / n, "s"),
        ("kernels.calls", sum(calls.get(k, 0) for k in kernel_names) / n, "count"),
        ("kernels.self_s", sum(self_s.get(k, 0.0) for k in kernel_names) / n, "s"),
        *[(f"{k}.s", self_s.get(k, 0.0) / n, "s") for k in kernel_names],
        ("kernels.bytes_computed", op_count("kernels.bytes_computed"), "B"),
        ("kernels.numba", float(numba_present()), "flag"),
        ("net.plan_build_s", op_time("net.plan_build"), "s"),
        ("net.plans_built", calls.get("net.plan_build", 0) / n, "count"),
        ("aggtree.build_s", op_time("aggtree.build"), "s"),
        ("aggtree.builds", calls.get("aggtree.build", 0) / n, "count"),
        ("net.deliver_s", op_time("net.deliver"), "s"),
        ("net.event_loop_s", op_time("net.event_loop"), "s"),
        ("net.events", op_count("net.events"), "count"),
        ("net.messages_per_round", _ratio(messages, net_rounds), "count"),
        ("net.bytes_per_round", _ratio(nbytes, net_rounds), "B"),
        ("setup.net.plan_build_s", s_inc.get("net.plan_build", 0.0), "s"),
        ("setup.net.plans_built", float(s_calls.get("net.plan_build", 0)), "count"),
        ("setup.aggtree.build_s", s_inc.get("aggtree.build", 0.0), "s"),
        ("peerstore.ledger_s", op_time("peerstore.ledger"), "s"),
        ("peerstore.hydrated_peers", hydrated, "count"),
        ("peerstore.hydration_ratio", _ratio(hydrated, num_workers), "share"),
        ("setup.peerstore.hydrated_peers",
         tracer.counter_total({SETUP_OP}, "peerstore.hydrated_peers"), "count"),
        ("arrivals.next_batch_s", op_time("arrivals.next_batch"), "s"),
        ("policies.control_update_s", op_time("policies.control_update"), "s"),
        ("policies.control_updates", op_count("policies.control_updates"), "count"),
        ("quantiles.add_s", op_time("quantiles.add"), "s"),
        ("dispatcher.self_s", self_s.get("dispatcher", 0.0) / n, "s"),
        ("mlsim.materialize_s", op_time("mlsim.materialize"), "s"),
        ("mlsim.cache_hits", (materialize_calls - misses) / n, "count"),
        ("mlsim.cache_misses", misses / n, "count"),
        ("mlsim.cache_hit_ratio",
         _ratio(materialize_calls - misses, materialize_calls), "share"),
        ("setup.mlsim.materialize_s", s_inc.get("mlsim.materialize", 0.0), "s"),
        ("setup.mlsim.cache_misses", setup_misses, "count"),
        ("setup.mlsim.cache_hit_ratio",
         _ratio(setup_calls - setup_misses, setup_calls), "share"),
        ("baselines.decide_s", op_time("baselines.decide"), "s"),
        ("baselines.update_s", op_time("baselines.update"), "s"),
        ("baselines.oracle_s", op_time("baselines.oracle"), "s"),
        ("stacked.self_s", self_s.get("stacked", 0.0) / n, "s"),
        ("gc.pause_s", op_time(GC), "s"),
        ("gc.gen2_collections", op_count("gc.gen2_collections"), "count"),
        ("trace.op_p50_s", traced_p50, "s"),
        ("trace.untraced_op_p50_s", untraced_p50, "s"),
        ("trace.overhead_share", _ratio(traced_p50, untraced_p50) - 1.0, "share"),
        ("trace.unattributed_share", _ratio(glue, layer_self + glue), "share"),
        ("trace.layer_self_vs_untraced_share",
         _ratio(layer_self, untraced_mean), "share"),
    ]
    setup_rows = {"protocols.construct_s", "protocols.first_round_s"}
    out = [
        (name, float(value), unit,
         1 if name in setup_rows or name.startswith("setup.") else len(ops))
        for name, value, unit in rows
    ]
    return out
