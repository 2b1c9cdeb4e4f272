"""Capture/restore of every live object a run's future depends on.

The restore model is **rebuild + rehydrate**: the resuming process
reconstructs the run's objects through the same factory that built the
original (same constructor arguments — the snapshot's ``config`` block
pins them), then these functions pour the durable state back in. That
keeps cost *functions*, topologies, and handler wiring out of the
snapshot entirely: only state that evolves round-over-round is stored.

What is deliberately **not** captured (each skip has a proof):

- per-round transient protocol dicts *are* captured — they are cheap
  and make ``capture(restore(capture(x)))`` exactly idempotent — but
  the caches derived from configuration and membership (the FD
  protocol's ``_flat_round``/``_tree_round``, MW's ``_batched``) are
  not: they are pure functions of the rebuilt objects;
- cost processes: pure functions of ``(seed, t)``, no internal state;
- :class:`~repro.utils.rng.RngFactory`: seeds only, no stream state;
- the event engine's tie-break counter: checkpoints are only legal at
  round boundaries, where the queue is empty — the counter can restart
  at zero because tie-breaks only order events *within* a drain.

Every RNG is captured as its bit generator's state dict
(``generator.bit_generator.state``), which NumPy defines as an exact,
JSON-able description of the stream position.
"""

from __future__ import annotations

import copy
from typing import Any, Mapping

import numpy as np

from repro.backend import ALIASES
from repro.core.ledger import LedgerEntry, RoundLedger
from repro.exceptions import CheckpointError
from repro.net.links import (
    ConstantLatency,
    LatencyModel,
    Link,
    LogNormalLatency,
    UniformLatency,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "capture_rng",
    "restore_rng",
    "rng_from_state",
    "capture_engine",
    "restore_engine",
    "capture_latency",
    "restore_latency",
    "capture_link",
    "restore_link",
    "capture_cluster",
    "restore_cluster",
    "capture_protocol",
    "restore_protocol",
    "capture_fluctuation_trace",
    "restore_fluctuation_trace",
    "capture_injector",
    "restore_injector",
    "capture_arrivals",
    "restore_arrivals",
    "capture_serving",
    "restore_serving",
]


# -- RNG streams ----------------------------------------------------------
def capture_rng(generator: np.random.Generator) -> dict:
    """The generator's exact stream position (bit-generator state)."""
    return copy.deepcopy(generator.bit_generator.state)


def restore_rng(generator: np.random.Generator, state: Mapping) -> None:
    """Rewind/advance ``generator`` to a captured stream position."""
    name = state.get("bit_generator")
    if name != type(generator.bit_generator).__name__:
        raise CheckpointError(
            f"RNG state is for bit generator {name!r}, live generator "
            f"uses {type(generator.bit_generator).__name__!r}"
        )
    generator.bit_generator.state = copy.deepcopy(dict(state))


def rng_from_state(state: Mapping) -> np.random.Generator:
    """A fresh generator positioned at a captured stream state."""
    name = state.get("bit_generator")
    cls = getattr(np.random, str(name), None)
    if cls is None:
        raise CheckpointError(f"unknown bit generator {name!r}")
    bit_generator = cls()
    bit_generator.state = copy.deepcopy(dict(state))
    return np.random.Generator(bit_generator)


# -- event engine ---------------------------------------------------------
def capture_engine(engine) -> dict:
    """Clock + event accounting; only legal at a round boundary."""
    if engine.pending != 0:
        raise CheckpointError(
            f"cannot checkpoint with {engine.pending} event(s) in flight; "
            "checkpoints are only taken at round boundaries"
        )
    return {
        "now": float(engine.now),
        "processed_events": int(engine.processed_events),
    }


def restore_engine(engine, state: Mapping) -> None:
    if engine.pending != 0:
        raise CheckpointError(
            "cannot restore into an engine with events in flight"
        )
    engine._now = float(state["now"])
    engine.processed_events = int(state["processed_events"])


# -- links and latency models ---------------------------------------------
def capture_latency(model: LatencyModel) -> dict:
    if isinstance(model, ConstantLatency):
        return {"kind": "constant", "seconds": model.seconds}
    if isinstance(model, UniformLatency):
        return {
            "kind": "uniform",
            "low": model.low,
            "high": model.high,
            "rng": capture_rng(model._rng),
        }
    if isinstance(model, LogNormalLatency):
        return {
            "kind": "lognormal",
            "median": model.median,
            "sigma": model.sigma,
            "rng": capture_rng(model._rng),
        }
    raise CheckpointError(
        f"cannot checkpoint latency model {type(model).__name__}"
    )


def restore_latency(model: LatencyModel, state: Mapping) -> None:
    captured = capture_latency(model)
    for key, value in state.items():
        if key == "rng":
            continue
        if captured.get(key) != value:
            raise CheckpointError(
                f"latency model mismatch on {key!r}: snapshot has "
                f"{value!r}, live model has {captured.get(key)!r}"
            )
    if "rng" in state:
        restore_rng(model._rng, state["rng"])


def capture_link(link: Link) -> dict:
    state: dict = {
        "latency": capture_latency(link.latency),
        "bandwidth_bps": link.bandwidth_bps,
        "loss_probability": link.loss_probability,
    }
    if link._loss_rng is not None:
        state["loss_rng"] = capture_rng(link._loss_rng)
    return state


def restore_link(link: Link, state: Mapping) -> None:
    if (
        link.bandwidth_bps != state["bandwidth_bps"]
        or link.loss_probability != state["loss_probability"]
    ):
        raise CheckpointError(
            "link configuration mismatch between snapshot and live link"
        )
    restore_latency(link.latency, state["latency"])
    if "loss_rng" in state:
        if link._loss_rng is None:
            raise CheckpointError("snapshot has a loss RNG, live link has none")
        restore_rng(link._loss_rng, state["loss_rng"])


# -- cluster --------------------------------------------------------------
def capture_cluster(cluster) -> dict:
    """The network substrate: clock, chaos hooks, RNGs, metrics, nodes.

    Clusters backed by a :class:`~repro.net.node.LazyNodeTable` (the
    struct-of-arrays peer store) capture the per-node delivery counters
    and liveness flags as two packed arrays (``node_arrays``) instead of
    a per-node list — O(1) array copies instead of N dict entries.
    """
    partition = cluster._partition
    loss_override = cluster._loss_override
    lazy = getattr(cluster, "lazy_nodes", None)
    if lazy is not None:
        nodes_state: dict = {
            "nodes": [],
            "node_arrays": {
                "received_count": lazy.received_count.copy(),
                "failed": lazy.failed.copy(),
            },
        }
    else:
        nodes_state = {
            "nodes": [
                [
                    int(node_id),
                    {
                        "received_count": int(node.received_count),
                        "failed": bool(node.failed),
                    },
                ]
                for node_id, node in sorted(cluster._nodes.items())
            ],
        }
    return {
        **nodes_state,
        "engine": capture_engine(cluster.engine),
        "trace_round": int(cluster.trace_round),
        "partition": (
            None
            if partition is None
            else {int(node): int(group) for node, group in partition.items()}
        ),
        "extra_delay": {
            int(node): float(seconds)
            for node, seconds in cluster._extra_delay.items()
        },
        "loss_override": (
            None
            if loss_override is None
            else {
                "probability": float(loss_override[0]),
                "rng": capture_rng(loss_override[1]),
            }
        ),
        "default_link": capture_link(cluster._default_link),
        "links": [
            [int(src), int(dst), capture_link(link)]
            for (src, dst), link in sorted(cluster._links.items())
        ],
        "metrics": cluster.metrics.registry.to_records(),
    }


def restore_cluster(cluster, state: Mapping) -> None:
    restore_engine(cluster.engine, state["engine"])
    cluster.trace_round = int(state["trace_round"])
    partition = state["partition"]
    cluster._partition = (
        None
        if partition is None
        else {int(node): int(group) for node, group in partition.items()}
    )
    cluster._extra_delay = {
        int(node): float(seconds)
        for node, seconds in state["extra_delay"].items()
    }
    loss_override = state["loss_override"]
    cluster._loss_override = (
        None
        if loss_override is None
        else (
            float(loss_override["probability"]),
            rng_from_state(loss_override["rng"]),
        )
    )
    restore_link(cluster._default_link, state["default_link"])
    stored_links = {(int(s), int(d)): ls for s, d, ls in state["links"]}
    if set(stored_links) != set(cluster._links):
        raise CheckpointError(
            "per-pair link overrides differ between snapshot and live cluster"
        )
    for key, link_state in stored_links.items():
        restore_link(cluster._links[key], link_state)
    cluster.metrics.registry = MetricsRegistry.from_records(state["metrics"])
    cluster.metrics._init_handles()
    lazy = getattr(cluster, "lazy_nodes", None)
    node_arrays = state.get("node_arrays")
    if node_arrays is not None:  # only lazy (FD) clusters capture these
        lazy.received_count[:] = np.asarray(
            node_arrays["received_count"], dtype=np.int64
        )
        lazy.failed[:] = np.asarray(node_arrays["failed"], dtype=bool)
    for node_id, node_state in state["nodes"]:
        if lazy is not None:
            # A per-node list into a lazy table (a snapshot of the
            # retired object peers): write the packed columns directly.
            lazy.received_count[int(node_id)] = int(
                node_state["received_count"]
            )
            lazy.failed[int(node_id)] = bool(node_state["failed"])
            continue
        node = cluster._nodes.get(int(node_id))
        if node is None:
            raise CheckpointError(f"snapshot mentions unknown node {node_id}")
        node.received_count = int(node_state["received_count"])
        node.failed = bool(node_state["failed"])


# -- protocols ------------------------------------------------------------
def _pack_replica(entries, auth_entries, by_round: dict) -> list:
    """Encode a replica's entries against the authoritative entry list.

    Healthy replicas are (unions of) contiguous slices of the
    authoritative ledger, so re-encoding every entry per replica would
    make snapshots grow as O(workers x rounds). Instead each replica is
    a list of ``{"span": [start, end]}`` runs into the authoritative
    list, with any divergent entry kept inline as ``{"entry": ...}`` so
    a corrupted replica is still captured faithfully. Protocols append
    the *same* entry object to the authoritative ledger and the
    replicas, so the match test is usually a pointer comparison.
    """
    packed: list = []
    run_start = run_end = None

    def flush() -> None:
        nonlocal run_start, run_end
        if run_start is not None:
            packed.append({"span": [run_start, run_end]})
            run_start = run_end = None

    for entry in entries:
        position = by_round.get(entry.round_index)
        if position is not None and (
            auth_entries[position] is entry or auth_entries[position] == entry
        ):
            if run_end == position:
                run_end = position + 1
            else:
                flush()
                run_start, run_end = position, position + 1
        else:
            flush()
            packed.append({"entry": entry.to_dict()})
    flush()
    return packed


def _unpack_replica(packed: list, authoritative: list) -> list:
    records: list = []
    for item in packed:
        if "span" in item:
            start, end = item["span"]
            records.extend(authoritative[int(start):int(end)])
        else:
            records.append(item["entry"])
    return records


def _ledgers_state(protocol) -> dict:
    auth_entries = tuple(protocol.ledger)
    by_round = {
        entry.round_index: position
        for position, entry in enumerate(auth_entries)
    }
    state = {"ledger": [entry.to_dict() for entry in auth_entries]}
    book = getattr(protocol, "_ledger_book", None)
    if book is not None:
        # Fully distributed: the replicas already *are* spans — two
        # packed arrays capture all N of them; only the few materialized
        # (gap-holding) replicas need the per-entry packing.
        state["worker_ledger_spans"] = book.spans_state()
        state["worker_ledgers"] = {
            int(worker): _pack_replica(ledger, auth_entries, by_round)
            for worker, ledger in sorted(book.materialized.items())
        }
    else:
        state["worker_ledgers"] = {
            int(worker): _pack_replica(ledger, auth_entries, by_round)
            for worker, ledger in sorted(protocol._worker_ledgers.items())
        }
    return state


def _restore_ledgers(protocol, state: Mapping) -> None:
    authoritative = state["ledger"]
    ledger = RoundLedger.from_records(authoritative)
    protocol.ledger = ledger
    book = getattr(protocol, "_ledger_book", None)
    spans = state.get("worker_ledger_spans")
    if book is not None:
        book.rebind_authority(ledger)
        book.materialized = {}
        if spans is not None:
            book.restore_spans(spans)
            for worker, packed in state["worker_ledgers"].items():
                book.materialized[int(worker)] = RoundLedger.from_records(
                    _unpack_replica(packed, authoritative)
                )
        else:  # per-replica snapshot of the retired object peers
            book.start[:] = 0
            book.stop[:] = 0
            for worker, packed in state["worker_ledgers"].items():
                replica = RoundLedger.from_records(
                    _unpack_replica(packed, authoritative)
                )
                book.restore_replica(int(worker), replica.entries)
    else:
        protocol._worker_ledgers = {
            int(worker): RoundLedger.from_records(
                _unpack_replica(packed, authoritative)
            )
            for worker, packed in state["worker_ledgers"].items()
        }


def capture_protocol(protocol) -> dict:
    """Dispatch on architecture (both DOLBIE protocols supported)."""
    if hasattr(protocol, "master"):
        return _capture_master_worker(protocol)
    if hasattr(protocol, "peers"):
        return _capture_fully_distributed(protocol)
    raise CheckpointError(
        f"cannot checkpoint protocol {type(protocol).__name__}"
    )


def restore_protocol(protocol, state: Mapping) -> None:
    architecture = state.get("architecture")
    if architecture == "master-worker":
        _restore_master_worker(protocol, state)
    elif architecture == "fully-distributed":
        _restore_fully_distributed(protocol, state)
    else:
        raise CheckpointError(f"unknown architecture {architecture!r}")


def _check_shape(protocol, state: Mapping, architecture: str) -> None:
    if not hasattr(protocol, "master" if architecture == "master-worker" else "peers"):
        raise CheckpointError(
            f"snapshot is for the {architecture} architecture, live "
            f"protocol is {type(protocol).__name__}"
        )
    if int(state["num_workers"]) != protocol.num_workers:
        raise CheckpointError(
            f"snapshot has {state['num_workers']} workers, live protocol "
            f"has {protocol.num_workers}"
        )


def _capture_master_worker(protocol) -> dict:
    master = protocol.master
    return {
        "architecture": "master-worker",
        "num_workers": int(protocol.num_workers),
        "alive": [bool(a) for a in protocol._alive],
        "fast_rounds": int(protocol.fast_rounds),
        "fallback_rounds": int(protocol.fallback_rounds),
        "master": {
            "worker_ids": [int(w) for w in master.worker_ids],
            "alpha": float(master.alpha),
            "current_round": int(master.current_round),
            "global_cost": master.global_cost,
            "straggler": master.straggler,
            "coordinated": bool(master._coordinated),
            "declared_dead": {
                int(w): int(r) for w, r in master.declared_dead.items()
            },
            "costs": {int(w): float(v) for w, v in master._costs.items()},
            "decisions": {
                int(w): float(v) for w, v in master._decisions.items()
            },
        },
        "workers": [
            {
                "x": float(worker.x),
                "local_cost": worker.local_cost,
                "current_round": int(worker.current_round),
            }
            for worker in protocol.workers
        ],
        **_ledgers_state(protocol),
        "cluster": capture_cluster(protocol.cluster),
    }


def _restore_master_worker(protocol, state: Mapping) -> None:
    _check_shape(protocol, state, "master-worker")
    protocol._alive = [bool(a) for a in state["alive"]]
    protocol.fast_rounds = int(state["fast_rounds"])
    protocol.fallback_rounds = int(state["fallback_rounds"])
    master_state = state["master"]
    master = protocol.master
    master.worker_ids = [int(w) for w in master_state["worker_ids"]]
    master.alpha = float(master_state["alpha"])
    master.current_round = int(master_state["current_round"])
    master.global_cost = master_state["global_cost"]
    master.straggler = master_state["straggler"]
    master._coordinated = bool(master_state["coordinated"])
    master.declared_dead = {
        int(w): int(r) for w, r in master_state["declared_dead"].items()
    }
    master._costs = {int(w): float(v) for w, v in master_state["costs"].items()}
    master._decisions = {
        int(w): float(v) for w, v in master_state["decisions"].items()
    }
    for worker, worker_state in zip(protocol.workers, state["workers"]):
        worker.x = float(worker_state["x"])
        worker.local_cost = worker_state["local_cost"]
        worker.current_round = int(worker_state["current_round"])
    _restore_ledgers(protocol, state)
    restore_cluster(protocol.cluster, state["cluster"])


def _restore_aggregation(protocol, agg: Mapping | None) -> None:
    """Verify aggregation-layer identity and rebuild the last overlay.

    Pre-aggregation snapshots (``agg is None``) restore into flat
    protocols unchanged. Otherwise the snapshot's mode/shard
    parameters/backend must match the live protocol — a tree snapshot
    restored into a flat protocol (or onto a different dtype) would
    silently change the arithmetic of every subsequent round. The
    overlay is rebuilt from its recorded membership and cross-checked
    shard-for-shard, exercising the determinism the protocol relies on.

    ``shard_procs`` is captured for provenance but deliberately NOT part
    of the identity tuple: the tree round is bit-identical at any
    process count, so resuming under a different value is a legal — and
    tested — configuration change. The thread-count and ``peer_store``
    fields that older snapshots carry are ignored. The backend IS
    identity, compared after
    alias resolution: a ``numpy64`` vs ``numpy32`` mismatch fails loudly,
    while a snapshot stamped ``compiled`` (an alias of ``numpy64``)
    restores into a ``numpy64`` protocol.
    """
    protocol.last_tree = None
    if hasattr(protocol, "_invalidate_tree_round"):
        # The restored peers/ledgers are new state behind the tree
        # round's mirrors and bound replica methods.
        protocol._invalidate_tree_round()
    if agg is None:
        return
    live = (
        str(getattr(protocol, "aggregation", "flat")),
        getattr(protocol, "shard_size", None),
        int(getattr(protocol, "branching", 4)),
        str(protocol.backend.name) if hasattr(protocol, "backend") else "numpy64",
    )
    snap = (
        str(agg["mode"]),
        agg["shard_size"] if agg["shard_size"] is None else int(agg["shard_size"]),
        int(agg["branching"]),
        ALIASES.get(str(agg["backend"]), str(agg["backend"])),
    )
    if snap != live:
        raise CheckpointError(
            f"snapshot aggregation config {snap} does not match the live "
            f"protocol's {live} (mode, shard_size, branching, backend)"
        )
    last = agg.get("last_tree")
    if last is not None:
        from repro.net.aggtree import AggregationTree

        members = [int(w) for shard in last["shards"] for w in shard]
        rebuilt = AggregationTree.build(
            members,
            shard_size=int(last["shard_size"]),
            branching=int(last["branching"]),
        )
        recorded = tuple(tuple(int(w) for w in s) for s in last["shards"])
        if rebuilt.shards != recorded:
            raise CheckpointError(
                "snapshot aggregation tree is not the deterministic "
                "rebuild of its own membership (corrupt snapshot?)"
            )
        protocol.last_tree = rebuilt


def _peer_transients(peer) -> dict:
    """The event-engine-transient containers of one peer object."""
    return {
        "peer_costs": {
            int(w): [float(cost), float(alpha)]
            for w, (cost, alpha) in peer._peer_costs.items()
        },
        "peer_decisions": {
            int(w): float(v) for w, v in peer._peer_decisions.items()
        },
        "seen_floods": sorted(
            [str(kind), int(origin)] for kind, origin in peer._seen_floods
        ),
    }


def _capture_fully_distributed(protocol) -> dict:
    last_tree = getattr(protocol, "last_tree", None)
    return {
        "architecture": "fully-distributed",
        "num_workers": int(protocol.num_workers),
        "alive": np.asarray(protocol._alive, dtype=bool).copy(),
        "stalled": sorted(int(w) for w in protocol._stalled),
        "fast_rounds": int(protocol.fast_rounds),
        "fallback_rounds": int(protocol.fallback_rounds),
        "tree_rounds": int(getattr(protocol, "tree_rounds", 0)),
        "detect_rounds": int(protocol.detect_rounds),
        # All scalar peer state is a handful of packed arrays; the
        # event-round containers exist only on hydrated views and are
        # captured sparsely.
        "peerstore": protocol._store.state(),
        "peer_transients": [
            [int(node_id), _peer_transients(peer)]
            for node_id, peer in sorted(protocol.cluster._nodes.items())
            if peer._peer_costs or peer._peer_decisions or peer._seen_floods
        ],
        # Aggregation-layer identity: mode/overlay parameters plus the
        # last overlay's shard membership. The overlay itself is a pure
        # function of (roster, shard_size, branching), so restore
        # *rebuilds* it and verifies the membership matches rather than
        # trusting (or needing) a serialized tree object.
        "aggregation": {
            "mode": str(getattr(protocol, "aggregation", "flat")),
            "shard_size": getattr(protocol, "shard_size", None),
            "branching": int(getattr(protocol, "branching", 4)),
            "backend": str(protocol.backend.name)
            if hasattr(protocol, "backend")
            else "numpy64",
            # Informational (not restore-checked): any process count is
            # bit-identical — see _restore_aggregation.
            "shard_procs": int(getattr(protocol, "shard_procs", 1)),
            "last_tree": None
            if last_tree is None
            else {
                "shard_size": int(last_tree.shard_size),
                "branching": int(last_tree.branching),
                "shards": [
                    [int(w) for w in shard] for shard in last_tree.shards
                ],
            },
        },
        **_ledgers_state(protocol),
        "cluster": capture_cluster(protocol.cluster),
    }


def _apply_peer_transients(peer, transients: Mapping) -> None:
    peer._peer_costs = {
        int(w): (float(pair[0]), float(pair[1]))
        for w, pair in transients["peer_costs"].items()
    }
    peer._peer_decisions = {
        int(w): float(v) for w, v in transients["peer_decisions"].items()
    }
    peer._seen_floods = {
        (str(kind), int(origin)) for kind, origin in transients["seen_floods"]
    }


def _restore_peers_from_store_block(protocol, state: Mapping) -> None:
    """Pour a ``peerstore`` (array-shaped) snapshot block into the live
    protocol's store."""
    protocol._store.restore(state["peerstore"])
    # Stale transients on already-hydrated views must not survive the
    # restore; the snapshot's sparse list reinstates them.
    for peer in protocol.cluster._nodes.values():
        peer._peer_costs = {}
        peer._peer_decisions = {}
        peer._seen_floods = set()
    for node_id, transients in state.get("peer_transients", []):
        _apply_peer_transients(protocol.peers[int(node_id)], transients)


def _restore_peers_from_list(protocol, state: Mapping) -> None:
    """Pour a per-peer-dict snapshot block (written by the retired
    object-peer representation) into the live protocol's store.

    The dominant roster becomes the store's shared roster, so the
    restored store keeps its O(overrides) eligibility checks."""
    from collections import Counter

    store = protocol._store
    keys = [
        tuple(int(w) for w in peer_state["roster"])
        for peer_state in state["peers"]
    ]
    dominant = Counter(keys).most_common(1)[0][0] if keys else ()
    store.shared_roster = frozenset(dominant)
    store.roster_overrides = {
        i: frozenset(key) for i, key in enumerate(keys) if key != dominant
    }
    for peer, peer_state in zip(protocol.peers, state["peers"]):
        peer.x = float(peer_state["x"])
        peer.alpha_bar = float(peer_state["alpha_bar"])
        peer.local_cost = peer_state["local_cost"]
        peer.current_round = int(peer_state["current_round"])
        peer.is_straggler = bool(peer_state["is_straggler"])
        peer.global_cost = peer_state["global_cost"]
        peer.straggler_id = peer_state["straggler_id"]
        _apply_peer_transients(peer, peer_state)


def _restore_fully_distributed(protocol, state: Mapping) -> None:
    _check_shape(protocol, state, "fully-distributed")
    protocol._alive = np.asarray(state["alive"], dtype=bool).copy()
    protocol._stalled = {int(w) for w in state["stalled"]}
    protocol.fast_rounds = int(state["fast_rounds"])
    protocol.fallback_rounds = int(state["fallback_rounds"])
    protocol.tree_rounds = int(state.get("tree_rounds", 0))
    # Snapshots older than the batched detection round lack the counter.
    protocol.detect_rounds = int(state.get("detect_rounds", 0))
    _restore_aggregation(protocol, state.get("aggregation"))
    if "peerstore" in state:
        _restore_peers_from_store_block(protocol, state)
    else:
        _restore_peers_from_list(protocol, state)
    _restore_ledgers(protocol, state)
    restore_cluster(protocol.cluster, state["cluster"])


# -- fluctuation traces (mlsim) -------------------------------------------
def capture_fluctuation_trace(trace) -> dict:
    """An :class:`repro.mlsim.traces.FluctuationTrace`'s mutable walk."""
    return {
        "values": np.asarray(trace._values, dtype=float),
        "log_state": float(trace._log_state),
        "spike_remaining": int(trace._spike_remaining),
        "spike_factor": float(trace._spike_factor),
        "rng_ar": capture_rng(trace._rng_ar),
        "rng_spike": capture_rng(trace._rng_spike),
    }


def restore_fluctuation_trace(trace, state: Mapping) -> None:
    trace._values = [float(v) for v in np.asarray(state["values"])]
    trace._log_state = float(state["log_state"])
    trace._spike_remaining = int(state["spike_remaining"])
    trace._spike_factor = float(state["spike_factor"])
    restore_rng(trace._rng_ar, state["rng_ar"])
    restore_rng(trace._rng_spike, state["rng_spike"])


# -- serving workload -----------------------------------------------------
def capture_arrivals(process) -> dict:
    """An :class:`repro.serving.arrivals.ArrivalProcess`'s stream state.

    Thin indirection over the process's own ``capture_state`` so serving
    snapshots plug into the checkpoint subsystem alongside every other
    ``capture_*`` family.
    """
    return process.capture_state()


def restore_arrivals(process, state: Mapping) -> None:
    process.restore_state(state)


def capture_serving(simulator) -> dict:
    """A :class:`repro.serving.dispatcher.ServingSimulator` snapshot.

    Only legal between chunks: the vectorized Lindley recursion's float
    association depends on the segment layout, so resuming mid-chunk
    would re-associate sums and break bit-identity.
    """
    return simulator.capture_state()


def restore_serving(simulator, state: Mapping) -> None:
    simulator.restore_state(state)


# -- chaos injector -------------------------------------------------------
def capture_injector(injector) -> dict:
    """The injector's transient-fault bookkeeping and counters.

    ``restart_prefixes`` pin a full ledger prefix per restarted worker,
    which is almost always a slice of the protocol's authoritative
    ledger — so they are span-packed against it exactly like the
    replica ledgers (O(1) per prefix instead of O(rounds)).
    """
    auth_entries = tuple(injector.protocol.ledger)
    by_round = {
        entry.round_index: position
        for position, entry in enumerate(auth_entries)
    }
    return {
        "slow_until": {
            int(w): int(r) for w, r in injector._slow_until.items()
        },
        "degrade_until": int(injector._degrade_until),
        "registry": injector.registry.to_records(),
        "applied": [event.to_dict() for event in injector.applied],
        "pending_restarts": {
            int(r): [int(w) for w in workers]
            for r, workers in injector._pending_restarts.items()
        },
        "restart_prefixes": {
            int(w): _pack_replica(entries, auth_entries, by_round)
            for w, entries in injector.restart_prefixes.items()
        },
    }


def restore_injector(injector, state: Mapping) -> None:
    """Inverse of :func:`capture_injector`. Must run *after* the
    protocol is restored: the span-packed restart prefixes expand
    against the restored authoritative ledger."""
    from repro.chaos.faults import FaultEvent

    injector._slow_until = {
        int(w): int(r) for w, r in state["slow_until"].items()
    }
    injector._degrade_until = int(state["degrade_until"])
    injector.registry = MetricsRegistry.from_records(state["registry"])
    injector.applied = [
        FaultEvent.from_dict(record) for record in state["applied"]
    ]
    injector._pending_restarts = {
        int(r): [int(w) for w in workers]
        for r, workers in state["pending_restarts"].items()
    }
    authoritative = injector.protocol.ledger.to_records()
    injector.restart_prefixes = {
        int(w): tuple(
            LedgerEntry.from_dict(r)
            for r in _unpack_replica(packed, authoritative)
        )
        for w, packed in state["restart_prefixes"].items()
    }
