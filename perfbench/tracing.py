"""Layer tracer: timers and counters wrapped around the program's public calls.

Nothing inside ``src/`` is instrumented. :class:`LayerTracer` patches the
public functions and methods named in :data:`TARGETS` (and the
``gc.callbacks`` hook) with wrappers that record one span per call:
name, start, end, parent span and the op it belongs to. Spans stay in
memory and are written once, at exit, by :meth:`LayerTracer.dump`.

A span's *self* time is its duration minus the durations of its direct
children, so the self times of every span recorded inside an op sum to
that op's traced wall time (the op's own root span holds the benchmark's
glue and every call that is not wrapped). Re-entrant calls of a span name
that is already open (``super()`` chains, kernels calling kernels under
the same name) are passed straight through, so no time counts twice.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Span index of "no parent" and op index of spans recorded in set-up.
NO_PARENT = -1
SETUP_OP = -1

#: Span names that are bookkeeping, not program layers.
ROOT = "op"
UNTIMED = "bench.untimed"
GC = "gc"

#: ``protocols.round_<route>`` suffixes, in the order of the protocol's
#: ``tree_rounds``, ``fast_rounds`` and ``fallback_rounds`` counters.
ROUTES = ("tree", "flat", "event")

# Span record fields (plain lists keep ~10^5 spans cheap).
_NAME, _START, _END, _PARENT, _OP, _CHILD = range(6)


def _ndarray_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _kernel_bytes(args, kwargs, result) -> int:
    """Argument plus output ``nbytes`` of one kernel call (outputs that
    alias an argument, such as ``out=`` buffers, count once)."""
    inputs = list(args) + list(kwargs.values())
    seen = {id(v) for v in inputs}
    outputs = result if isinstance(result, tuple) else (result,)
    fresh = [v for v in outputs if id(v) not in seen]
    return _ndarray_bytes(inputs) + _ndarray_bytes(fresh)


class LayerTracer:
    """Records spans and counters while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: set[str] = set()
        self.op = SETUP_OP
        #: (op index, counter name) -> summed value.
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._gc_start: int | None = None

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else NO_PARENT
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self.stack.append(index)
        self.open_names.add(name)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[_END] = end
        self.open_names.discard(span[_NAME])
        if self.stack.pop() != index:
            raise RuntimeError(f"span {span[_NAME]!r} closed out of order")
        parent = span[_PARENT]
        if parent != NO_PARENT:
            self.spans[parent][_CHILD] += end - span[_START]

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.op, name)] += value

    # -- ops --------------------------------------------------------------
    def begin_op(self, op: int) -> int:
        self.op = op
        return self.open(ROOT)

    def end_op(self, root: int) -> None:
        self.close(root)
        self.op = SETUP_OP

    # -- gc ---------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = self.open(GC)
        elif self._gc_start is not None:
            self.close(self._gc_start)
            self._gc_start = None
            if info.get("generation") == 2:
                self.count("gc.gen2_collections")

    # -- patching ---------------------------------------------------------
    def wrap(self, fn, name: str, after=None):
        """``fn`` recording a ``name`` span per call; ``after(args, kwargs,
        result)`` bumps counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled or name in tracer.open_names:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, **hooks))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, **hooks))
        else:
            new = self.wrap(raw, name, **hooks)
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every target for the rest of the process. Wrappers and
        the gc hook record nothing while :attr:`enabled` is off, so one
        process can alternate traced and untraced ops."""
        for target in TARGETS:
            target(self)
        gc.callbacks.append(self._on_gc)

    # -- output -----------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span once (``[name, start, end, parent, op, self]``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s[_NAME], s[_START], s[_END], s[_PARENT], s[_OP],
             s[_END] - s[_START] - s[_CHILD]]
            for s in self.spans
        ]
        path.write_text(json.dumps({"fields": ["name", "start", "end",
                                               "parent", "op", "self_s"],
                                    "spans": rows}))

    def totals(self, ops: set[int]):
        """(inclusive seconds, self seconds, calls) per span name over
        the spans of ``ops``."""
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span[_OP] not in ops:
                continue
            duration = span[_END] - span[_START]
            inclusive[span[_NAME]] += duration
            self_s[span[_NAME]] += duration - span[_CHILD]
            calls[span[_NAME]] += 1
        return inclusive, self_s, calls

    def counter_total(self, ops: set[int], name: str) -> float:
        return sum(self.counters.get((op, name), 0.0) for op in ops)

    def first(self, op: int, prefix: str) -> float:
        """Duration of the first ``prefix*`` span recorded in ``op``."""
        for span in self.spans:
            if span[_OP] == op and span[_NAME].startswith(prefix):
                return span[_END] - span[_START]
        return 0.0


# -- targets ----------------------------------------------------------------
# One function per layer: each imports its modules and patches the public
# calls the benchmark attributes to that layer.


def _subclasses(base) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _patch_own(tracer, classes, attr: str, name: str, **hooks) -> None:
    """Patch ``attr`` on every class that defines it itself."""
    for cls in classes:
        if attr in cls.__dict__:
            tracer.patch(cls, attr, name, **hooks)


def _protocols(tracer) -> None:
    from repro.protocols.fully_distributed import FullyDistributedDolbie as fd

    tracer.patch(fd, "__init__", "protocols.construct")
    tracer.patch(fd, "crash_worker", "protocols.membership")
    tracer.patch(fd, "rejoin_worker", "protocols.membership")
    run_round = fd.run_round

    def traced_round(self, *args, **kwargs):
        """``run_round`` in a span named after the route the round took,
        read from the public ``tree_rounds``/``fast_rounds``/``fallback_rounds``."""
        if not tracer.enabled:
            return run_round(self, *args, **kwargs)
        before = (self.tree_rounds, self.fast_rounds, self.fallback_rounds)
        index = tracer.open("protocols.round")
        try:
            return run_round(self, *args, **kwargs)
        finally:
            tracer.close(index)
            after = (self.tree_rounds, self.fast_rounds, self.fallback_rounds)
            route = next((r for r, b, a in zip(ROUTES, before, after) if a > b), "unrouted")
            tracer.spans[index][_NAME] = f"protocols.round_{route}"

    fd.run_round = traced_round


def _kernels(tracer) -> None:
    from repro.backend import kernels

    def after(args, kwargs, result):
        tracer.count("kernels.bytes_computed", _kernel_bytes(args, kwargs, result))

    for fn in KERNELS:
        if hasattr(kernels, fn):
            tracer.patch(kernels, fn, f"kernels.{fn}", after=after)


def _net(tracer) -> None:
    from repro.net.aggtree import AggregationTree
    from repro.net.batch import BatchedCluster, DeliveryPlan
    from repro.net.cluster import Cluster
    from repro.net.node import LazyNodeTable

    tracer.patch(DeliveryPlan, "__init__", "net.plan_build")
    tracer.patch(DeliveryPlan, "deliver", "net.deliver")
    tracer.patch(BatchedCluster, "deliver", "net.deliver")
    tracer.patch(AggregationTree, "build", "aggtree.build")
    tracer.patch(
        Cluster, "run", "net.event_loop",
        after=lambda a, k, events: tracer.count("net.events", events),
    )
    build = LazyNodeTable.build

    def counted_build(self, node_id):
        # The cluster caches hydrated views: one build is one hydrated peer.
        if tracer.enabled:
            tracer.count("peerstore.hydrated_peers")
        return build(self, node_id)

    LazyNodeTable.build = counted_build


def _peerstore(tracer) -> None:
    from repro.core.peerstore import LedgerBook

    for attr in ("fanout", "fanout_ids", "wipe", "restore_replica"):
        tracer.patch(LedgerBook, attr, "peerstore.ledger")


def _serving(tracer) -> None:
    from repro.serving.arrivals import ArrivalProcess
    from repro.serving.dispatcher import ServingSimulator
    from repro.serving.policies import RoutingPolicy
    from repro.serving.quantiles import ExactQuantiles, QuantileSketch

    _patch_own(tracer, _subclasses(ArrivalProcess), "next_batch", "arrivals.next_batch")
    _patch_own(
        tracer, _subclasses(RoutingPolicy), "control_update", "policies.control_update",
        after=lambda a, k, r: tracer.count("policies.control_updates"),
    )
    for cls in (QuantileSketch, ExactQuantiles):
        tracer.patch(cls, "add", "quantiles.add")
    tracer.patch(ServingSimulator, "process", "dispatcher")


def _paper(tracer) -> None:
    from repro.baselines import batched as _registers_subclasses  # noqa: F401
    from repro.core.batched import BatchedPolicy
    from repro.experiments import stacked
    from repro.mlsim import cache

    tracer.patch(
        cache, "materialize_cached", "mlsim.materialize",
        after=lambda a, k, r: tracer.count("mlsim.materialize_calls"),
    )
    tracer.patch(
        cache, "store_matrices", "mlsim.store",
        after=lambda a, k, r: tracer.count("mlsim.cache_misses"),
    )
    tracer.patch(stacked, "sweep_stacked", "stacked")
    policies = _subclasses(BatchedPolicy)
    _patch_own(tracer, policies, "decide", "baselines.decide")
    _patch_own(tracer, policies, "update", "baselines.update")
    _patch_own(tracer, policies, "prime", "baselines.oracle")
    _patch_own(tracer, policies, "oracle_decide", "baselines.oracle")


#: The public kernels of ``repro.backend.kernels`` (its ``__all__``).
KERNELS = (
    "phase_a_pack", "phase_b_consensus", "phase_c_fill", "phase_d_sendtimes",
    "phase_e_pack", "phase_f_decision_sums", "phase_g_close", "gather",
    "scatter_max", "shard_consensus", "shard_decision_sums",
    "combine_up_consensus", "combine_up_sums",
)

TARGETS = (_protocols, _kernels, _net, _peerstore, _serving, _paper)


def numba_present() -> bool:
    from repro.backend.kernels import HAVE_NUMBA

    return bool(HAVE_NUMBA)
