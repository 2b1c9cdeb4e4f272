"""Algorithm 1: DOLBIE in the master-worker architecture, verbatim.

Every line of the paper's pseudo-code maps onto a message handler here:

=====  ==========================================================
Line   Implementation
=====  ==========================================================
1-3    environment evaluation in :meth:`MasterWorkerDolbie.run_round`
4      worker sends ``cost`` {l_i} to the master
9-11   master collects costs, computes l_t, identifies s_t
12     master sends ``coord`` {l_t, alpha_t, is_straggler} to workers
5-6    non-straggler computes x' (Eq. 4) and updates x (Eq. 5)
7,13   non-straggler sends ``decision`` {x_{i,t+1}} to the master
14-15  master closes the simplex (Eq. 6), sends ``assign`` to s_t
16     master updates alpha via Eq. (7)
=====  ==========================================================

Only scalars cross the network — local cost values and workload
decisions, never the cost *functions* — which is the paper's privacy
claim, and the per-round message count is ``3N`` (the O(N) row of
§IV-C), which the complexity experiment asserts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interface import identify_straggler
from repro.core.ledger import LedgerEntry, RoundLedger
from repro.core.loop import RunResult
from repro.core.membership import add_worker_allocation
from repro.core.step_size import feasibility_cap, initial_step_size
from repro.costs.base import CostFunction
from repro.costs.timevarying import CostProcess
from repro.costs.vector import as_cost_vector
from repro.exceptions import ConfigurationError, ProtocolError
from repro.net.cluster import Cluster
from repro.net.links import Link
from repro.net.message import FrameBatch, Message
from repro.net.node import Node
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.protocols.routes import (
    Route,
    RouteChoice,
    always,
    choose_route,
    round_span,
)
from repro.protocols.tracing import emit_membership, emit_round
from repro.simplex.sampling import equal_split, is_feasible

__all__ = ["MasterWorkerDolbie"]

TAG_COST = "cost"
TAG_COORD = "coord"
TAG_DECISION = "decision"
TAG_ASSIGN = "assign"


class _Worker(Node):
    """A DOLBIE worker (Alg. 1, worker block)."""

    def __init__(self, node_id: int, master_id: int, x_init: float) -> None:
        super().__init__(node_id)
        self.master_id = master_id
        self.x = float(x_init)
        self.cost_fn: CostFunction | None = None
        self.local_cost: float | None = None
        self.current_round = 0
        self.on(TAG_COORD, self._on_coord)
        self.on(TAG_ASSIGN, self._on_assign)

    def observe_round(self, round_index: int, cost_fn: CostFunction) -> None:
        """Lines 1-4: play x, suffer cost, learn f, report l to master."""
        self.current_round = round_index
        self.cost_fn = cost_fn
        self.local_cost = cost_fn(self.x)
        self.send(
            self.master_id, TAG_COST, {"l": self.local_cost}, round_index
        )

    def _check_round(self, message: Message) -> None:
        if message.round_index != self.current_round:
            raise ProtocolError(
                f"worker {self.node_id} got a round-{message.round_index} "
                f"{message.tag!r} during round {self.current_round}"
            )

    def _on_coord(self, message: Message) -> None:
        """Lines 5-7: receive (l_t, alpha_t, indicator); risk-averse update."""
        self._check_round(message)
        if self.cost_fn is None:  # pragma: no cover - defensive
            raise ProtocolError(f"worker {self.node_id} has no cost function")
        if not message.payload["is_straggler"]:
            level = float(message.payload["l"])
            alpha = float(message.payload["alpha"])
            x_prime = min(self.cost_fn.max_acceptable(level), 1.0)
            x_prime = max(x_prime, self.x)  # Lemma 1-ii up to bisection dust
            self.x = self.x - alpha * (self.x - x_prime)  # Eq. (5)
            self.send(self.master_id, TAG_DECISION, {"x": self.x}, message.round_index)
        # The straggler waits for its assignment (line 8).

    def _on_assign(self, message: Message) -> None:
        """Line 8: the straggler receives x_{s,t+1} from the master."""
        self._check_round(message)
        self.x = float(message.payload["x"])


class _Master(Node):
    """The DOLBIE master (Alg. 1, master block).

    Crash tolerance (extension): the master arms a timeout when the round
    begins; if some workers' cost reports are still missing when it
    fires, those workers are declared dead, dropped from the roster, and
    the round proceeds with the survivors. The dead workers' shares fold
    into the straggler's assignment for this round (Eq. 6 computes
    ``1 - sum of survivors``, which automatically includes the orphaned
    workload) and the normal risk-averse updates re-balance it over
    subsequent rounds.
    """

    def __init__(
        self,
        node_id: int,
        worker_ids: Sequence[int],
        alpha_1: float,
        cost_timeout: float = 1.0,
    ) -> None:
        super().__init__(node_id)
        self.worker_ids = list(worker_ids)
        self.alpha = float(alpha_1)
        self.cost_timeout = float(cost_timeout)
        self.current_round = 0
        self.global_cost: float | None = None
        self.straggler: int | None = None
        self._costs: dict[int, float] = {}
        self._decisions: dict[int, float] = {}
        self._coordinated = False
        #: Workers declared dead (round they were dropped, per worker).
        self.declared_dead: dict[int, int] = {}
        self.on(TAG_COST, self._on_cost)
        self.on(TAG_DECISION, self._on_decision)

    def begin_round(self, round_index: int, arm_failure_detector: bool = True) -> None:
        """Start a round; ``arm_failure_detector`` schedules the cost
        timeout. The simulation driver disarms it on rounds where every
        rostered worker is known to be healthy, so healthy rounds do not
        pay the timeout in virtual time (a real master would keep it
        armed and simply see it no-op)."""
        self.current_round = round_index
        self.global_cost = None
        self.straggler = None
        self._coordinated = False
        self._costs.clear()
        self._decisions.clear()
        if arm_failure_detector:
            self.cluster.engine.schedule(
                self.cost_timeout, lambda r=round_index: self._on_cost_timeout(r)
            )

    def _on_cost_timeout(self, round_index: int) -> None:
        """Declare silent workers dead and coordinate with the survivors."""
        if round_index != self.current_round or self._coordinated:
            return
        missing = [w for w in self.worker_ids if w not in self._costs]
        if not missing:  # pragma: no cover - coordination already imminent
            return
        if len(self.worker_ids) - len(missing) < 2:
            raise ProtocolError(
                f"round {round_index}: fewer than 2 workers responded "
                f"({sorted(missing)} silent); cannot continue"
            )
        for worker_id in missing:
            self.worker_ids.remove(worker_id)
            self.declared_dead[worker_id] = round_index
        self._coordinate(round_index)

    def _on_cost(self, message: Message) -> None:
        """Lines 9-12: collect costs, find the straggler, coordinate."""
        if message.round_index != self.current_round:
            raise ProtocolError(
                f"master got a round-{message.round_index} cost in round "
                f"{self.current_round}"
            )
        if message.src in self._costs:
            raise ProtocolError(f"duplicate cost report from worker {message.src}")
        if message.src not in self.worker_ids:
            raise ProtocolError(
                f"cost report from worker {message.src}, which was declared dead"
            )
        self._costs[message.src] = float(message.payload["l"])
        if len(self._costs) < len(self.worker_ids):
            return
        self._coordinate(message.round_index)

    def _coordinate(self, round_index: int) -> None:
        self._coordinated = True
        ordered = np.array([self._costs[w] for w in self.worker_ids])
        straggler_pos = identify_straggler(ordered)
        self.straggler = self.worker_ids[straggler_pos]
        self.global_cost = float(ordered[straggler_pos])
        for worker_id in self.worker_ids:
            self.send(
                worker_id,
                TAG_COORD,
                {
                    "l": self.global_cost,
                    "alpha": self.alpha,
                    "is_straggler": worker_id == self.straggler,
                },
                round_index,
            )

    def _on_decision(self, message: Message) -> None:
        """Lines 13-16: close the simplex, assign the straggler, cap alpha."""
        if message.src == self.straggler:
            raise ProtocolError("the straggler must not send a decision")
        if message.src in self._decisions:
            raise ProtocolError(f"duplicate decision from worker {message.src}")
        self._decisions[message.src] = float(message.payload["x"])
        if len(self._decisions) < len(self.worker_ids) - 1:
            return
        x_straggler = 1.0 - sum(
            self._decisions[w] for w in self.worker_ids if w != self.straggler
        )  # Eq. (6)
        if x_straggler < -1e-9:
            raise ProtocolError(
                f"straggler workload went negative ({x_straggler:.3e}); the "
                "verbatim Eq. (7) cap was insufficient this round (see "
                "Dolbie.exact_feasibility_guard)"
            )
        # Snap dust to exactly zero, mirroring the centralized reference
        # (whose closing sum runs in a different order), so both stay on
        # identical trajectories instead of diverging via tie flips.
        x_straggler = x_straggler if x_straggler >= 1e-12 else 0.0
        assert self.straggler is not None
        self.send(self.straggler, TAG_ASSIGN, {"x": x_straggler}, message.round_index)
        self.alpha = min(
            self.alpha, feasibility_cap(x_straggler, len(self.worker_ids))
        )  # Eq. (7)


class MasterWorkerDolbie:
    """Run Algorithm 1 on the discrete-event network substrate."""

    name = "DOLBIE/master-worker"

    def __init__(
        self,
        num_workers: int,
        initial_allocation: np.ndarray | None = None,
        alpha_1: float | None = None,
        link: Link | None = None,
        embedded_master: bool = False,
        cost_timeout: float = 1.0,
        use_fast_path: bool = True,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
    ) -> None:
        """``embedded_master`` realizes §IV-B1's "an elected worker acts
        also as the master": the master process is co-located with worker
        0, so their exchanges are in-process calls that never touch the
        network (the per-round wire count drops from 3N to about
        3(N-1)). ``cost_timeout`` (virtual seconds) is the master's
        failure detector: a worker whose cost report is still missing
        when it fires is declared dead and dropped (it must exceed the
        worst-case link round trip).

        ``use_fast_path`` enables the batched round-synchronous fast path
        (:mod:`repro.net.batch`) on healthy rounds; it is bit-identical
        to the event engine and disabled automatically whenever chaos
        hooks, dead workers, or an embedded master are in play (see
        :attr:`ROUTES` and :attr:`last_route`).

        ``tracer``/``profiler`` attach the observability layer (see
        :mod:`repro.obs`): per-round decision/straggler/phase records,
        membership and fault records, and per-path round timing spans.
        Trace payloads are identical on both execution paths."""
        if num_workers < 2:
            raise ConfigurationError(f"need >= 2 workers, got {num_workers}")
        self.num_workers = int(num_workers)
        x0 = (
            equal_split(num_workers)
            if initial_allocation is None
            else np.asarray(initial_allocation, dtype=float)
        )
        if not is_feasible(x0) or x0.size != num_workers:
            raise ConfigurationError("initial allocation must be feasible")
        if alpha_1 is None:
            alpha_1 = initial_step_size(x0)
        self.master_id = num_workers  # workers are 0..N-1
        self.workers = [
            _Worker(i, self.master_id, x0[i]) for i in range(num_workers)
        ]
        self.master = _Master(
            self.master_id, list(range(num_workers)), alpha_1,
            cost_timeout=cost_timeout,
        )
        self.cluster = Cluster([*self.workers, self.master], default_link=link)
        self.embedded_master = bool(embedded_master)
        if embedded_master:
            self.cluster.colocate(0, self.master_id)
        self._alive = [True] * num_workers
        self.use_fast_path = bool(use_fast_path)
        #: Rounds run by each route of :attr:`ROUTES`.
        self.route_counts = dict.fromkeys(
            (route.name for route in self.ROUTES), 0
        )
        #: The route the latest round took and the flat route's refusal
        #: reason (``None`` before the first round).
        self.last_route: RouteChoice | None = None
        self._batched = None
        self.tracer = tracer
        self.profiler = profiler
        self.cluster.tracer = tracer
        #: Authoritative round ledger (one entry per completed round) and
        #: each worker's replica of it. A crash wipes the worker's
        #: replica — process memory is gone — while a checkpointed
        #: *restart* restores it (see :mod:`repro.core.ledger`).
        self.ledger = RoundLedger()
        self._worker_ledgers: dict[int, RoundLedger] = {
            i: RoundLedger() for i in range(num_workers)
        }

    def crash_worker(self, worker: int) -> None:
        """Silence ``worker`` from the next round on (it stops reporting).

        The master's failure detector will declare it dead after
        ``cost_timeout`` and fold its workload into that round's
        straggler assignment; later rounds re-balance normally.
        """
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(f"worker index {worker} out of range")
        self._alive[worker] = False
        self.workers[worker].failed = True
        # Process memory is gone: the worker's ledger replica dies with it.
        self._worker_ledgers[worker] = RoundLedger()
        emit_membership(
            self.tracer, self.cluster.trace_round, "crash", [worker],
            self.roster,
        )

    def rejoin_worker(self, worker: int, share: float | None = None) -> None:
        """Re-admit ``worker`` to the fleet (crash recovery).

        The newcomer is granted ``share`` of the workload (default
        ``1/(N+1)`` on the post-join fleet) via the same proportional
        resharding as :func:`repro.core.membership.add_worker_allocation`;
        incumbents scale down to keep the simplex exact. The master's
        step size is re-capped by the Eq. (7) rule on the new fleet so
        the newcomer's first update cannot go infeasible. A worker that
        crashed but was never declared dead (no round ran in between)
        is simply revived with its old share.
        """
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(f"worker index {worker} out of range")
        roster = self.master.worker_ids
        if worker in roster and self._alive[worker]:
            raise ConfigurationError(f"worker {worker} is already active")
        self._alive[worker] = True
        self.workers[worker].failed = False
        if worker in roster:
            emit_membership(
                self.tracer, self.cluster.trace_round, "revive", [worker],
                self.roster,
            )
            return  # crashed and revived within the same round boundary
        live = sorted(roster)
        x_live = np.array([self.workers[w].x for w in live])
        x_new = add_worker_allocation(x_live, share)
        for w, value in zip(live, x_new[:-1]):
            self.workers[w].x = float(value)
        self.workers[worker].x = float(x_new[-1])
        roster.append(worker)
        roster.sort()
        self.master.declared_dead.pop(worker, None)
        cap = feasibility_cap(float(x_new[-1]), len(roster))
        self.master.alpha = min(self.master.alpha, cap)
        emit_membership(
            self.tracer, self.cluster.trace_round, "rejoin", [worker],
            self.roster,
        )

    def worker_ledger(self, worker: int) -> RoundLedger:
        """``worker``'s replica of the round ledger."""
        return self._worker_ledgers[worker]

    def restore_worker_ledger(
        self, worker: int, entries: Sequence[LedgerEntry]
    ) -> None:
        """Reload ``worker``'s ledger replica from a checkpoint (the
        restart fault's recovery path; a plain rejoin starts empty)."""
        self._worker_ledgers[worker] = RoundLedger(entries)

    @property
    def alive_workers(self) -> list[int]:
        """Workers whose process is running (may include workers the
        master has partitioned away and declared dead — see
        :attr:`roster` for the coordinating fleet)."""
        return [i for i in range(self.num_workers) if self._alive[i]]

    @property
    def roster(self) -> list[int]:
        """The fleet the master currently coordinates: alive workers
        that have not been declared dead. The allocation sums to 1 over
        exactly this set."""
        return sorted(self.master.worker_ids)

    @property
    def allocation(self) -> np.ndarray:
        """The workload vector currently held across the workers."""
        return np.array([w.x for w in self.workers])

    @property
    def alpha(self) -> float:
        return self.master.alpha

    @property
    def metrics(self):
        """Network metrics (message/byte counts) for §IV-C."""
        return self.cluster.metrics

    @property
    def fast_rounds(self) -> int:
        """Rounds run on the batched fast path."""
        return self.route_counts["flat"]

    @property
    def fallback_rounds(self) -> int:
        """Rounds run on the event engine."""
        return self.route_counts["event"]

    def _check_flat(self) -> str | None:
        """The batched fast path needs the full roster healthy (nobody
        crashed or declared dead) and a chaos-free cluster with no
        frames in flight; an embedded master co-locates worker 0, which
        already disqualifies the cluster (see
        :meth:`~repro.net.cluster.Cluster.batch_eligible`)."""
        if not self.use_fast_path:
            return "fast path disabled"
        if not all(self._alive):
            return "dead workers"
        if len(self.master.worker_ids) != self.num_workers:
            return "workers declared dead"
        if not self.cluster.batch_eligible():
            return "cluster not batch-eligible"
        return None

    def _run_round_fast(
        self, round_index: int, costs: Sequence[CostFunction]
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """One healthy round as four batched phases (Algorithm 1 verbatim).

        Bit-identical to the event-engine round: link delays are drawn in
        frame order (one draw per phase), the master coordinates at the
        last cost arrival, decisions go out in coord-arrival order, and
        the closing sum runs in ``worker_ids`` order exactly as the
        master's Eq. (6) does.
        """
        n = self.num_workers
        workers = self.workers
        master = self.master
        if self._batched is None:
            self._batched = self.cluster.batched()
        batched = self._batched
        ids = np.arange(n)
        master_col = np.full(n, self.master_id)
        t0 = self.cluster.engine.now
        x = x_played = self.allocation
        vector = as_cost_vector(costs)
        local = vector.values(x)

        # Phase 1 (line 4): every worker reports its cost to the master.
        cost_batch = FrameBatch(TAG_COST, ids, master_col, {"l": local}, round_index)
        cost_arrivals = batched.deliver(cost_batch, t0)
        coordinate_time = float(cost_arrivals.max())

        # Lines 9-11: the master coordinates at the last cost arrival.
        straggler = int(identify_straggler(local))
        global_cost = float(local[straggler])
        alpha = master.alpha

        # Phase 2 (line 12): coord fan-out in worker_ids order.
        coord_batch = FrameBatch(
            TAG_COORD, master_col, ids,
            {
                "l": np.full(n, global_cost),
                "alpha": np.full(n, alpha),
                "is_straggler": (ids == straggler).astype(float),
            },
            round_index,
        )
        coord_arrivals = batched.deliver(coord_batch, coordinate_time)

        # Lines 5-6: risk-averse update at the non-stragglers.
        x_prime = np.minimum(vector.max_acceptable(global_cost), 1.0)
        x_prime = np.maximum(x_prime, x)
        x_new = x - alpha * (x - x_prime)

        # Phase 3 (lines 7, 13): decisions return in coord-arrival order
        # (ties by the coord frames' send sequence = worker order).
        non_stragglers = np.delete(ids, straggler)
        send_order = np.lexsort(
            (non_stragglers, coord_arrivals[non_stragglers])
        )
        senders = non_stragglers[send_order]
        decision_batch = FrameBatch(
            TAG_DECISION, senders, np.full(n - 1, self.master_id),
            {"x": x_new[senders]}, round_index,
        )
        decision_arrivals = batched.deliver(
            decision_batch, coord_arrivals[senders]
        )

        # Lines 14-15: Eq. (6) closes the simplex in worker_ids order.
        total = 0.0
        for w in range(n):
            if w != straggler:
                total += x_new[w]
        x_straggler = 1.0 - total
        if x_straggler < -1e-9:
            raise ProtocolError(
                f"straggler workload went negative ({x_straggler:.3e}); the "
                "verbatim Eq. (7) cap was insufficient this round (see "
                "Dolbie.exact_feasibility_guard)"
            )
        x_straggler = float(x_straggler) if x_straggler >= 1e-12 else 0.0

        # Phase 4: the assignment, sent at the last decision arrival.
        assign_batch = FrameBatch(
            TAG_ASSIGN, np.array([self.master_id]), np.array([straggler]),
            {"x": np.array([x_straggler])}, round_index,
        )
        assign_arrival = batched.deliver(
            assign_batch, float(decision_arrivals.max())
        )
        master.alpha = min(master.alpha, feasibility_cap(x_straggler, n))  # Eq. (7)
        x_new[straggler] = x_straggler

        # Write the post-round state the event engine would leave behind.
        cost_order = np.lexsort((ids, cost_arrivals))
        decision_order = np.lexsort((np.arange(n - 1), decision_arrivals))
        master.current_round = round_index
        master._coordinated = True
        master.global_cost = global_cost
        master.straggler = straggler
        master._costs = {int(w): float(local[w]) for w in cost_order}
        master._decisions = {
            int(w): float(x_new[w]) for w in senders[decision_order]
        }
        for i, worker in enumerate(workers):
            worker.current_round = round_index
            worker.cost_fn = costs[i]
            worker.local_cost = float(local[i])
            worker.x = float(x_new[i])

        final_now = max(
            float(assign_arrival[0]), float(coord_arrivals[straggler])
        )
        batched.finish_round(final_now, 3 * n)
        return x_played, local, global_cost, straggler

    def run_round(
        self, round_index: int, costs: Sequence[CostFunction]
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """Execute one full protocol round; returns (x_played, l, l_t, s_t)."""
        if len(costs) != self.num_workers:
            raise ConfigurationError(
                f"round {round_index}: {len(costs)} costs for {self.num_workers} workers"
            )
        tracer = self.tracer
        if tracer is not None:
            self.cluster.trace_round = round_index
            engine = self.cluster.engine
            start_time = engine.now
            start_events = engine.processed_events
            roster_before = self.roster
        route, self.last_route = choose_route(self.ROUTES, self)
        self.route_counts[route.name] += 1
        with round_span(self.profiler, route):
            result = route.run(self, round_index, costs)
        entry = LedgerEntry(
            round_index=round_index,
            straggler=int(result[3]),
            global_cost=float(result[2]),
            roster=tuple(self.roster),
        )
        self.ledger.append(entry)
        for worker in entry.roster:
            self._worker_ledgers[worker].append(entry)
        if tracer is not None:
            roster_after = self.roster
            if roster_after != roster_before:
                emit_membership(
                    tracer, round_index, "declare_dead",
                    sorted(set(roster_before) - set(roster_after)),
                    roster_after,
                )
            emit_round(
                tracer, round_index, result[0], result[1], result[2],
                result[3], self.allocation, start_time, start_events,
                self.cluster.engine,
            )
        return result

    def _run_round_event(
        self, round_index: int, costs: Sequence[CostFunction]
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        """One round on the discrete-event engine (the general path)."""
        x_played = self.allocation
        # A rostered worker is only responsive if its process runs AND no
        # partition separates it from the master; otherwise the failure
        # detector must be armed so its silence folds this round.
        expected = list(self.master.worker_ids)
        responsive = [
            w
            for w in expected
            if self._alive[w] and self.cluster.can_communicate(w, self.master_id)
        ]
        self.master.begin_round(
            round_index,
            arm_failure_detector=len(responsive) < len(expected),
        )
        for worker, cost_fn in zip(self.workers, costs):
            # Workers previously declared dead (crashed, or cut off by a
            # partition) stay out of the round until rejoin_worker
            # re-admits them: a zombie's late report would be a protocol
            # violation at the master.
            if self._alive[worker.node_id] and worker.node_id in expected:
                worker.observe_round(round_index, cost_fn)
        # A healthy round delivers 3N frames (cost, coord, decision,
        # assign) plus at most one failure-detector timeout; 4x headroom
        # plus slack mirrors the fully-distributed computed budget.
        budget = 4 * (3 * self.num_workers + 1) + 50
        self.cluster.run(max_events=budget)
        # Zero out the shares of workers the master declared dead: their
        # workload was folded into this round's straggler assignment.
        for worker_id in self.master.declared_dead:
            self.workers[worker_id].x = 0.0
        roster = set(self.master.worker_ids)
        local = np.array(
            [
                w.local_cost
                if self._alive[w.node_id] and w.node_id in roster
                else np.nan
                for w in self.workers
            ]
        )
        assert self.master.global_cost is not None and self.master.straggler is not None
        return x_played, local, self.master.global_cost, self.master.straggler

    #: Routes in preference order: a round takes the first whose check
    #: accepts it (see :mod:`repro.protocols.routes`).
    ROUTES = (
        Route("flat", _check_flat, _run_round_fast),
        Route("event", always, _run_round_event),
    )

    def run(self, process: CostProcess, horizon: int) -> RunResult:
        """Drive the protocol for ``horizon`` rounds; mirrors ``run_online``."""
        n = self.num_workers
        if self.tracer is not None:
            # Engine identity lives in the header only: the payload
            # records must diff empty between the fast path and the
            # event engine (headers are excluded by default).
            self.tracer.header(
                self.name, n, horizon,
                fast_path=self.use_fast_path,
                embedded_master=self.embedded_master,
            )
        allocations = np.empty((horizon, n))
        local = np.empty((horizon, n))
        global_costs = np.empty(horizon)
        stragglers = np.empty(horizon, dtype=int)
        for t in range(1, horizon + 1):
            x, l, l_t, s_t = self.run_round(t, process.costs_at(t))
            allocations[t - 1] = x
            local[t - 1] = l
            global_costs[t - 1] = l_t
            stragglers[t - 1] = s_t
        return RunResult(
            algorithm=self.name,
            num_workers=n,
            horizon=horizon,
            allocations=allocations,
            local_costs=local,
            global_costs=global_costs,
            stragglers=stragglers,
            decision_seconds=np.zeros(horizon),
        )
