"""The vectorized open-loop serving dispatcher.

Routes a streamed arrival trace (:mod:`repro.serving.arrivals`) across
``N`` workers modeled as M/M/1-style FIFO queues, under a pluggable
routing policy (:mod:`repro.serving.policies`), and reports tail latency
and SLO attainment through :mod:`repro.serving.quantiles` and
:mod:`repro.obs` trace records.

Queueing model
--------------
Worker ``i`` serves requests FIFO at rate ``mu_i``; a request arriving
at ``a`` with service time ``s`` departs at ``d = max(a, d_prev) + s``
(the Lindley recursion) and its latency (sojourn) is ``d - a``. Service
times are exponential, drawn from one dedicated substream as ``Exp(1) /
mu[assigned]`` — exactly one draw per request regardless of assignment,
so seeded reruns and checkpoint resumes consume the stream identically.

For weight-based policies the recursion is vectorized per segment: with
``cs`` the within-segment cumulative service time of one worker's
requests, ``d_k = cs_k + max(d_0, max_{j<=k}(a_j - cs_{j-1}))`` — a
``cumsum`` plus a ``maximum.accumulate``, run for every worker at once
on the rows of a padded matrix (:class:`LindleyRows`). The
segment split points (control-period boundaries, crash times, chunk
edges) are deterministic, so two seeded runs with the same chunk size —
including a run resumed from a checkpoint at a chunk boundary — produce
bit-identical latencies.

Control plane
-------------
At every control-period boundary the dispatcher builds per-worker
analytic sojourn-cost curves (one :class:`~repro.costs.nonlinear.
SaturatingQueueingCostVector` at the period's measured arrival rate; a
dead worker costs :data:`~repro.costs.nonlinear.DEAD_WORKER_COST`, so it
stays the straggler while routing masks it) and hands them to the policy's
``control_update`` — one online round of problem (1) for the
DOLBIE-backed policies, a no-op for JSQ/P2C/WRR.

Fault model
-----------
``crashes`` kills workers at fixed times. A dead worker is immediately
removed from the routing set (weights renormalize over survivors;
JSQ/P2C stop probing it) — the chaos invariant is that **no request is
ever routed to a dead worker after its crash fires**, pinned by
:attr:`ServingSimulator.death_dispatch`. In fault mode latency recording
is deferred until a request's departure time has passed, so requests
still queued at a crashed worker are counted ``failed`` instead of
completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.costs.nonlinear import SaturatingQueueingCostVector
from repro.exceptions import CheckpointError, ConfigurationError, SimulationError
from repro.obs.records import (
    MembershipRecord,
    ServingPeriodRecord,
    ServingSummaryRecord,
    float_tuple,
    int_tuple,
)
from repro.obs.tracer import Tracer
from repro.serving.arrivals import DEFAULT_CHUNK, ArrivalProcess
from repro.serving.policies import GOLDEN, RoutingPolicy
from repro.serving.quantiles import ExactQuantiles, QuantileSketch
from repro.utils.rng import spawn_rng

__all__ = ["WorkerCrash", "ServingSummary", "ServingSimulator"]

#: Quantiles every summary reports.
SUMMARY_QUANTILES = (0.50, 0.99, 0.999)


@dataclass(frozen=True)
class WorkerCrash:
    """Kill ``worker`` at simulated ``time`` (seconds)."""

    time: float
    worker: int


@dataclass(frozen=True)
class ServingSummary:
    """End-of-run metrics of one policy on one trace."""

    policy: str
    num_workers: int
    requests: int
    completed: int
    failed: int
    duration: float  #: timestamp of the last arrival
    p50: float
    p99: float
    p999: float
    mean_latency: float
    slo: float
    slo_attainment: float  #: fraction of completed requests within SLO
    quantile_mode: str
    periods: int  #: control periods fully elapsed

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.duration if self.duration > 0 else 0.0


class LindleyRows:
    """One segment's Lindley recursion over every worker at once.

    Each busy worker's requests, in arrival order, fill one row of a
    zero-padded matrix, so one ``cumsum(axis=1)`` and one
    ``maximum.accumulate(axis=1)`` run the recursion for all of them.
    Both accumulate sequentially along a row and a row's padding comes
    after its requests, so every departure is the same sum, in the same
    order, as a 1-D pass over that worker alone.

    A worker with ``k`` requests gets a row of ``2^ceil(log2 k)`` cells,
    and the rows of one width form one matrix. Every row is under twice
    its request count, so a segment of ``m`` requests pads to fewer than
    ``2 m`` cells however skewed the weights (a single ``N x m`` matrix
    would hold ``N m``). Rows run in (width, worker) order: ``workers``
    lists the busy workers in that order, ``row_of`` maps a worker to its
    row and ``ends`` holds the running request count at each row's end.
    """

    __slots__ = ("workers", "row_of", "counts", "ends", "cells", "_cell", "_blocks")

    def __init__(self, counts: np.ndarray) -> None:
        busy = np.flatnonzero(counts)
        # Smallest power of two >= k: 2 ** bit_length(k - 1).
        widths = np.int64(1) << np.frexp(counts[busy] - 1)[1]
        by_width = np.argsort(widths, kind="stable")
        self.workers = busy[by_width]
        widths = widths[by_width]
        self.counts = counts[self.workers]
        self.row_of = np.zeros(counts.size, dtype=np.intp)
        self.row_of[self.workers] = np.arange(self.workers.size)
        self.ends = np.cumsum(self.counts)
        row_cell = np.cumsum(widths) - widths  # each row's first cell
        self.cells = int(row_cell[-1] + widths[-1])
        # Flat cell of each request (grouped by row): row start + rank.
        self._cell = np.arange(int(self.ends[-1])) + np.repeat(
            row_cell - (self.ends - self.counts), self.counts
        )
        # (first cell, first row, last row + 1, width) of each matrix.
        firsts = [0] + (np.flatnonzero(np.diff(widths)) + 1).tolist()
        self._blocks = [
            (int(row_cell[r0]), r0, r1, int(widths[r0]))
            for r0, r1 in zip(firsts, firsts[1:] + [widths.size])
        ]

    def departures(
        self, arrivals: np.ndarray, service: np.ndarray, dep0: np.ndarray
    ) -> np.ndarray:
        """Departures of requests grouped by row (as ``arrivals`` and
        ``service`` are), each queue continuing from ``dep0[worker]``;
        ``dep0`` is left holding every busy worker's last departure."""
        cell = self._cell
        srv = np.zeros(self.cells)
        srv[cell] = service
        arr = np.zeros(self.cells)
        arr[cell] = arrivals
        start = dep0[self.workers]
        dep = np.empty(self.cells)
        for lo, r0, r1, width in self._blocks:
            hi = lo + (r1 - r0) * width
            s = srv[lo:hi].reshape(r1 - r0, width)
            a = arr[lo:hi].reshape(r1 - r0, width)
            # d_k = cs_k + max(d_0, max_{j<=k} (a_j - cs_{j-1}))
            cs = np.cumsum(s, axis=1)
            slack = np.maximum.accumulate(a - (cs - s), axis=1)
            dep[lo:hi] = (cs + np.maximum(slack, start[r0:r1, None])).ravel()
        out = dep[cell]
        dep0[self.workers] = out[self.ends - 1]
        return out


class ServingSimulator:
    """Open-loop dispatcher: stream arrivals through a routing policy."""

    def __init__(
        self,
        arrivals: ArrivalProcess,
        policy: RoutingPolicy,
        service_rates: Sequence[float] | np.ndarray,
        *,
        seed: int = 0,
        control_period: float | None = None,
        slo: float | None = None,
        chunk_size: int = DEFAULT_CHUNK,
        quantile_mode: str = "sketch",
        sketch_size: int = 2048,
        tracer: Tracer | None = None,
        crashes: Sequence[WorkerCrash] = (),
    ) -> None:
        mu = np.asarray(service_rates, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise ConfigurationError(
                f"need >= 2 service rates, got shape {mu.shape}"
            )
        if np.any(~np.isfinite(mu)) or np.any(mu <= 0):
            raise ConfigurationError("service rates must be positive and finite")
        if policy.num_workers != mu.size:
            raise ConfigurationError(
                f"policy is bound to {policy.num_workers} workers, "
                f"got {mu.size} service rates"
            )
        if quantile_mode not in ("sketch", "exact"):
            raise ConfigurationError(
                f"quantile_mode must be 'sketch' or 'exact', got {quantile_mode!r}"
            )
        self.arrivals = arrivals
        self.policy = policy
        self.mu = mu
        self.num_workers = int(mu.size)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        self.quantile_mode = quantile_mode
        self.tracer = tracer
        if control_period is None:
            # ~25 N arrivals per control round at the nominal rate.
            control_period = 25.0 * self.num_workers / arrivals.rate
        if control_period <= 0:
            raise ConfigurationError(
                f"control_period must be positive, got {control_period}"
            )
        self.control_period = float(control_period)
        if slo is None:
            # 3x the sojourn a perfectly equalized fleet would sustain.
            slack = max(float(mu.sum()) - arrivals.rate, 0.05 * float(mu.sum()))
            slo = 3.0 * self.num_workers / slack
        if slo <= 0:
            raise ConfigurationError(f"slo must be positive, got {slo}")
        self.slo = float(slo)

        self.store: QuantileSketch | ExactQuantiles
        if quantile_mode == "sketch":
            self.store = QuantileSketch(max_summary=sketch_size)
        else:
            self.store = ExactQuantiles()
        self._service_rng = spawn_rng(self.seed, "serving.service")

        # Crash schedule: strictly validated, sorted by time.
        crash_list = sorted(crashes, key=lambda c: (c.time, c.worker))
        seen: set[int] = set()
        for crash in crash_list:
            if not 0 <= crash.worker < self.num_workers:
                raise ConfigurationError(
                    f"crash names worker {crash.worker} of {self.num_workers}"
                )
            if crash.worker in seen:
                raise ConfigurationError(
                    f"worker {crash.worker} crashes twice"
                )
            if crash.time <= 0:
                raise ConfigurationError(
                    f"crash time must be positive, got {crash.time}"
                )
            seen.add(crash.worker)
        if len(seen) >= self.num_workers:
            raise ConfigurationError("crash schedule kills every worker")
        self.crashes = tuple(crash_list)
        self._crash_idx = 0
        #: worker -> dispatched count frozen at its crash (the chaos
        #: invariant: this must equal the final count for dead workers).
        self.death_dispatch: dict[int, int] = {}
        # Fault mode defers recording until departures are in the past;
        # per worker: a list of (departures, latencies) array pairs.
        self._pending: list[list[tuple[np.ndarray, np.ndarray]]] | None = (
            [[] for _ in range(self.num_workers)] if self.crashes else None
        )

        # Evolving run state.
        self.alive = np.ones(self.num_workers, dtype=bool)
        self.dispatched = np.zeros(self.num_workers, dtype=np.int64)
        self._dep = np.zeros(self.num_workers)  # last departure per worker
        self.request_index = 0  # total requests dispatched so far
        self.completed = 0
        self.failed = 0
        self.slo_hits = 0
        self._lat_sum = 0.0
        self._period = 1
        self._period_arrivals = 0
        self._period_completed = 0
        self._period_lat_sum = 0.0
        self._period_dispatched = np.zeros(self.num_workers, dtype=np.int64)
        self._period_lats: list[np.ndarray] = []  # tracer-only
        self._finalized = False

    # -- driving -----------------------------------------------------------
    def run(self, total_requests: int) -> ServingSummary:
        """Stream ``total_requests`` arrivals through the dispatcher."""
        for batch in self.arrivals.stream(total_requests, self.chunk_size):
            self.process(batch)
        return self.finalize()

    def process(self, times: np.ndarray) -> None:
        """Dispatch one chunk of arrival timestamps, firing control-period
        and crash events that fall inside or before it."""
        i, n = 0, len(times)
        while i < n:
            event_time, kind = self._next_event()
            if event_time is not None and event_time <= times[i]:
                self._fire(kind)
                continue
            if event_time is None:
                j = n
            else:
                j = i + int(
                    np.searchsorted(times[i:], event_time, side="left")
                )
            segment = times[i:j]
            if self.policy.is_sequential:
                self._dispatch_sequential(segment)
            else:
                self._dispatch_weighted(segment)
            i = j

    def finalize(self) -> ServingSummary:
        """Flush deferred completions, emit final records, summarize."""
        if self._finalized:
            raise SimulationError("serving run already finalized")
        self._finalized = True
        if self._pending is not None:
            self._flush_pending(np.inf)
        tracer = self.tracer
        if tracer is not None and self._period_arrivals > 0:
            self._emit_period_record()
        summary = self.summary()
        if tracer is not None:
            tracer.emit(
                ServingSummaryRecord(
                    round=self._period,
                    policy=self.policy.name,
                    requests=summary.requests,
                    completed=summary.completed,
                    failed=summary.failed,
                    p50=summary.p50,
                    p99=summary.p99,
                    p999=summary.p999,
                    mean_latency=summary.mean_latency,
                    slo=summary.slo,
                    slo_attainment=summary.slo_attainment,
                    quantile_mode=summary.quantile_mode,
                )
            )
        return summary

    def summary(self) -> ServingSummary:
        """Metrics over everything recorded so far."""
        if self.completed > 0:
            p50, p99, p999 = (
                float(self.store.query(q)) for q in SUMMARY_QUANTILES
            )
            mean = self._lat_sum / self.completed
            attainment = self.slo_hits / self.completed
        else:
            p50 = p99 = p999 = mean = attainment = 0.0
        return ServingSummary(
            policy=self.policy.name,
            num_workers=self.num_workers,
            requests=int(self.request_index),
            completed=int(self.completed),
            failed=int(self.failed),
            duration=float(self.arrivals.now),
            p50=p50,
            p99=p99,
            p999=p999,
            mean_latency=mean,
            slo=self.slo,
            slo_attainment=attainment,
            quantile_mode=self.quantile_mode,
            periods=self._period - 1,
        )

    # -- events ------------------------------------------------------------
    def _next_event(self) -> tuple[float | None, str]:
        """(time, kind) of the next pending event; crashes beat period
        boundaries on ties so survivors' weights renormalize first."""
        period_end = self._period * self.control_period
        if self._crash_idx < len(self.crashes):
            crash_time = self.crashes[self._crash_idx].time
            if crash_time <= period_end:
                return crash_time, "crash"
        return period_end, "period"

    def _fire(self, kind: str) -> None:
        if kind == "crash":
            self._fire_crash(self.crashes[self._crash_idx])
        else:
            self._fire_period()

    def _fire_crash(self, crash: WorkerCrash) -> None:
        w = crash.worker
        self._crash_idx += 1
        self.alive[w] = False
        if not self.alive.any():
            raise SimulationError("every worker is dead")
        self.death_dispatch[w] = int(self.dispatched[w])
        if self._pending is not None:
            # Requests already at w: departed ones completed, queued fail.
            self._flush_worker(w, crash.time)
            deps, lats = self._take_pending(w)
            self.failed += int(deps.size)
            del lats
        if self.tracer is not None:
            self.tracer.emit(
                MembershipRecord(
                    round=self._period,
                    action="crash",
                    workers=(w,),
                    roster=int_tuple(np.flatnonzero(self.alive)),
                )
            )

    def _fire_period(self) -> None:
        boundary = self._period * self.control_period
        if self._pending is not None:
            self._flush_pending(boundary)
        measured = self._period_arrivals / self.control_period
        lam = measured if measured > 0 else self.arrivals.rate
        self.policy.control_update(self._period, self._control_costs(lam))
        if self.tracer is not None:
            self._emit_period_record()
        self._period += 1
        self._period_arrivals = 0
        self._period_completed = 0
        self._period_lat_sum = 0.0
        self._period_dispatched[:] = 0
        self._period_lats = []

    def _control_costs(self, lam: float) -> SaturatingQueueingCostVector:
        """Per-worker analytic sojourn curves at total arrival rate
        ``lam``; dead workers cost a huge constant (permanent straggler)."""
        return SaturatingQueueingCostVector(self.mu, float(lam), dead=~self.alive)

    def effective_weights(self) -> np.ndarray:
        """The routing distribution the next weighted segment will use:
        policy weights masked to the living roster and renormalized."""
        weights = getattr(self.policy, "weights", None)
        if weights is None:
            base = self.alive.astype(float)
        else:
            base = np.where(self.alive, np.maximum(weights, 0.0), 0.0)
        total = base.sum()
        if total <= 0:
            base = self.alive.astype(float)
            total = base.sum()
        return base / total

    def _emit_period_record(self) -> None:
        if self._period_completed > 0:
            lats = np.sort(np.concatenate(self._period_lats))
            p50 = float(lats[int(round(1 + 0.50 * (lats.size - 1))) - 1])
            p99 = float(lats[int(round(1 + 0.99 * (lats.size - 1))) - 1])
            mean = self._period_lat_sum / self._period_completed
        else:
            p50 = p99 = mean = 0.0
        self.tracer.emit(
            ServingPeriodRecord(
                round=self._period,
                policy=self.policy.name,
                arrivals=int(self._period_arrivals),
                completed=int(self._period_completed),
                weights=float_tuple(self.effective_weights()),
                dispatched=int_tuple(self._period_dispatched),
                p50=p50,
                p99=p99,
                mean_latency=mean,
            )
        )

    # -- dispatch ----------------------------------------------------------
    def _dispatch_weighted(self, times: np.ndarray) -> None:
        m = len(times)
        if m == 0:
            return
        alive_idx = np.flatnonzero(self.alive)
        weights = self.effective_weights()[alive_idx]
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        # Golden-ratio low-discrepancy position of each global request.
        start = self.request_index
        u = (np.arange(start + 1, start + m + 1) * GOLDEN) % 1.0
        assign = alive_idx[np.searchsorted(cum, u, side="right")]
        service = self._service_rng.exponential(1.0, size=m) / self.mu[assign]
        rows = LindleyRows(np.bincount(assign, minlength=self.num_workers))
        # Requests grouped by row, each row's in arrival order.
        order = np.argsort(rows.row_of[assign], kind="stable")
        arrivals = times[order]
        dep = rows.departures(arrivals, service[order], self._dep)
        lat = dep - arrivals
        latencies = np.empty(m)
        latencies[order] = lat
        if self._pending is not None:
            self._defer(rows.workers, rows.ends[:-1], dep, lat)
        self._account(times, assign, latencies, deferred=self._pending is not None)

    def _dispatch_sequential(self, times: np.ndarray) -> None:
        m = len(times)
        if m == 0:
            return
        alive_idx = np.flatnonzero(self.alive)
        dep = self._dep
        mu = self.mu
        # One Exp(1) draw per request, identical stream consumption to
        # the weighted path.
        service_std = self._service_rng.exponential(1.0, size=m)
        assign = np.empty(m, dtype=np.int64)
        departures = np.empty(m)
        latencies = np.empty(m)
        select = self.policy.select
        for k in range(m):
            t = times[k]
            backlogs = np.maximum(dep[alive_idx] - t, 0.0)
            w = int(alive_idx[select(backlogs)])
            d = max(t, dep[w]) + service_std[k] / mu[w]
            dep[w] = d
            assign[k] = w
            departures[k] = d
            latencies[k] = d - t
        if self._pending is not None:
            order = np.argsort(assign, kind="stable")
            workers, firsts = np.unique(assign[order], return_index=True)
            self._defer(
                workers, firsts[1:], departures[order], latencies[order]
            )
        self._account(times, assign, latencies, deferred=self._pending is not None)

    def _account(
        self,
        times: np.ndarray,
        assign: np.ndarray,
        latencies: np.ndarray,
        deferred: bool,
    ) -> None:
        m = len(times)
        counts = np.bincount(assign, minlength=self.num_workers).astype(np.int64)
        self.dispatched += counts
        self._period_dispatched += counts
        self._period_arrivals += m
        self.request_index += m
        if not deferred:
            self._record(latencies)

    def _record(self, latencies: np.ndarray) -> None:
        """Count a batch of completed requests into every metric sink."""
        if latencies.size == 0:
            return
        self.store.add(latencies)
        self.completed += int(latencies.size)
        self.slo_hits += int(np.count_nonzero(latencies <= self.slo))
        total = float(latencies.sum())
        self._lat_sum += total
        self._period_completed += int(latencies.size)
        self._period_lat_sum += total
        if self.tracer is not None:
            self._period_lats.append(latencies)

    # -- deferred completion (fault mode) ----------------------------------
    def _defer(
        self,
        workers: np.ndarray,
        bounds: np.ndarray,
        deps: np.ndarray,
        lats: np.ndarray,
    ) -> None:
        """Queue one segment's requests, grouped by worker and split at
        ``bounds``: one (departures, latencies) pair per worker."""
        bounds = bounds.tolist()
        for w, d, l in zip(
            workers.tolist(), np.split(deps, bounds), np.split(lats, bounds)
        ):
            self._pending[w].append((d, l))

    def _take_pending(self, worker: int) -> tuple[np.ndarray, np.ndarray]:
        entries = self._pending[worker]
        if not entries:
            return np.empty(0), np.empty(0)
        deps = np.concatenate([d for d, _ in entries])
        lats = np.concatenate([l for _, l in entries])
        self._pending[worker] = []
        return deps, lats

    def _flush_worker(self, worker: int, until: float) -> None:
        deps, lats = self._take_pending(worker)
        if deps.size == 0:
            return
        done = deps <= until
        self._record(lats[done])
        if not done.all():
            self._pending[worker].append((deps[~done], lats[~done]))

    def _flush_pending(self, until: float) -> None:
        for w in range(self.num_workers):
            self._flush_worker(w, until)

    # -- checkpoint support ------------------------------------------------
    def capture_state(self) -> dict:
        """Snapshot the dispatcher between chunks (JSON-able).

        Only legal at chunk boundaries: mid-chunk the segment split
        points would differ on resume and the vectorized Lindley sums
        would re-associate.
        """
        import copy

        state: dict[str, Any] = {
            "schema": 1,
            "arrivals": self.arrivals.capture_state(),
            "policy": self.policy.capture_state(),
            "store": self.store.capture_state(),
            "service_rng": copy.deepcopy(self._service_rng.bit_generator.state),
            "dep": [float(v) for v in self._dep],
            "alive": [bool(v) for v in self.alive],
            "dispatched": [int(v) for v in self.dispatched],
            "request_index": int(self.request_index),
            "completed": int(self.completed),
            "failed": int(self.failed),
            "slo_hits": int(self.slo_hits),
            "lat_sum": float(self._lat_sum),
            "period": int(self._period),
            "period_arrivals": int(self._period_arrivals),
            "period_completed": int(self._period_completed),
            "period_lat_sum": float(self._period_lat_sum),
            "period_dispatched": [int(v) for v in self._period_dispatched],
            "crash_idx": int(self._crash_idx),
            "death_dispatch": {
                str(k): int(v) for k, v in self.death_dispatch.items()
            },
        }
        if self.tracer is not None:
            state["period_lats"] = [
                [float(v) for v in arr] for arr in self._period_lats
            ]
        if self._pending is not None:
            state["pending"] = [
                [
                    ([float(v) for v in deps], [float(v) for v in lats])
                    for deps, lats in entries
                ]
                for entries in self._pending
            ]
        return state

    def restore_state(self, state: Mapping[str, Any]) -> None:
        import copy

        if state.get("schema") != 1:
            raise CheckpointError(
                f"unknown serving snapshot schema {state.get('schema')!r}"
            )
        self.arrivals.restore_state(state["arrivals"])
        self.policy.restore_state(state["policy"])
        self.store.restore_state(state["store"])
        self._service_rng.bit_generator.state = copy.deepcopy(
            dict(state["service_rng"])
        )
        self._dep = np.asarray(state["dep"], dtype=float)
        self.alive = np.asarray(state["alive"], dtype=bool)
        self.dispatched = np.asarray(state["dispatched"], dtype=np.int64)
        self.request_index = int(state["request_index"])
        self.completed = int(state["completed"])
        self.failed = int(state["failed"])
        self.slo_hits = int(state["slo_hits"])
        self._lat_sum = float(state["lat_sum"])
        self._period = int(state["period"])
        self._period_arrivals = int(state["period_arrivals"])
        self._period_completed = int(state["period_completed"])
        self._period_lat_sum = float(state["period_lat_sum"])
        self._period_dispatched = np.asarray(
            state["period_dispatched"], dtype=np.int64
        )
        self._crash_idx = int(state["crash_idx"])
        self.death_dispatch = {
            int(k): int(v) for k, v in state["death_dispatch"].items()
        }
        if self.tracer is not None and "period_lats" in state:
            self._period_lats = [
                np.asarray(arr, dtype=float) for arr in state["period_lats"]
            ]
        if self._pending is not None and "pending" in state:
            self._pending = [
                [
                    (
                        np.asarray(deps, dtype=float),
                        np.asarray(lats, dtype=float),
                    )
                    for deps, lats in entries
                ]
                for entries in state["pending"]
            ]
        self._finalized = False

    def __repr__(self) -> str:
        return (
            f"ServingSimulator(policy={self.policy.name!r}, "
            f"N={self.num_workers}, dispatched={self.request_index})"
        )
