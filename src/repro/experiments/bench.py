"""Perf-regression benchmarks: ``python -m repro bench``.

Each entry times a candidate path against a reference and reports one
record: the best reference seconds, the best candidate seconds, their
ratio, and the entry's gate from :data:`GATES`. A gate is one of

* ``floor`` — the ratio may fall at most ``tolerance`` (default 30%)
  below the committed baseline's. Ratios are stable across machines of
  different absolute speed, so shared CI runners can enforce "the fast
  path stays ~this much faster than the reference path";
* ``ceiling`` — the ratio must stay at or below a fixed value. These
  entries measure an overhead: the reference leg carries it, the
  candidate leg is the same work without it;
* ``budget`` — the candidate must finish within a fixed number of
  seconds. There is no reference leg; the record's reference is the
  budget itself, so its ratio is the headroom (below 1 fails).

Results go to ``BENCH_results.json`` (compared against the committed
baseline) and one line per run to ``BENCH_history.jsonl``. See
``docs/performance.md`` for the entries and how to refresh the baseline
after intentional performance changes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.experiments.config import QUICK, ExperimentScale

__all__ = [
    "BENCH",
    "GATES",
    "Gate",
    "PROTOCOL_SCALES",
    "BenchmarkResult",
    "run_benchmarks",
    "write_results",
    "append_history",
    "load_results",
    "compare_to_baseline",
    "main",
]

#: Benchmark scale: QUICK with fewer realizations but a longer horizon,
#: so steady-state throughput dominates per-run setup costs. Measured
#: wall-clock excludes the noisy decision-overhead laps
#: (``include_overhead=False``) so reruns are comparable.
BENCH = replace(
    QUICK,
    label="bench",
    realizations=3,
    rounds=400,
    accuracy_rounds=600,
    include_overhead=False,
)

def _machine_context() -> dict:
    """The machine block stamped into results and history lines: the
    hardware identity a wall-clock number from this machine depends on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


#: Results-file schema version (bump on incompatible layout changes).
SCHEMA = 2


class Gate(NamedTuple):
    """How one entry passes: ``kind`` is ``floor``, ``ceiling`` or
    ``budget``; ``limit`` is the ceiling ratio or the budget in seconds
    (a floor's limit is the committed baseline's ratio)."""

    kind: str
    limit: float | None = None


FLOOR = Gate("floor")

#: Worker counts of the protocol-scaling suite (event engine vs. the
#: batched fast path); rounds per timed leg are scaled down with N so the
#: event-engine reference leg stays bounded.
PROTOCOL_SCALES = {30: 60, 100: 20, 300: 5}

#: Tree rounds at scale: ``{N: rounds}`` per timed leg, each leg building
#: its protocol and running the rounds on the aggregation tree.
TREE_SCALES = {1000: 10, 3000: 3}

#: One steady tree round at N=100,000.
TREE_SMOKE_N = 100_000

#: Struct-of-arrays roster construction at the paper's next wall: a
#: million-peer protocol must be *constructible* in bounded time, and
#: the store's packed arrays must stay O(N) compact.
PEERSTORE_CONSTRUCT_N = 1_000_000
PEERSTORE_ARRAYS_CEILING_BYTES = 200 * 2**20

#: The crash-round check: after ``crash_worker`` an N=128 tree protocol
#: runs one failure-detection round, which must cost at most
#: :data:`CHURN_MAX_RATIO` steady tree rounds — a crash costs a fixed
#: number of array passes, not an O(N^2) event-engine round.
CHURN_N = 128
CHURN_MAX_RATIO = 5.0

#: Serving throughput benchmark sizing: the vectorized dispatcher at N=32
#: with DOLBIE control enabled.
SERVING_BENCH_N = 32
SERVING_BENCH_REQUESTS = 200_000

#: Every entry's gate.
#:
#: - ``obs_overhead``: instrumented-but-disabled tracing over an
#:   uninstrumented replica of the same loop; above the ceiling the
#:   tracing hooks cost real time even when off, a violation of the
#:   zero-overhead contract of :mod:`repro.obs`.
#: - ``ckpt_overhead``: the amortized durability tax of
#:   ``--checkpoint-every`` at the recommended cadence (one snapshot per
#:   200 rounds at fig4 scale).
#: - ``proto_fd_flat_pairs_n32``: per-pair message accounting on steady
#:   N=32 flat FD rounds (the serving control plane's size), folded every
#:   round over never read.
#: - ``proto_fd_tree_n{1000,3000}``: the tree legs, protocol
#:   construction included.
#: - ``serving_throughput``: 200,000 requests in 2 s is the 100,000
#:   dispatched req/s below which the "millions of requests" story stops
#:   being streamable.
GATES: dict[str, Gate] = {
    "micro_costs_at": FLOOR,
    "micro_minmax_solve": FLOOR,
    "obs_overhead": Gate("ceiling", 1.03),
    "ckpt_overhead": Gate("ceiling", 1.05),
    "sweep_fig4_stacked": FLOOR,
    "materialize_cache": FLOOR,
    **{
        f"proto_{arch}_n{n}": FLOOR
        for arch in ("mw", "fd")
        for n in PROTOCOL_SCALES
    },
    "proto_fd_tree_n1000": Gate("budget", 0.25),
    "proto_fd_tree_n3000": Gate("budget", 0.25),
    "proto_fd_flat_pairs_n32": Gate("ceiling", 1.25),
    f"proto_fd_churn_n{CHURN_N}": FLOOR,
    f"proto_fd_tree_n{TREE_SMOKE_N}": Gate("budget", 10.0),
    "peerstore_construct_n1e6": Gate("budget", 10.0),
    "serving_throughput": Gate("budget", 2.0),
}


@dataclass(frozen=True)
class BenchmarkResult:
    """One entry's timing record."""

    name: str
    reference_s: float  #: best reference leg; a budget entry's budget
    candidate_s: float  #: best candidate leg
    ratio: float  #: reference over candidate (or the entry's estimate of it)
    rounds: int  #: total algorithm-rounds executed per timed leg
    gate: Gate = FLOOR
    #: process peak RSS (bytes) sampled right after this benchmark ran —
    #: a high-water mark, so the first benchmark to allocate a big
    #: working set dominates every later entry. 0 when unavailable.
    peak_rss_bytes: int = 0

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.candidate_s


def _result(
    name: str,
    reference_s: float,
    candidate_s: float,
    rounds: int,
    ratio: float | None = None,
) -> BenchmarkResult:
    """The record for ``name``, gated by its :data:`GATES` entry."""
    return BenchmarkResult(
        name=name,
        reference_s=reference_s,
        candidate_s=candidate_s,
        ratio=reference_s / candidate_s if ratio is None else ratio,
        rounds=rounds,
        gate=GATES[name],
    )


def _within_budget(name: str, seconds: float, rounds: int) -> BenchmarkResult:
    """A budget entry's record: its budget stands in for the reference."""
    return _result(name, GATES[name].limit, seconds, rounds)


def _peak_rss_bytes() -> int:
    """Process-lifetime peak resident set size in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; other
    platforms (or a missing ``resource`` module) report 0 rather than
    guessing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


def _time_once(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired(
    name: str,
    reference: Callable[[], object],
    candidate: Callable[[], object],
    repetitions: int,
    rounds: int,
) -> BenchmarkResult:
    """Time both legs, interleaved, best-of-``repetitions`` each.

    The gated statistic is the ratio of the two minima. Timing noise is
    strictly additive, so the minimum over repetitions is the standard
    robust estimate of each leg's true cost: transient bursts are dodged
    outright, and the interleaved execution order means sustained
    machine-wide load (noisy neighbors, frequency scaling) inflates both
    legs' minima roughly equally and mostly cancels in the ratio.
    """
    ref_times, cand_times = [], []
    for _ in range(repetitions):
        ref_times.append(_time_once(reference))
        cand_times.append(_time_once(candidate))
    return _result(name, min(ref_times), min(cand_times), rounds)


def _bench_micro_costs_at(scale: ExperimentScale, repetitions: int) -> BenchmarkResult:
    """Per-round cost revelation: trace walk vs. matrix-row slicing."""
    from repro.mlsim.environment import TrainingEnvironment

    rounds = scale.rounds

    def incremental() -> None:
        env = TrainingEnvironment(
            "ResNet18",
            num_workers=scale.num_workers,
            global_batch=scale.global_batch,
            seed=scale.base_seed,
        )
        for t in range(1, rounds + 1):
            env.costs_at(t)

    def materialized() -> None:
        env = TrainingEnvironment(
            "ResNet18",
            num_workers=scale.num_workers,
            global_batch=scale.global_batch,
            seed=scale.base_seed,
        ).materialize(rounds)
        for t in range(1, rounds + 1):
            env.costs_at(t)

    return _paired("micro_costs_at", incremental, materialized, repetitions, rounds)


def _bench_micro_minmax(scale: ExperimentScale, repetitions: int) -> BenchmarkResult:
    """Instantaneous min-max: level bisection vs. closed-form waterfilling."""
    from repro.minmax.solver import solve_min_max
    from repro.mlsim.environment import TrainingEnvironment

    rounds = scale.rounds
    env = TrainingEnvironment(
        "ResNet18",
        num_workers=scale.num_workers,
        global_batch=scale.global_batch,
        seed=scale.base_seed,
    ).materialize(rounds)
    vectors = [env.costs_at(t) for t in range(1, rounds + 1)]
    lists = [list(vec) for vec in vectors]

    def incremental() -> None:
        for costs in lists:
            solve_min_max(costs)

    def materialized() -> None:
        for costs in vectors:
            solve_min_max(costs)

    return _paired("micro_minmax_solve", incremental, materialized, repetitions, rounds)


def _bench_obs_overhead(repetitions: int) -> BenchmarkResult:
    """Observability overhead with tracing *disabled*.

    Times the instrumented :func:`~repro.core.loop.run_online_costs`
    (``tracer=None``, ``profiler=None``) against a verbatim replica of
    the loop as it existed before the tracing guards were added.

    A 3% ceiling sits far below one-off scheduler noise, so unlike the
    other benchmarks the gated statistic is not a ratio of minima: each
    instrumented leg is paired with an immediately following replica
    leg (so slow bursts hit both), and the ratio is the **median of
    the paired ratios** — empirically stable to ~±2% on a noisy shared
    machine where per-leg minima still drift ~±10%. An accidental
    unguarded record construction costs tens of microseconds per round
    against a ~150µs round, so a real regression lands at 1.1-1.3x and
    clears the 1.03 ceiling by an order of magnitude more than noise.
    ``repetitions`` is ignored: the pair count is fixed where the
    estimator was validated, in quick mode too (the gate must not
    flake in CI).
    """
    import statistics

    from repro.core.dolbie import Dolbie
    from repro.core.interface import make_feedback
    from repro.core.loop import run_online_costs
    from repro.costs.timevarying import RandomAffineProcess
    from repro.utils.timer import Stopwatch

    del repetitions
    pairs = 41
    n, rounds = 100, 300
    speeds = [1.0 + (i % 23) for i in range(n)]
    process = RandomAffineProcess(speeds, sigma=0.1, comm_scale=0.01, seed=5)
    costs_per_round = [process.costs_at(t) for t in range(1, rounds + 1)]

    def instrumented() -> None:
        run_online_costs(Dolbie(n, alpha_1=0.001), costs_per_round)

    def uninstrumented() -> None:
        # Pre-instrumentation loop body, guard-free (same balancer, same
        # recording arrays — only the `if tracer/profiler` checks differ).
        balancer = Dolbie(n, alpha_1=0.001)
        allocations = np.empty((rounds, n))
        local = np.empty((rounds, n))
        global_costs = np.empty(rounds)
        stragglers = np.empty(rounds, dtype=int)
        overhead = np.empty(rounds)
        watch = Stopwatch()
        for t, costs in enumerate(costs_per_round, start=1):
            with watch:
                if balancer.requires_oracle:
                    x_t = balancer.oracle_decide(costs)
                else:
                    x_t = balancer.decide()
            feedback = make_feedback(t, x_t, costs)
            with watch:
                balancer.update(feedback)
            allocations[t - 1] = feedback.allocation
            local[t - 1] = feedback.local_costs
            global_costs[t - 1] = feedback.global_cost
            stragglers[t - 1] = feedback.straggler
            overhead[t - 1] = watch.laps[-2] + watch.laps[-1]

    instrumented()  # warm both paths before timing
    uninstrumented()
    ratios, inc_times, raw_times = [], [], []
    for _ in range(pairs):
        inc = _time_once(instrumented)
        raw = _time_once(uninstrumented)
        inc_times.append(inc)
        raw_times.append(raw)
        ratios.append(inc / raw)
    return _result(
        "obs_overhead", min(inc_times), min(raw_times), rounds,
        ratio=statistics.median(ratios),
    )


def _bench_ckpt_overhead(repetitions: int) -> BenchmarkResult:
    """Checkpoint save overhead on a fig4-scale rolling-restart soak.

    Gates the durability tax of ``--checkpoint-every`` at the cadence
    ``docs/checkpointing.md`` recommends (one snapshot per ~200 rounds
    at fig4 scale, N=30): amortized overhead must stay under 5%.

    Whole-leg pairing is too noisy here: a soak leg runs ~0.4s with
    ±15% scheduler noise, an order of magnitude above the ~3% signal.
    Instead the two components are measured separately — the median
    wall-clock of a plain soak leg and the median wall-clock of one
    snapshot save at the *horizon* (the largest snapshot the soak would
    write, so the estimate is conservative) — and the ratio is the
    amortized ``1 + snapshot / leg``. A uniform machine slowdown
    inflates both medians and cancels; empirically the estimator is
    stable to ~±0.5% where per-leg ratios drift ±15%. ``repetitions``
    is ignored for the same reason as ``obs_overhead``.
    """
    import statistics
    import tempfile

    from repro.chaos.faults import FaultSchedule
    from repro.chaos.injector import ChaosInjector
    from repro.chaos.soak import _soak_snapshot, run_soak
    from repro.ckpt import CheckpointStore
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import ConstantLatency, Link
    from repro.protocols.master_worker import MasterWorkerDolbie

    del repetitions
    num_workers, rounds, saves, legs = 30, 200, 15, 5
    schedule = FaultSchedule.rolling_restart(num_workers, rounds)
    process = RandomAffineProcess(
        speeds=np.linspace(1.0, 2.0, num_workers), seed=17
    )

    def factory() -> MasterWorkerDolbie:
        return MasterWorkerDolbie(
            num_workers, link=Link(ConstantLatency(0.001))
        )

    # Drive one soak to the horizon by hand so the timed snapshot is
    # the biggest one a checkpointed soak would ever write.
    protocol = factory()
    injector = ChaosInjector(protocol, schedule)
    allocations = np.zeros((rounds, num_workers))
    global_costs = np.zeros(rounds)
    for t in range(1, rounds + 1):
        injector.apply(t)
        _, _, global_cost, _ = protocol.run_round(t, process.costs_at(t))
        allocations[t - 1] = protocol.allocation
        global_costs[t - 1] = global_cost

    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp)
        save_times = []
        for _ in range(saves):
            start = time.perf_counter()
            store.save(
                _soak_snapshot(
                    protocol, injector, schedule, rounds, rounds,
                    allocations, global_costs, [],
                )
            )
            save_times.append(time.perf_counter() - start)

    run_soak(factory, schedule, process, rounds)  # warm
    leg_times = []
    for _ in range(legs):
        start = time.perf_counter()
        report = run_soak(factory, schedule, process, rounds)
        leg_times.append(time.perf_counter() - start)
        if not report.ok:
            raise RuntimeError(f"bench soak failed:\n{report.summary()}")

    leg = statistics.median(leg_times)
    snapshot = statistics.median(save_times)
    return _result("ckpt_overhead", leg + snapshot, leg, rounds)


def _bench_protocol(arch: str, n: int, rounds: int, repetitions: int) -> BenchmarkResult:
    """Protocol round loop: event-engine reference vs. batched fast path.

    Both legs replay the identical seeded world (costs and link delays),
    so the ratio isolates the delivery machinery — per-``Message`` heapq
    events vs. struct-of-arrays phases (:mod:`repro.net.batch`).
    """
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie
    from repro.protocols.master_worker import MasterWorkerDolbie

    speeds = [1.0 + (i % 23) for i in range(n)]
    protocol_cls = {
        "fd": FullyDistributedDolbie,
        "mw": MasterWorkerDolbie,
    }[arch]

    def run(fast: bool) -> None:
        process = RandomAffineProcess(
            speeds, sigma=0.1, comm_scale=0.01, seed=n
        )
        link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
        protocol = protocol_cls(n, link=link, use_fast_path=fast)
        protocol.run(process, rounds)

    return _paired(
        f"proto_{arch}_n{n}",
        lambda: run(False),
        lambda: run(True),
        repetitions,
        rounds,
    )


def _bench_protocol_tree(n: int, rounds: int, repetitions: int) -> BenchmarkResult:
    """FD rounds at scale on the aggregation tree, within a budget.

    Each leg builds a fresh protocol and runs ``rounds`` tree rounds on
    the same seeded world; the best leg is held to the entry's budget.
    """
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    speeds = [1.0 + (i % 23) for i in range(n)]

    def run() -> None:
        process = RandomAffineProcess(
            speeds, sigma=0.1, comm_scale=0.01, seed=n
        )
        link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
        protocol = FullyDistributedDolbie(n, link=link, aggregation="tree")
        protocol.run(process, rounds)
        if protocol.tree_rounds != rounds:
            raise RuntimeError(
                f"tree leg fell back to the event engine "
                f"({protocol.tree_rounds}/{rounds} tree rounds)"
            )

    best = min(_time_once(run) for _ in range(repetitions))
    return _within_budget(f"proto_fd_tree_n{n}", best, rounds)


def _bench_protocol_tree_smoke(repetitions: int) -> BenchmarkResult:
    """N=100,000 completion smoke: one tree round within its budget.

    Nothing reads the per-pair counts, so the round builds no pair
    table, and the smoke pins the protocol's memory story, which
    ``peak_rss_bytes`` records. Protocol construction (100k peers, the
    aggregation tree, the frame plans) happens outside the timed window;
    the timing is the round itself.
    """
    from repro.costs.affine_vector import AffineCostVector
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    n, rounds = TREE_SMOKE_N, 1
    speeds = [1.0 + (i % 23) for i in range(n)]
    process = RandomAffineProcess(speeds, sigma=0.1, comm_scale=0.01, seed=n)
    vector = AffineCostVector.coerce(process.costs_at(1))
    link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
    protocol = FullyDistributedDolbie(n, link=link, aggregation="tree")
    state = {"t": 0}

    def one_round() -> None:
        state["t"] += 1
        protocol.run_round(state["t"], vector)

    one_round()  # untimed: builds the tree-round structures + plans
    times = [_time_once(one_round) for _ in range(max(1, min(repetitions, 2)))]
    if protocol.tree_rounds != state["t"]:
        raise RuntimeError(
            f"n{n} smoke fell off the tree path "
            f"({protocol.tree_rounds}/{state['t']} tree rounds)"
        )
    return _within_budget(f"proto_fd_tree_n{n}", min(times), rounds)


def _bench_protocol_churn(repetitions: int) -> BenchmarkResult:
    """The crash round of an N=128 tree protocol: event engine vs the
    production route (the batched failure detection).

    Each leg builds a fresh protocol, runs warm-up
    tree rounds, times steady tree rounds, crashes one worker and times
    the round after the crash — with ``use_fast_path=False`` for that
    round in the reference leg (the event-engine round the detection
    used to take), on the production route in the candidate leg.
    Both legs replay the same seeded costs and link delays. Besides the
    entry's floor, the production crash round, best of at least three
    repetitions, must stay within :data:`CHURN_MAX_RATIO` times the best
    steady tree round.
    """
    from repro.costs.affine_vector import AffineCostVector
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    n, warmup, steady_rounds = CHURN_N, 3, 5
    horizon = warmup + steady_rounds + 1
    speeds = [1.0 + (i % 23) for i in range(n)]
    process = RandomAffineProcess(speeds, sigma=0.1, comm_scale=0.01, seed=n)
    costs = [
        AffineCostVector.coerce(process.costs_at(t))
        for t in range(1, horizon + 1)
    ]

    def leg(production: bool) -> tuple[float, float]:
        """(best steady tree round, crash round) seconds."""
        link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
        protocol = FullyDistributedDolbie(n, link=link, aggregation="tree")
        for t in range(1, warmup + 1):
            protocol.run_round(t, costs[t - 1])
        steady = min(
            _time_once(lambda t=t: protocol.run_round(t, costs[t - 1]))
            for t in range(warmup + 1, horizon)
        )
        protocol.crash_worker(n // 2)
        protocol.use_fast_path = production
        crash = _time_once(lambda: protocol.run_round(horizon, costs[-1]))
        routes = (protocol.detect_rounds, protocol.fallback_rounds)
        if routes != ((1, 0) if production else (0, 1)):
            raise RuntimeError(
                f"crash round took an unexpected route "
                f"(detect/event rounds {routes}, production={production})"
            )
        return steady, crash

    event_s, production_s, steady_s = [], [], []
    for _ in range(max(3, repetitions)):
        event_s.append(leg(False)[1])
        steady, crash = leg(True)
        steady_s.append(steady)
        production_s.append(crash)
    best_event, best_crash = min(event_s), min(production_s)
    best_steady = min(steady_s)
    if best_crash > CHURN_MAX_RATIO * best_steady:
        raise RuntimeError(
            f"n{n} crash round took {best_crash * 1e3:.2f} ms, over "
            f"{CHURN_MAX_RATIO:.0f}x the steady tree round "
            f"({best_steady * 1e3:.2f} ms)"
        )
    return _result(f"proto_fd_churn_n{n}", best_event, best_crash, 1)


def _bench_flat_pairs(repetitions: int) -> BenchmarkResult:
    """Steady N=32 flat FD rounds: pair counts folded every round vs.
    never read.

    Two protocols replay the same seeded costs and link delays; one
    folds its metrics' delivery log into the pair table after every
    round (:meth:`NetworkMetrics.fold
    <repro.net.metrics.NetworkMetrics.fold>`, what every pair read runs
    first), the other never reads its pairs. After warm-up each timed
    leg runs the next ``rounds`` rounds of its protocol, interleaved,
    best of at least five. The ratio is folded over unread, held to a
    ceiling: the per-pair breakdown of the complexity reproduction must
    not cost more than the round it measures.
    """
    from repro.costs.affine_vector import AffineCostVector
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    n, warmup, rounds = 32, 5, 200
    speeds = [1.0 + (i % 23) for i in range(n)]
    process = RandomAffineProcess(speeds, sigma=0.1, comm_scale=0.01, seed=n)
    costs = [AffineCostVector.coerce(process.costs_at(t)) for t in range(1, 51)]

    def build() -> FullyDistributedDolbie:
        link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
        return FullyDistributedDolbie(n, link=link)

    folded, unread = build(), build()

    def leg(protocol: FullyDistributedDolbie, count: int) -> None:
        fold = protocol.metrics.fold if protocol is folded else None
        start = len(protocol.ledger) + 1  # one entry per round run
        for t in range(start, start + count):
            protocol.run_round(t, costs[t % len(costs)])
            if fold is not None:
                fold()
        if protocol.fast_rounds != len(protocol.ledger):
            raise RuntimeError(
                f"n{n} flat leg left the batched route ({protocol.fast_rounds}"
                f"/{len(protocol.ledger)} batched rounds)"
            )

    leg(folded, warmup)
    leg(unread, warmup)
    return _paired(
        f"proto_fd_flat_pairs_n{n}",
        lambda: leg(folded, rounds),
        lambda: leg(unread, rounds),
        max(5, repetitions),
        rounds,
    )


def _bench_peerstore_construct(repetitions: int) -> BenchmarkResult:
    """Construction-only gate for the N=10^6 roster.

    Times building a full tree protocol (packed
    peer arrays, ledger spans, aggregation tree, lazy node table — no
    rounds) against the entry's budget. The store's packed arrays must
    also total under :data:`PEERSTORE_ARRAYS_CEILING_BYTES` — the
    assertion that peer state is O(N) arrays, not a million objects. (Process-wide peak RSS
    is stamped by the runner but not gated here: it is monotonic across
    the whole bench suite.)
    """
    from repro.net.links import ConstantLatency, Link
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    n = PEERSTORE_CONSTRUCT_N
    holder: dict = {}

    def construct() -> None:
        holder["protocol"] = FullyDistributedDolbie(
            n,
            link=Link(ConstantLatency(0.001)),
            aggregation="tree",
        )

    times = [_time_once(construct) for _ in range(max(1, min(repetitions, 2)))]
    store = holder["protocol"]._store
    packed = sum(
        getattr(store, field).nbytes
        for field in (
            "x", "alpha_bar", "local_cost", "current_round", "is_straggler",
            "global_cost", "straggler_id", "failed", "received_count",
        )
    )
    if packed > PEERSTORE_ARRAYS_CEILING_BYTES:
        raise RuntimeError(
            f"n{n} peer store packs {packed / 2**20:.0f} MiB "
            f"(ceiling {PEERSTORE_ARRAYS_CEILING_BYTES / 2**20:.0f} MiB)"
        )
    return _within_budget("peerstore_construct_n1e6", min(times), 1)


def _bench_serving_throughput(repetitions: int) -> BenchmarkResult:
    """Open-loop serving dispatch rate, within a budget.

    Times a full seeded run — streaming arrivals, golden-ratio weighted
    routing, per-worker Lindley recursion, quantile sketch, DOLBIE
    control updates — against the entry's budget; ``rounds_per_s`` is
    the dispatch rate. ``peak_rss_bytes`` (stamped by the runner)
    doubles as the streaming-memory record.
    """
    from repro.experiments.serving_experiment import fleet_service_rates
    from repro.serving import PoissonArrivals, ServingSimulator, make_policy

    n, requests = SERVING_BENCH_N, SERVING_BENCH_REQUESTS
    mu = fleet_service_rates(n)
    rate = 0.85 * float(mu.sum())

    def one_run() -> None:
        simulator = ServingSimulator(
            PoissonArrivals(rate, seed=n),
            make_policy("dolbie", n, mu, seed=n),
            mu,
            seed=n,
        )
        summary = simulator.run(requests)
        if summary.completed != requests:
            raise RuntimeError(
                f"serving bench lost requests: {summary.completed}/{requests}"
            )

    times = [_time_once(one_run) for _ in range(max(1, min(repetitions, 3)))]
    return _within_budget("serving_throughput", min(times), requests)


def _bench_stacked_sweep(
    scale: ExperimentScale, repetitions: int
) -> BenchmarkResult:
    """Realization-stacked sweep engine vs. the per-realization loop.

    A Fig. 4-shaped workload — many realizations, paper-length horizon —
    where stacking has the most rows to amortize over. The reference leg
    runs one realization at a time (:meth:`RealizationSpec.run
    <repro.experiments.harness.RealizationSpec.run>`, the serial sweep's
    fallback loop); the candidate leg is the serial sweep itself, which
    advances every realization in lockstep through the batched policies
    (:mod:`repro.experiments.stacked`). The materialization cache is
    warmed for every seed first so neither leg pays the trace walk and
    the ratio isolates the engine itself.
    """
    from repro.experiments.config import ALL_ALGORITHMS
    from repro.experiments.harness import RealizationSpec, sweep_realizations
    from repro.mlsim.cache import materialize_cached
    from repro.mlsim.environment import TrainingEnvironment

    sweep_scale = replace(scale, realizations=24, rounds=100)
    specs = [
        RealizationSpec.from_scale(
            "ResNet18", sweep_scale, None, sweep_scale.base_seed + r,
            ALL_ALGORITHMS,
        )
        for r in range(sweep_scale.realizations)
    ]
    for spec in specs:
        env = TrainingEnvironment(
            spec.model,
            num_workers=spec.num_workers,
            global_batch=spec.global_batch,
            seed=spec.seed,
        )
        materialize_cached(env, spec.rounds)
    total_rounds = (
        sweep_scale.rounds * sweep_scale.realizations * len(ALL_ALGORITHMS)
    )
    return _paired(
        "sweep_fig4_stacked",
        lambda: [spec.run() for spec in specs],
        lambda: sweep_realizations("ResNet18", sweep_scale),
        repetitions,
        total_rounds,
    )


def _bench_materialize_cache(repetitions: int) -> BenchmarkResult:
    """Materialization cache: cold miss (trace walk + store) vs. warm hit.

    Runs against a private temporary cache directory so the user's real
    cache is untouched and the cold leg's :func:`repro.mlsim.cache.clear`
    cannot evict anything else. A full-size fleet over a long horizon
    makes the pure-Python trace walk dominate — exactly the cost a hit
    replaces with one ``.npz`` read.
    """
    import tempfile

    from repro.mlsim import cache as matcache
    from repro.mlsim.environment import TrainingEnvironment

    n, horizon = 30, 1000

    def build_env() -> TrainingEnvironment:
        return TrainingEnvironment(
            "ResNet18", num_workers=n, global_batch=256, seed=123
        )

    def cold() -> None:
        matcache.clear()
        matcache.materialize_cached(build_env(), horizon)

    def warm() -> None:
        matcache.materialize_cached(build_env(), horizon)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        saved = {
            key: os.environ.get(key) for key in ("REPRO_CACHE_DIR", "REPRO_CACHE")
        }
        os.environ["REPRO_CACHE_DIR"] = tmp
        os.environ["REPRO_CACHE"] = "1"
        try:
            cold()  # warm the code paths; the first timed warm leg must hit
            result = _paired(
                "materialize_cache", cold, warm, repetitions, horizon
            )
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    return result


def _suite(
    scale: ExperimentScale, repetitions: int
) -> dict[str, Callable[[], BenchmarkResult]]:
    """Every entry by name, in run order."""
    suite: dict[str, Callable[[], BenchmarkResult]] = {
        "micro_costs_at": lambda: _bench_micro_costs_at(scale, repetitions),
        "micro_minmax_solve": lambda: _bench_micro_minmax(scale, repetitions),
        "obs_overhead": lambda: _bench_obs_overhead(repetitions),
        "ckpt_overhead": lambda: _bench_ckpt_overhead(repetitions),
        "sweep_fig4_stacked": lambda: _bench_stacked_sweep(scale, repetitions),
        "materialize_cache": lambda: _bench_materialize_cache(repetitions),
    }
    for arch in ("mw", "fd"):
        for n, rounds in sorted(PROTOCOL_SCALES.items()):
            suite[f"proto_{arch}_n{n}"] = (
                lambda arch=arch, n=n, rounds=rounds: _bench_protocol(
                    arch, n, rounds, repetitions
                )
            )
    for n, rounds in sorted(TREE_SCALES.items()):
        suite[f"proto_fd_tree_n{n}"] = (
            lambda n=n, rounds=rounds: _bench_protocol_tree(
                n, rounds, repetitions
            )
        )
    suite.update({
        "proto_fd_flat_pairs_n32": lambda: _bench_flat_pairs(repetitions),
        f"proto_fd_churn_n{CHURN_N}": lambda: _bench_protocol_churn(repetitions),
        f"proto_fd_tree_n{TREE_SMOKE_N}": (
            lambda: _bench_protocol_tree_smoke(repetitions)
        ),
        "peerstore_construct_n1e6": (
            lambda: _bench_peerstore_construct(repetitions)
        ),
        "serving_throughput": lambda: _bench_serving_throughput(repetitions),
    })
    return suite


def run_benchmarks(
    scale: ExperimentScale = BENCH,
    repetitions: int = 5,
    only: Sequence[str] | None = None,
) -> list[BenchmarkResult]:
    """Run the suite; ``repetitions=1`` is the CI ``--quick`` mode.

    ``only`` selects a subset by name (e.g. ``["proto_fd_n100"]``) —
    handy when refreshing one baseline entry without re-timing the rest.
    """
    suite = _suite(scale, repetitions)
    if only is not None:
        unknown = set(only) - set(suite)
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"available: {list(suite)}"
            )
        suite = {name: fn for name, fn in suite.items() if name in set(only)}
    # Stamp each result with the process peak RSS observed right after
    # it ran: memory regressions (a path that suddenly materializes all
    # ~3N frames again) show up in the results/history files alongside
    # the wall-clock they would eventually also ruin.
    return [
        replace(fn(), peak_rss_bytes=_peak_rss_bytes()) for fn in suite.values()
    ]


def _entry(result: BenchmarkResult) -> dict:
    """One result as written to the results and history files."""
    return {
        "reference_s": round(result.reference_s, 6),
        "candidate_s": round(result.candidate_s, 6),
        "ratio": round(result.ratio, 3),
        "gate": result.gate.kind,
        "limit": result.gate.limit,
        "rounds_per_s": round(result.rounds_per_s, 1),
        "peak_rss_bytes": int(result.peak_rss_bytes),
    }


def write_results(
    results: list[BenchmarkResult],
    path: str | Path,
    scale: ExperimentScale = BENCH,
) -> Path:
    payload = {
        "schema": SCHEMA,
        "scale": {
            "label": scale.label,
            "num_workers": scale.num_workers,
            "global_batch": scale.global_batch,
            "rounds": scale.rounds,
            "realizations": scale.realizations,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Machine context: ratios transfer across hardware, but when a
        # gate fails on a different runner this says what ran it.
        "machine": _machine_context(),
        "benchmarks": {r.name: _entry(r) for r in results},
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def append_history(results: list[BenchmarkResult], path: str | Path) -> Path:
    """Append one JSON line for this gated run to ``BENCH_history.jsonl``.

    The results file is overwritten on every run; the history file is the
    longitudinal record — one line per invocation with a UTC timestamp,
    the git commit it ran at, and every benchmark's numbers — so drift
    across commits can be inspected without re-running old revisions.
    Best-effort like the cache: an unwritable history file never fails
    the bench.
    """
    import subprocess
    from datetime import datetime, timezone

    sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        sha = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    line = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha,
        # Same machine context as the results file: history lines from
        # different runners must be distinguishable when eyeballing drift.
        "machine": _machine_context(),
        "benchmarks": {r.name: _entry(r) for r in results},
    }
    out = Path(path)
    try:
        with out.open("a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    except OSError:
        pass
    return out


def load_results(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported BENCH_results schema {data.get('schema')!r} in {path}"
        )
    return data


def compare_to_baseline(
    results: list[BenchmarkResult],
    baseline: dict | None,
    tolerance: float = 0.3,
) -> tuple[list[str], list[str]]:
    """Hold every result to its gate: ``(failures, notices)``, failures
    empty = the run passes.

    Ceilings and budgets are fixed. A floor fails when the ratio falls
    more than ``tolerance`` (fractional) below the baseline's; with no
    baseline (``None``) floors go unchecked. A floor entry the baseline
    lacks — a brand-new benchmark, or an entry without a ``ratio`` — is
    a *notice*, not a failure: a fresh benchmark must be able to land
    before its baseline exists (the baseline is refreshed with ``repro
    bench --update-baseline``).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must lie in [0, 1), got {tolerance}")
    failures: list[str] = []
    notices: list[str] = []
    base = (baseline or {}).get("benchmarks", {})
    for result in results:
        name, (kind, limit) = result.name, result.gate
        if kind == "ceiling":
            if result.ratio > limit:
                failures.append(
                    f"{name}: ratio {result.ratio:.3f}x exceeds its ceiling "
                    f"{limit:.2f}x"
                )
        elif kind == "budget":
            if result.candidate_s > limit:
                failures.append(
                    f"{name}: {result.candidate_s:.3f}s exceeds its budget "
                    f"{limit:g}s"
                )
        elif baseline is not None:
            entry = base.get(name)
            if entry is None or "ratio" not in entry:
                reason = (
                    "not in baseline" if entry is None
                    else "baseline entry has no ratio"
                )
                notices.append(
                    f"{name}: no baseline ({reason}) — refresh with "
                    "`repro bench --update-baseline`"
                )
                continue
            floor = entry["ratio"] * (1.0 - tolerance)
            if result.ratio < floor:
                failures.append(
                    f"{name}: ratio {result.ratio:.2f}x fell below "
                    f"{floor:.2f}x (baseline {entry['ratio']:.2f}x - "
                    f"{tolerance:.0%})"
                )
    return failures, notices


def _gate_label(gate: Gate) -> str:
    if gate.kind == "ceiling":
        return f"<= {gate.limit:g}x"
    if gate.kind == "budget":
        return f"<= {gate.limit:g}s"
    return "floor"


def main(
    out: str | Path = "BENCH_results.json",
    baseline: str | Path = "BENCH_results.json",
    tolerance: float = 0.3,
    quick: bool = False,
    update_baseline: bool = False,
    only: Sequence[str] | None = None,
) -> int:
    """Entry point behind ``python -m repro bench``; returns exit code.

    ``only`` runs a named subset; the results file then holds just that
    subset, so pair it with a non-default ``--out`` unless you mean to
    rewrite the baseline.
    """
    from repro.experiments.reporting import print_table

    # Read the committed baseline before (possibly) overwriting it: the
    # default --out and --baseline are the same file.
    baseline_path = Path(baseline)
    baseline_data = None
    if baseline_path.exists() and not update_baseline:
        baseline_data = load_results(baseline_path)

    repetitions = 1 if quick else 5
    results = run_benchmarks(BENCH, repetitions=repetitions, only=only)

    print_table(
        f"Benchmarks — best of {repetitions}",
        ["benchmark", "reference_s", "candidate_s", "ratio", "gate",
         "rounds/s", "peak_rss_mb"],
        [
            [r.name, f"{r.reference_s:.3f}", f"{r.candidate_s:.3f}",
             f"{r.ratio:.2f}x", _gate_label(r.gate), f"{r.rounds_per_s:.0f}",
             f"{r.peak_rss_bytes / 2**20:.0f}"]
            for r in results
        ],
    )

    target = baseline_path if update_baseline else Path(out)
    written = write_results(results, target, BENCH)
    print(f"wrote {written}")
    history = append_history(results, written.parent / "BENCH_history.jsonl")
    print(f"appended run to {history}")

    failures, notices = compare_to_baseline(results, baseline_data, tolerance)
    for notice in notices:
        print(f"NOTE: {notice}")
    for failure in failures:
        print(f"GATE: {failure}", file=sys.stderr)
    if failures:
        return 1
    if baseline_data is None and not update_baseline:
        print(f"no baseline at {baseline_path}; floors unchecked")
    print(f"every gate passed (floor tolerance {tolerance:.0%})")
    return 0
