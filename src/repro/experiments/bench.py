"""Perf-regression benchmarks: ``python -m repro bench``.

Times the vectorized execution engine (materialized environments, batched
affine solves) against the incremental reference engine on the figure
workloads and a pair of micro-benchmarks, then writes machine-readable
results to ``BENCH_results.json`` and compares them against a committed
baseline.

Gating is on **speedup ratios**, not absolute wall-clock: ratios are
stable across machines of different absolute speed, so CI on shared
runners can enforce "the fast path stays ~this much faster than the
reference path" without flaking on noisy-neighbor effects. A regression
fails when a benchmark's speedup drops more than ``tolerance`` (default
30%) below the baseline's.

See ``docs/performance.md`` for the engine design and how to refresh the
baseline after intentional performance changes.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.experiments.config import QUICK, ExperimentScale

__all__ = [
    "BENCH",
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
    """The machine block stamped into results and history lines.

    Besides the hardware identity, it records whether the tree-round
    kernels are numba-jitted or running the numpy fallback — what most
    changes what a wall-clock number from this machine means.
    """
    from repro.backend.kernels import HAVE_NUMBA

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": "numba" if HAVE_NUMBA else "numpy",
    }


#: Results-file schema version (bump on incompatible layout changes).
SCHEMA = 1

#: Hard speedup ceilings, enforced regardless of baseline. The
#: ``obs_overhead`` ratio is instrumented-but-disabled over an
#: uninstrumented replica of the same loop, so anything above the
#: ceiling means the tracing hooks cost real time even when off —
#: a violation of the zero-overhead contract of :mod:`repro.obs`.
#: ``ckpt_overhead`` is the amortized durability tax of
#: ``--checkpoint-every`` at the recommended cadence (one snapshot per
#: 200 rounds at fig4 scale); above the ceiling checkpointed soaks no
#: longer run "for free" and ``docs/checkpointing.md`` is lying.
#: ``proto_fd_flat_pairs_n32`` is per-pair message accounting's cost
#: on steady N=32 flat FD rounds (the serving control plane's size):
#: rounds with pair metrics on over the same rounds with them off.
OVERHEAD_GATES = {
    "obs_overhead": 1.03,
    "ckpt_overhead": 1.05,
    "proto_fd_flat_pairs_n32": 1.25,
}


@dataclass(frozen=True)
class BenchmarkResult:
    """Timed comparison of the two engines on one workload."""

    name: str
    incremental_s: float  #: best wall-clock of the reference engine
    materialized_s: float  #: best wall-clock of the vectorized engine
    speedup: float  #: ratio of the two best wall-clocks
    rounds: int  #: total algorithm-rounds executed per timed leg
    #: process peak RSS (bytes) sampled right after this benchmark ran —
    #: a high-water mark, so the first benchmark to allocate a big
    #: working set dominates every later entry. 0 when unavailable.
    peak_rss_bytes: int = 0

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.materialized_s


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


@contextlib.contextmanager
def _pair_metrics_off():
    """Run the block with ``REPRO_PAIR_METRICS=0`` (read when a protocol
    builds its metrics: no per-pair counters, which at large N are pure
    overhead with no consumer), restoring the caller's value after."""
    saved = os.environ.get("REPRO_PAIR_METRICS")
    os.environ["REPRO_PAIR_METRICS"] = "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_PAIR_METRICS", None)
        else:
            os.environ["REPRO_PAIR_METRICS"] = saved


def _time_once(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired(
    name: str,
    incremental: Callable[[], object],
    materialized: Callable[[], object],
    repetitions: int,
    rounds: int,
) -> BenchmarkResult:
    """Time both engines, interleaved, best-of-``repetitions`` each.

    The gated statistic is the ratio of the two minima. Timing noise is
    strictly additive, so the minimum over repetitions is the standard
    robust estimate of each leg's true cost: transient bursts are dodged
    outright, and the interleaved execution order means sustained
    machine-wide load (noisy neighbors, frequency scaling) inflates both
    legs' minima roughly equally and mostly cancels in the ratio.
    """
    inc_times, mat_times = [], []
    for _ in range(repetitions):
        inc_times.append(_time_once(incremental))
        mat_times.append(_time_once(materialized))
    best_inc, best_mat = min(inc_times), min(mat_times)
    return BenchmarkResult(
        name=name,
        incremental_s=best_inc,
        materialized_s=best_mat,
        speedup=best_inc / best_mat,
        rounds=rounds,
    )


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
    leg (so slow bursts hit both), and ``speedup`` is the **median of
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
    return BenchmarkResult(
        name="obs_overhead",
        incremental_s=min(inc_times),
        materialized_s=min(raw_times),
        speedup=statistics.median(ratios),
        rounds=rounds,
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
    write, so the estimate is conservative) — and ``speedup`` is the
    amortized ratio ``1 + snapshot / leg``. A uniform machine slowdown
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
    return BenchmarkResult(
        name="ckpt_overhead",
        incremental_s=leg + snapshot,
        materialized_s=leg,
        speedup=1.0 + snapshot / leg,
        rounds=rounds,
    )


#: Worker counts of the protocol-scaling suite; rounds per timed leg are
#: scaled down with N so the event-engine reference leg stays bounded.
PROTOCOL_SCALES = {30: 60, 100: 20, 300: 5}

#: Worker counts of the hierarchical-aggregation suite; the reference leg
#: here is the *flat batched* fast path (not the event engine), so larger
#: N stays affordable. Rounds shrink with N to bound the O(N^2)-message
#: flat leg.
TREE_SCALES = {1000: 10, 3000: 3}

#: Completion-only scale: one tree round at N=100,000 must
#: finish in bounded time. There is nothing sane to ratio against at
#: this size — the entry records throughput with speedup pinned to 1.0
#: and gates on completing within :data:`TREE_SMOKE_BUDGET_S` seconds.
TREE_SMOKE_N = 100_000
TREE_SMOKE_BUDGET_S = 10.0


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


def _make_tree_run(n: int, rounds: int) -> Callable[[str], None]:
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    speeds = [1.0 + (i % 23) for i in range(n)]

    def run(aggregation: str) -> None:
        process = RandomAffineProcess(
            speeds, sigma=0.1, comm_scale=0.01, seed=n
        )
        link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
        protocol = FullyDistributedDolbie(
            n, link=link, aggregation=aggregation
        )
        protocol.run(process, rounds)
        if aggregation == "tree" and protocol.tree_rounds != rounds:
            raise RuntimeError(
                f"tree leg fell back to the event engine "
                f"({protocol.tree_rounds}/{rounds} tree rounds)"
            )

    return run


def _bench_protocol_tree(n: int, rounds: int, repetitions: int) -> BenchmarkResult:
    """FD round loop at scale: flat batched all-to-all vs. aggregation tree.

    Unlike :func:`_bench_protocol` the reference leg is already the
    batched fast path — the ratio isolates what the hierarchical overlay
    buys on top of vectorized delivery by cutting per-round messages
    from ``N(N-1)`` to ``~3N``.
    """
    run = _make_tree_run(n, rounds)
    return _paired(
        f"proto_fd_tree_n{n}",
        lambda: run("flat"),
        lambda: run("tree"),
        repetitions,
        rounds,
    )


def _bench_protocol_tree_smoke(repetitions: int) -> BenchmarkResult:
    """N=100,000 completion smoke: one tree round must finish.

    Records the round's wall-clock in both columns (speedup 1.0), so the
    baseline comparison can never flag it — the gates are that the round
    completes at all and does so within :data:`TREE_SMOKE_BUDGET_S`
    seconds. Per-pair message accounting is disabled for the run
    (``REPRO_PAIR_METRICS=0``): at this N the per-pair counter dict is
    pure overhead with no consumer, and the smoke pins the protocol's
    memory story, which ``peak_rss_bytes`` records. Protocol
    construction (100k peers, the aggregation tree, the frame plans)
    happens outside the timed window; the timing is the round itself.
    """
    from repro.costs.affine_vector import AffineCostVector
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import Link, UniformLatency
    from repro.protocols.fully_distributed import FullyDistributedDolbie

    n, rounds = TREE_SMOKE_N, 1
    with _pair_metrics_off():
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
    best = min(times)
    if best > TREE_SMOKE_BUDGET_S:
        raise RuntimeError(
            f"n{n} tree round took {best:.1f}s "
            f"(budget {TREE_SMOKE_BUDGET_S:.0f}s)"
        )
    return BenchmarkResult(
        name=f"proto_fd_tree_n{n}",
        incremental_s=best,
        materialized_s=best,
        speedup=1.0,
        rounds=rounds,
    )


#: The crash-round gate: after ``crash_worker`` an N=128 tree protocol
#: runs one failure-detection round, which must cost at most
#: :data:`CHURN_MAX_RATIO` steady tree rounds — a crash costs a fixed
#: number of array passes, not an O(N^2) event-engine round.
CHURN_N = 128
CHURN_MAX_RATIO = 5.0


def _bench_protocol_churn(repetitions: int) -> BenchmarkResult:
    """The crash round of an N=128 tree protocol: event engine vs the
    production route (the batched failure detection).

    Each leg builds a fresh protocol (pair metrics off), runs warm-up
    tree rounds, times steady tree rounds, crashes one worker and times
    the round after the crash — with ``use_fast_path=False`` for that
    round in the incremental leg (the event-engine round the detection
    used to take), on the production route in the materialized leg.
    Both legs replay the same seeded costs and link delays. Gate: the
    production crash round, best of at least three repetitions, within
    :data:`CHURN_MAX_RATIO` times the best steady tree round.
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

    with _pair_metrics_off():
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
    return BenchmarkResult(
        name=f"proto_fd_churn_n{n}",
        incremental_s=best_event,
        materialized_s=best_crash,
        speedup=best_event / best_crash,
        rounds=1,
    )


def _bench_flat_pairs(repetitions: int) -> BenchmarkResult:
    """Steady N=32 flat FD rounds: pair metrics on vs. off.

    Two protocols replay the same seeded costs and link delays, one
    built with pair accounting on and one under
    :func:`_pair_metrics_off`; after warm-up each timed leg runs the
    next ``rounds`` rounds of its protocol, interleaved, best of at
    least five. ``speedup`` is the on/off ratio, gated by
    :data:`OVERHEAD_GATES`: the per-pair breakdown of the complexity
    reproduction must not cost more than the round it measures.
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

    pairs_on = build()
    with _pair_metrics_off():
        pairs_off = build()

    def leg(protocol: FullyDistributedDolbie, count: int) -> None:
        start = len(protocol.ledger) + 1  # one entry per round run
        for t in range(start, start + count):
            protocol.run_round(t, costs[t % len(costs)])
        if protocol.fast_rounds != len(protocol.ledger):
            raise RuntimeError(
                f"n{n} flat leg left the batched route ({protocol.fast_rounds}"
                f"/{len(protocol.ledger)} batched rounds)"
            )

    leg(pairs_on, warmup)
    leg(pairs_off, warmup)
    return _paired(
        f"proto_fd_flat_pairs_n{n}",
        lambda: leg(pairs_on, rounds),
        lambda: leg(pairs_off, rounds),
        max(5, repetitions),
        rounds,
    )


#: Struct-of-arrays roster construction at the paper's next wall: a
#: million-peer protocol must be *constructible* in bounded time, and
#: the store's packed arrays must stay O(N) compact.
PEERSTORE_CONSTRUCT_N = 1_000_000
PEERSTORE_CONSTRUCT_BUDGET_S = 10.0
PEERSTORE_ARRAYS_CEILING_BYTES = 200 * 2**20


def _bench_peerstore_construct(repetitions: int) -> BenchmarkResult:
    """Construction-only gate for the N=10^6 roster.

    Times building a full tree protocol (packed
    peer arrays, ledger spans, aggregation tree, lazy node table — no
    rounds). Gates: under :data:`PEERSTORE_CONSTRUCT_BUDGET_S` seconds,
    and the store's packed arrays total under
    :data:`PEERSTORE_ARRAYS_CEILING_BYTES` — the assertion that peer
    state is O(N) arrays, not a million objects. (Process-wide peak RSS
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
    best = min(times)
    if best > PEERSTORE_CONSTRUCT_BUDGET_S:
        raise RuntimeError(
            f"n{n} construction took {best:.1f}s "
            f"(budget {PEERSTORE_CONSTRUCT_BUDGET_S:.0f}s)"
        )
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
    return BenchmarkResult(
        name="peerstore_construct_n1e6",
        incremental_s=best,
        materialized_s=best,
        speedup=1.0,
        rounds=1,
    )


#: Serving throughput benchmark sizing and its hard floor: the
#: vectorized dispatcher must sustain at least this many dispatched
#: requests per wall-clock second at N=32 with DOLBIE control enabled —
#: below it the "millions of requests" story stops being streamable.
SERVING_BENCH_N = 32
SERVING_BENCH_REQUESTS = 200_000
SERVING_MIN_RPS = 100_000.0


def _bench_serving_throughput(repetitions: int) -> BenchmarkResult:
    """Open-loop serving dispatch rate, completion-gate style.

    Times a full seeded run — streaming arrivals, golden-ratio weighted
    routing, per-worker Lindley recursion, quantile sketch, DOLBIE
    control updates — and records the wall-clock in both columns
    (speedup 1.0) so the baseline ratio check can never flag it. The
    hard gate is throughput: below :data:`SERVING_MIN_RPS` dispatched
    requests/s the benchmark raises. ``peak_rss_bytes`` (stamped by the
    runner) doubles as the streaming-memory record for the acceptance
    criterion.
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
    best = min(times)
    rps = requests / best
    if rps < SERVING_MIN_RPS:
        raise RuntimeError(
            f"serving throughput {rps:,.0f} req/s fell below the "
            f"{SERVING_MIN_RPS:,.0f} req/s floor (N={n}, {requests} requests)"
        )
    return BenchmarkResult(
        name="serving_throughput",
        incremental_s=best,
        materialized_s=best,
        speedup=1.0,
        rounds=requests,
    )


def _bench_figure(
    name: str,
    runner: Callable[[ExperimentScale], object],
    scale: ExperimentScale,
    repetitions: int,
) -> BenchmarkResult:
    from repro.experiments.config import ALL_ALGORITHMS

    incremental_scale = replace(scale, materialize=False, jobs=1)
    materialized_scale = replace(scale, materialize=True)
    total_rounds = scale.rounds * scale.realizations * len(ALL_ALGORITHMS)
    return _paired(
        name,
        lambda: runner(incremental_scale),
        lambda: runner(materialized_scale),
        repetitions,
        total_rounds,
    )


def _bench_stacked_sweep(
    scale: ExperimentScale, repetitions: int
) -> BenchmarkResult:
    """Realization-stacked sweep engine vs. the per-realization loop.

    A Fig. 4-shaped workload — many realizations, paper-length horizon —
    where stacking has the most rows to amortize over. The serial leg
    runs the classic one-realization-at-a-time sweep (``stacked=False``);
    the stacked leg advances every realization in lockstep through the
    batched policies (:mod:`repro.experiments.stacked`). The
    materialization cache is warmed for every seed first so neither leg
    pays the trace walk and the ratio isolates the engine itself.
    """
    from repro.experiments.config import ALL_ALGORITHMS
    from repro.experiments.harness import sweep_realizations
    from repro.mlsim.cache import materialize_cached
    from repro.mlsim.environment import TrainingEnvironment

    sweep_scale = replace(
        scale, realizations=24, rounds=100, materialize=True, jobs=1
    )
    for r in range(sweep_scale.realizations):
        env = TrainingEnvironment(
            "ResNet18",
            num_workers=sweep_scale.num_workers,
            global_batch=sweep_scale.global_batch,
            seed=sweep_scale.base_seed + r,
        )
        materialize_cached(env, sweep_scale.rounds)
    serial_scale = replace(sweep_scale, stacked=False)
    total_rounds = (
        sweep_scale.rounds * sweep_scale.realizations * len(ALL_ALGORITHMS)
    )
    return _paired(
        "sweep_fig4_stacked",
        lambda: sweep_realizations("ResNet18", serial_scale),
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


def run_benchmarks(
    scale: ExperimentScale = BENCH,
    repetitions: int = 5,
    jobs: int = 1,
    only: Sequence[str] | None = None,
) -> list[BenchmarkResult]:
    """Run the suite; ``repetitions=1`` is the CI ``--quick`` mode.

    ``only`` selects a subset by name (e.g. ``["proto_fd_n100"]``) —
    handy when refreshing one baseline entry without re-timing the rest.
    """
    from repro.experiments import fig4_latency_ci, fig5_cumulative_latency

    scale = replace(scale, jobs=jobs)
    suite: list[tuple[str, Callable[[], BenchmarkResult]]] = [
        ("micro_costs_at", lambda: _bench_micro_costs_at(scale, repetitions)),
        ("micro_minmax_solve", lambda: _bench_micro_minmax(scale, repetitions)),
        ("obs_overhead", lambda: _bench_obs_overhead(repetitions)),
        ("ckpt_overhead", lambda: _bench_ckpt_overhead(repetitions)),
        (
            "fig4",
            lambda: _bench_figure("fig4", fig4_latency_ci.run, scale, repetitions),
        ),
        (
            "fig5",
            lambda: _bench_figure(
                "fig5", fig5_cumulative_latency.run, scale, repetitions
            ),
        ),
        (
            "sweep_fig4_stacked",
            lambda: _bench_stacked_sweep(scale, repetitions),
        ),
        (
            "materialize_cache",
            lambda: _bench_materialize_cache(repetitions),
        ),
    ]
    for arch in ("mw", "fd"):
        for n, rounds in sorted(PROTOCOL_SCALES.items()):
            suite.append(
                (
                    f"proto_{arch}_n{n}",
                    lambda arch=arch, n=n, rounds=rounds: _bench_protocol(
                        arch, n, rounds, repetitions
                    ),
                )
            )
    for n, rounds in sorted(TREE_SCALES.items()):
        suite.append(
            (
                f"proto_fd_tree_n{n}",
                lambda n=n, rounds=rounds: _bench_protocol_tree(
                    n, rounds, repetitions
                ),
            )
        )
    suite.append(
        ("proto_fd_flat_pairs_n32", lambda: _bench_flat_pairs(repetitions))
    )
    suite.append(
        (
            f"proto_fd_churn_n{CHURN_N}",
            lambda: _bench_protocol_churn(repetitions),
        )
    )
    suite.append(
        (
            f"proto_fd_tree_n{TREE_SMOKE_N}",
            lambda: _bench_protocol_tree_smoke(repetitions),
        )
    )
    suite.append(
        (
            "peerstore_construct_n1e6",
            lambda: _bench_peerstore_construct(repetitions),
        )
    )
    suite.append(
        (
            "serving_throughput",
            lambda: _bench_serving_throughput(repetitions),
        )
    )
    if only is not None:
        unknown = set(only) - {name for name, _ in suite}
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"available: {[name for name, _ in suite]}"
            )
        suite = [(name, fn) for name, fn in suite if name in set(only)]
    # Stamp each result with the process peak RSS observed right after
    # it ran: memory regressions (a path that suddenly materializes all
    # ~3N frames again) show up in the results/history files alongside
    # the wall-clock they would eventually also ruin.
    return [replace(fn(), peak_rss_bytes=_peak_rss_bytes()) for _, fn in suite]


def write_results(
    results: list[BenchmarkResult],
    path: str | Path,
    scale: ExperimentScale = BENCH,
    jobs: int = 1,
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
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Machine context: speedup ratios transfer across hardware, but
        # when a gate fails on a different runner this says what ran it.
        "machine": _machine_context(),
        "benchmarks": {
            r.name: {
                "incremental_s": round(r.incremental_s, 6),
                "materialized_s": round(r.materialized_s, 6),
                "speedup": round(r.speedup, 3),
                "rounds_per_s": round(r.rounds_per_s, 1),
                "peak_rss_bytes": int(r.peak_rss_bytes),
            }
            for r in results
        },
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def append_history(
    results: list[BenchmarkResult],
    path: str | Path,
    jobs: int = 1,
) -> Path:
    """Append one JSON line for this gated run to ``BENCH_history.jsonl``.

    The results file is overwritten on every run; the history file is the
    longitudinal record — one line per invocation with a UTC timestamp,
    the git commit it ran at, and every benchmark's numbers — so speedup
    drift across commits can be inspected without re-running old
    revisions. Best-effort like the cache: an unwritable history file
    never fails the bench.
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
        "jobs": jobs,
        # Same machine context as the results file: history lines from
        # different runners must be distinguishable when eyeballing drift.
        "machine": _machine_context(),
        "benchmarks": {
            r.name: {
                "incremental_s": round(r.incremental_s, 6),
                "materialized_s": round(r.materialized_s, 6),
                "speedup": round(r.speedup, 3),
                "peak_rss_bytes": int(r.peak_rss_bytes),
            }
            for r in results
        },
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
    baseline: dict,
    tolerance: float = 0.3,
) -> tuple[list[str], list[str]]:
    """``(failures, notices)`` — failures empty = gate passes.

    A benchmark *fails* when its speedup falls more than ``tolerance``
    (fractional) below the baseline speedup. A benchmark with no usable
    baseline — a brand-new benchmark the committed baseline predates, or
    an entry without a ``speedup`` field — is a *notice*, not a failure:
    a fresh benchmark must be able to land before its baseline exists
    (the baseline is refreshed with ``repro bench --update-baseline``),
    and a KeyError here would turn every new benchmark into a red CI.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must lie in [0, 1), got {tolerance}")
    failures: list[str] = []
    notices: list[str] = []
    base = baseline.get("benchmarks", {})
    for result in results:
        entry = base.get(result.name)
        if entry is None or "speedup" not in entry:
            reason = (
                "not in baseline" if entry is None
                else "baseline entry has no speedup"
            )
            notices.append(
                f"{result.name}: no baseline ({reason}) — refresh with "
                "`repro bench --update-baseline`"
            )
            continue
        floor = entry["speedup"] * (1.0 - tolerance)
        if result.speedup < floor:
            failures.append(
                f"{result.name}: speedup {result.speedup:.2f}x fell below "
                f"{floor:.2f}x (baseline {entry['speedup']:.2f}x - {tolerance:.0%})"
            )
    return failures, notices


def main(
    out: str | Path = "BENCH_results.json",
    baseline: str | Path = "BENCH_results.json",
    tolerance: float = 0.3,
    quick: bool = False,
    update_baseline: bool = False,
    jobs: int = 1,
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
    results = run_benchmarks(BENCH, repetitions=repetitions, jobs=jobs, only=only)

    print_table(
        f"Engine benchmarks — BENCH scale ({BENCH.realizations} realizations, "
        f"{BENCH.rounds} rounds), best of {repetitions}",
        ["benchmark", "incremental_s", "materialized_s", "speedup", "rounds/s",
         "peak_rss_mb"],
        [
            [r.name, f"{r.incremental_s:.3f}", f"{r.materialized_s:.3f}",
             f"{r.speedup:.2f}x", f"{r.rounds_per_s:.0f}",
             f"{r.peak_rss_bytes / 2**20:.0f}"]
            for r in results
        ],
    )

    target = baseline_path if update_baseline else Path(out)
    written = write_results(results, target, BENCH, jobs=jobs)
    print(f"wrote {written}")
    history = append_history(
        results, written.parent / "BENCH_history.jsonl", jobs=jobs
    )
    print(f"appended run to {history}")

    gate_failures = [
        f"{r.name}: ratio {r.speedup:.3f}x exceeds hard ceiling "
        f"{OVERHEAD_GATES[r.name]:.2f}x"
        for r in results
        if r.name in OVERHEAD_GATES and r.speedup > OVERHEAD_GATES[r.name]
    ]
    if gate_failures:
        for failure in gate_failures:
            print(f"OVERHEAD GATE: {failure}", file=sys.stderr)
        return 1

    if baseline_data is not None:
        failures, notices = compare_to_baseline(
            results, baseline_data, tolerance
        )
        for notice in notices:
            print(f"NOTE: {notice}")
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"baseline check passed (tolerance {tolerance:.0%})")
    elif not update_baseline:
        print(f"no baseline at {baseline_path}; skipping regression check")
    return 0
