"""Experiment configuration: the §VI-B hyperparameters, in one place.

Every experiment module builds its algorithms through
:func:`paper_balancer` so the paper's settings — ``alpha_1 = beta =
0.001``, ``Delta = 5`` samples, ``P = D = 5``, ``B = 256``, ``N = 30``,
equal-split initialization — are applied uniformly.

Two scales are provided: ``PAPER`` reproduces the published settings
(30 workers, 100 realizations where applicable) and ``QUICK`` is a
minutes-scale variant for CI and the pytest benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.registry import make_balancer
from repro.core.interface import OnlineLoadBalancer

__all__ = ["ExperimentScale", "PAPER", "QUICK", "paper_balancer", "ONLINE_ALGORITHMS", "ALL_ALGORITHMS"]

#: Algorithms implementable in reality, in the paper's comparison order.
ONLINE_ALGORITHMS = ["EQU", "OGD", "LB-BSP", "ABS", "DOLBIE"]

#: Including the clairvoyant comparator.
ALL_ALGORITHMS = ONLINE_ALGORITHMS + ["OPT"]

#: §VI-B hyperparameters per algorithm.
PAPER_HYPERPARAMETERS: dict[str, dict[str, float | int]] = {
    "EQU": {},
    "OGD": {"learning_rate": 0.001},
    "ABS": {"period": 5},
    "LB-BSP": {"delta": 5.0 / 256.0, "patience": 5},
    "DOLBIE": {"alpha_1": 0.001},
    "OPT": {},
}


def paper_balancer(name: str, num_workers: int) -> OnlineLoadBalancer:
    """Build ``name`` with the paper's experiment hyperparameters."""
    return make_balancer(name, num_workers, **PAPER_HYPERPARAMETERS.get(name, {}))


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing and execution knobs shared by the experiment modules.

    The trailing fields control the execution layer (see
    ``docs/performance.md``): ``jobs`` fans realization sweeps out over a
    process pool, and ``include_overhead`` keeps the measured per-round
    decision time in the wall-clock series (Fig. 11 needs it; set False
    for bitwise reproducible exports, since measured time is inherently
    noisy). Every realization's ``(T, N)`` cost traces are materialized
    once through the on-disk cache (``REPRO_CACHE=0`` turns the cache
    off), and a serial sweep advances all realizations in lockstep
    whenever the stacked engine supports its algorithms.

    ``checkpoint_dir`` makes realization sweeps durable: every finished
    realization is persisted there and an interrupted sweep resumes
    from the completed set instead of starting over (see
    ``docs/checkpointing.md``).
    """

    label: str
    num_workers: int = 30
    global_batch: int = 256
    rounds: int = 100
    realizations: int = 100
    accuracy_rounds: int = 20000  # Figs. 6-8 horizon: 100 epochs at B=256
    accuracy_target: float = 0.95  # "time to 95% training accuracy"
    complexity_worker_counts: tuple[int, ...] = (5, 10, 20, 30, 50)
    base_seed: int = 0
    jobs: int = 1
    include_overhead: bool = True
    checkpoint_dir: str | None = None


PAPER = ExperimentScale(label="paper")

QUICK = ExperimentScale(
    label="quick",
    num_workers=12,
    rounds=60,
    realizations=8,
    accuracy_rounds=1000,  # ~5 epochs: enough to cross the quick target
    accuracy_target=0.30,
    complexity_worker_counts=(4, 8, 16),
)
