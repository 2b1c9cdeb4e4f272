"""Realization-stacked sweep engine: all realizations advance in lockstep.

:func:`repro.experiments.harness.sweep_realizations` historically ran a
sweep as ``R`` independent trainer loops — ``R * T`` Python round-trips
per algorithm, each doing O(N) work on tiny arrays where interpreter
overhead dwarfs the arithmetic. On the single-core machines the
benchmark baseline documents (``cpu_count: 1``), the process pool cannot
help; the remaining lever is *stacking*: advance all ``R`` realizations
of one algorithm simultaneously, so every per-round operation becomes an
``(R, N)`` matrix operation and the interpreter overhead is paid ``T``
times instead of ``R * T`` times.

The engine mirrors :meth:`repro.mlsim.trainer.SyncTrainer.train`'s
vectorized fast path statement for statement:

1. each realization's :class:`~repro.mlsim.materialized.MaterializedEnvironment`
   (seed ``base_seed + r``) contributes its ``(T, N)`` speed/comm/slope
   matrices to stacked ``(R, T, N)`` tensors (through the on-disk
   cache, :mod:`repro.mlsim.cache`);
2. per round, the ``(R, N)`` cost slices drive one
   :class:`~repro.core.batched.BatchedPolicy` holding all ``R``
   allocation rows;
3. after the loop, integerization, accuracy, waiting time, and wall
   clock are computed exactly as the scalar fast path computes them.

**Bit-identity contract.** Row ``r`` of every step performs the same
IEEE-754 operations, in the same order, as the serial sweep's
realization ``r``: costs are the identical tensor slices, the batched
policies are row-identical to their scalar classes (see
:mod:`repro.core.batched`), and each realization's
:class:`~repro.mlsim.learning.LearningCurve` generator is consumed in
the same (algorithm) order as the serial loop's shared trainer. Exported
CSVs are therefore byte-identical between the two paths — pinned by
``tests/integration/test_stacked_sweep.py``. The one exception is
``decision_seconds``: measured stopwatch time is never reproducible, so
the stacked engine reports each batch lap divided evenly across the
``R`` realizations.

When any precondition fails (an algorithm without a batched twin, an
oracle facing non-positive slopes)
:func:`sweep_stacked` returns ``None`` and the caller falls back to the
per-realization loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.batched import BATCHED_ALGORITHMS, make_batched
from repro.core.batched import BatchedPolicy, BatchedRoundFeedback
from repro.costs.base import DEFAULT_TOL
from repro.exceptions import ConfigurationError, CostFunctionError, SolverError
from repro.experiments.config import (
    ALL_ALGORITHMS,
    PAPER_HYPERPARAMETERS,
    ExperimentScale,
)
from repro.mlsim.dataset import SyntheticDataset, largest_remainder_split_rows
from repro.mlsim.environment import TrainingEnvironment
from repro.mlsim.learning import LearningCurve
from repro.mlsim.trainer import TrainingRun
from repro.utils.timer import Stopwatch

__all__ = ["sweep_stacked", "stacked_supported"]


def stacked_supported(scale: ExperimentScale, algorithms: Sequence[str]) -> bool:
    """Cheap static preconditions for the stacked fast path.

    The dynamic precondition (strictly positive slopes for the oracle's
    batched waterfilling solve) is only checkable after materialization;
    :func:`sweep_stacked` handles that one itself.
    """
    return scale.realizations >= 1 and all(
        name in BATCHED_ALGORITHMS for name in algorithms
    )


def sweep_stacked(
    model: str,
    scale: ExperimentScale,
    rounds: int | None = None,
    algorithms: Sequence[str] | None = None,
) -> dict[str, list[TrainingRun]] | None:
    """Stacked equivalent of the serial ``sweep_realizations`` loop.

    Returns ``None`` when a precondition fails, signalling the caller to
    fall back to the per-realization path.
    """
    algorithms = (
        list(algorithms) if algorithms is not None else list(ALL_ALGORITHMS)
    )
    rounds = rounds if rounds is not None else scale.rounds
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if not stacked_supported(scale, algorithms):
        return None

    from repro.mlsim.cache import materialize_cached

    envs = [
        materialize_cached(
            TrainingEnvironment(
                model,
                num_workers=scale.num_workers,
                global_batch=scale.global_batch,
                seed=scale.base_seed + r,
            ),
            rounds,
        )
        for r in range(scale.realizations)
    ]

    speed = np.stack([env.speed_matrix for env in envs])  # (R, T, N)
    comm = np.stack([env.comm_matrix for env in envs])
    slopes = np.stack([env.slope_matrix for env in envs])

    needs_oracle = any(
        getattr(BATCHED_ALGORITHMS[name], "requires_oracle", False)
        for name in algorithms
    )
    if needs_oracle and not (slopes > 0.0).all():
        # The scalar oracle falls back to level bisection on zero-slope
        # costs; the batched waterfilling solve cannot, so the whole
        # sweep falls back to stay bit-identical.
        return None

    # One learning curve per realization, persistent across algorithms:
    # the serial sweep reuses one trainer (hence one curve generator) per
    # realization for all algorithms, consuming the noise stream in
    # algorithm order — replicated here because the curves are
    # independent per-realization generators.
    curves = [LearningCurve(env.model, seed=env.seed) for env in envs]
    dataset = SyntheticDataset()
    epochs = (
        np.arange(1, rounds + 1) * scale.global_batch / dataset.num_samples
    )

    out: dict[str, list[TrainingRun]] = {}
    for name in algorithms:
        policy = make_batched(
            name,
            scale.realizations,
            scale.num_workers,
            **PAPER_HYPERPARAMETERS.get(name, {}),
        )
        out[name] = _train_stacked(
            policy,
            model_name=envs[0].model.name,
            speed=speed,
            comm=comm,
            slopes=slopes,
            global_batch=scale.global_batch,
            rounds=rounds,
            include_overhead=scale.include_overhead,
            curves=curves,
            epochs=epochs,
        )
    return out


def _train_stacked(
    policy: BatchedPolicy,
    model_name: str,
    speed: np.ndarray,
    comm: np.ndarray,
    slopes: np.ndarray,
    global_batch: int,
    rounds: int,
    include_overhead: bool,
    curves: list[LearningCurve],
    epochs: np.ndarray,
) -> list[TrainingRun]:
    """Advance one batched policy through all rounds; split into runs."""
    num_r, _, n = speed.shape
    rows = np.arange(num_r)
    big_b = global_batch

    fractions = np.empty((num_r, rounds, n))
    compute = np.empty((num_r, rounds, n))
    local = np.empty((num_r, rounds, n))
    round_latency = np.empty((num_r, rounds))
    stragglers = np.empty((num_r, rounds), dtype=int)
    overhead = np.empty(rounds)

    if policy.requires_oracle:
        prime = getattr(policy, "prime", None)
        if prime is not None:
            # Clairvoyant policies batch-solve the whole (R, T, N) horizon
            # upfront, exactly as the scalar trainer primes its oracle;
            # oracle_decide verifies each round against the primed slab.
            try:
                prime(slopes, comm)
            except SolverError:
                pass  # exotic costs: solve per round

    watch = Stopwatch()
    for t in range(1, rounds + 1):
        slopes_t = slopes[:, t - 1, :]
        comm_t = comm[:, t - 1, :]
        with watch:
            if policy.requires_oracle:
                x_t = policy.oracle_decide(slopes_t, comm_t)
            else:
                x_t = policy.decide()

        # Same domain check AffineCostVector.values applies per
        # realization before evaluating the revealed costs.
        if x_t.min() < -DEFAULT_TOL or x_t.max() > 1.0 + DEFAULT_TOL:
            raise CostFunctionError(
                f"allocation outside domain [0, 1] in round {t}"
            )
        compute_t = x_t * big_b / speed[:, t - 1, :]
        local_t = slopes_t * np.minimum(np.maximum(x_t, 0.0), 1.0) + comm_t
        stragglers_t = np.argmax(local_t, axis=1)
        global_t = local_t[rows, stragglers_t]

        feedback = BatchedRoundFeedback(
            round_index=t,
            allocations=x_t,
            slopes=slopes_t,
            intercepts=comm_t,
            local_costs=local_t,
            global_costs=global_t,
            stragglers=stragglers_t,
        )
        with watch:
            policy.update(feedback)

        fractions[:, t - 1] = x_t
        compute[:, t - 1] = compute_t
        local[:, t - 1] = local_t
        round_latency[:, t - 1] = global_t
        stragglers[:, t - 1] = stragglers_t
        # Measured batch time, attributed evenly across realizations
        # (stopwatch noise — documented as never reproducible).
        overhead[t - 1] = (watch.laps[-2] + watch.laps[-1]) / num_r

    # Post-loop passes, identical to the scalar fast path per (T, N)
    # block: largest_remainder_split_rows is row-wise bit-identical, so
    # one (R*T, N) call equals R separate (T, N) calls.
    batches = largest_remainder_split_rows(
        fractions.reshape(num_r * rounds, n), big_b
    ).reshape(num_r, rounds, n)
    waiting = round_latency[:, :, None] - local
    wall = np.cumsum(round_latency, axis=1)
    if include_overhead:
        wall = wall + np.cumsum(overhead)[None, :]

    runs = []
    for r in range(num_r):
        runs.append(
            TrainingRun(
                algorithm=policy.name,
                model=model_name,
                num_workers=n,
                rounds=rounds,
                global_batch=big_b,
                batch_fractions=fractions[r],
                batch_sizes=batches[r],
                compute_time=compute[r],
                comm_time=comm[r],
                local_latency=local[r],
                round_latency=round_latency[r],
                waiting_time=waiting[r],
                stragglers=stragglers[r],
                decision_seconds=overhead.copy(),
                wall_clock=wall[r],
                epochs=epochs,
                accuracy=curves[r].accuracy_series(epochs),
            )
        )
    return runs
