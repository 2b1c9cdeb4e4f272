"""Shared machinery for the per-figure experiment modules.

Two execution-layer optimizations live here (design notes in
``docs/performance.md``):

* **Shared materialized environments** — every algorithm inside one
  realization replays the identical world, so :func:`train_all` builds
  the :class:`~repro.mlsim.environment.TrainingEnvironment` once,
  materializes its ``(T, N)`` cost traces through the on-disk cache
  (bit-identical to the incremental accessors), and reuses that one
  :class:`~repro.mlsim.materialized.MaterializedEnvironment` across all
  algorithms instead of re-walking the fluctuation traces per algorithm.
* **Parallel sweeps** — :func:`sweep_realizations` fans independent
  realizations out over a ``ProcessPoolExecutor`` when ``jobs > 1``.
  Results are merged in submission (seed) order, so serial and parallel
  sweeps produce identical output for the same scale.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.config import ALL_ALGORITHMS, ExperimentScale, paper_balancer
from repro.mlsim.environment import TrainingEnvironment
from repro.mlsim.trainer import SyncTrainer, TrainingRun

logger = logging.getLogger(__name__)

__all__ = [
    "RealizationSpec",
    "SweepCheckpoint",
    "train_all",
    "sweep_realizations",
    "reduction_vs",
    "stack_round_latency",
    "stack_cumulative_latency",
]


@dataclass(frozen=True)
class RealizationSpec:
    """Compact picklable description of one realization.

    This is the *entire* IPC payload a pool worker receives: plain
    scalars and strings, never an environment object. The worker rebuilds
    the :class:`~repro.mlsim.environment.TrainingEnvironment` from the
    config and seed and materializes the ``(T, N)`` cost traces locally,
    so the (potentially large) matrices are computed where they are used
    instead of being pickled across the process boundary.

    :meth:`run` is also the per-realization reference the stacked engine
    is pinned bit-identical to.
    """

    model: str
    num_workers: int
    global_batch: int
    rounds: int
    seed: int
    include_overhead: bool
    algorithms: tuple[str, ...]

    @classmethod
    def from_scale(
        cls,
        model: str,
        scale: ExperimentScale,
        rounds: int | None,
        seed: int,
        algorithms: Sequence[str],
    ) -> "RealizationSpec":
        return cls(
            model=model,
            num_workers=scale.num_workers,
            global_batch=scale.global_batch,
            rounds=rounds if rounds is not None else scale.rounds,
            seed=seed,
            include_overhead=scale.include_overhead,
            algorithms=tuple(algorithms),
        )

    def run(self) -> dict[str, TrainingRun]:
        """Build and materialize the environment, then train every
        algorithm on it."""
        from repro.mlsim.cache import materialize_cached

        env = materialize_cached(
            TrainingEnvironment(
                self.model,
                num_workers=self.num_workers,
                global_batch=self.global_batch,
                seed=self.seed,
            ),
            self.rounds,
        )
        trainer = SyncTrainer(
            env, include_overhead_in_wallclock=self.include_overhead
        )
        return {
            name: trainer.train(
                paper_balancer(name, self.num_workers), self.rounds
            )
            for name in self.algorithms
        }


def train_all(
    model: str,
    scale: ExperimentScale,
    rounds: int | None = None,
    seed: int | None = None,
    algorithms: Sequence[str] | None = None,
) -> dict[str, TrainingRun]:
    """Run every algorithm once on the same environment realization.

    The realization's cost traces are materialized once and shared by
    all algorithms.
    """
    algorithms = list(algorithms) if algorithms is not None else list(ALL_ALGORITHMS)
    seed = seed if seed is not None else scale.base_seed
    return RealizationSpec.from_scale(model, scale, rounds, seed, algorithms).run()


def _run_spec(spec: RealizationSpec) -> dict[str, TrainingRun]:
    """Pool entry point (module-level so it pickles by reference)."""
    return spec.run()


class SweepCheckpoint:
    """Realization-granular durability for :func:`sweep_realizations`.

    Each finished realization's :class:`TrainingRun` per algorithm is
    persisted as ``real-<seed>/<algorithm>.npz`` plus an atomically
    rewritten ``manifest.json`` listing the completed seeds. The
    manifest carries a fingerprint of the sweep configuration (model,
    sizing, algorithm list), so resuming under a *different*
    configuration is refused instead of silently mixing trajectories.

    Note the scope of the guarantee: the simulated series are
    byte-identical between a resumed and an uninterrupted sweep, but the
    stopwatch-measured overhead fields (``decision_seconds`` and, with
    ``include_overhead``, ``wall_clock``) are real time and never
    reproduce exactly — same caveat as the execution modes above.
    """

    def __init__(self, directory, config: dict) -> None:
        from pathlib import Path

        from repro.ckpt.codec import fingerprint

        self.directory = Path(directory)
        self.fingerprint = fingerprint(config)
        self.config = config

    @property
    def manifest_path(self):
        return self.directory / "manifest.json"

    def completed_seeds(self) -> set[int]:
        """Seeds with a durable realization (empty on first run)."""
        import json

        from repro.exceptions import CheckpointError
        from repro.utils.atomic import self_healing_load

        manifest = self_healing_load(
            self.manifest_path, lambda path: json.loads(path.read_text())
        )
        if manifest is None:
            return set()
        if manifest.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"sweep checkpoint at {self.directory} was written under a "
                "different configuration; point --checkpoint-dir somewhere "
                "fresh or delete it"
            )
        return {int(seed) for seed in manifest.get("completed", [])}

    def _realization_dir(self, seed: int):
        return self.directory / f"real-{int(seed):08d}"

    def load_realization(
        self, seed: int, algorithms: Sequence[str]
    ) -> dict[str, TrainingRun] | None:
        """The persisted runs for ``seed``, or None if any file is
        missing/corrupt (the realization then simply recomputes)."""
        import zipfile

        from repro.exceptions import ConfigurationError
        from repro.io import load_training_run
        from repro.utils.atomic import CORRUPT_ERRORS, self_healing_load

        runs: dict[str, TrainingRun] = {}
        for name in algorithms:
            run = self_healing_load(
                self._realization_dir(seed) / f"{name}.npz",
                load_training_run,
                corrupt_errors=CORRUPT_ERRORS
                + (ConfigurationError, zipfile.BadZipFile),
            )
            if run is None:
                return None
            runs[name] = run
        return runs

    def save_realization(
        self, seed: int, runs: dict[str, TrainingRun]
    ) -> None:
        import json

        from repro.io import save_training_run
        from repro.utils.atomic import atomic_write

        for name, run in runs.items():
            save_training_run(run, self._realization_dir(seed) / f"{name}.npz")
        completed = sorted(self.completed_seeds() | {int(seed)})
        manifest = json.dumps(
            {
                "fingerprint": self.fingerprint,
                "config": self.config,
                "completed": completed,
            },
            indent=2,
            sort_keys=True,
        )
        atomic_write(
            self.manifest_path,
            lambda handle: handle.write(manifest.encode("utf-8")),
        )


def sweep_realizations(
    model: str,
    scale: ExperimentScale,
    rounds: int | None = None,
    algorithms: Sequence[str] | None = None,
    jobs: int | None = None,
    checkpoint_dir: str | None = None,
) -> dict[str, list[TrainingRun]]:
    """Run every algorithm over ``scale.realizations`` processor samplings.

    Realization ``r`` uses seed ``base_seed + r`` for the environment, so
    all algorithms inside one realization face identical costs (paired
    comparison, as in the paper's Figs. 4-5).

    ``jobs`` (default ``scale.jobs``) > 1 distributes realizations over a
    process pool, clamped to ``os.cpu_count()`` — extra workers on an
    oversubscribed box only fight for the same cores. Each worker
    receives only a :class:`RealizationSpec` (config + seed) and
    materializes its environment locally — no cost matrices cross the
    IPC boundary.

    Serial sweeps (``jobs == 1``) take the realization-stacked fast path
    of :mod:`repro.experiments.stacked` whenever it returns a result
    (every algorithm batched-supported, positive slopes for the
    oracle), falling back to the per-realization loop otherwise. All
    three execution
    modes run the identical simulated trajectories, so every simulated
    series (round latency, costs, accuracy) is byte-identical across
    them. The one exception is measured balancer overhead
    (``decision_seconds`` and, with ``scale.include_overhead``,
    ``wall_clock``): that is real stopwatch time and varies run to run
    regardless of execution mode.

    ``checkpoint_dir`` (default ``scale.checkpoint_dir``) makes the
    sweep durable at realization granularity via
    :class:`SweepCheckpoint`: finished realizations persist as ``.npz``
    files and an interrupted sweep resumes from the completed set. The
    stacked fast path is skipped while checkpointing (it has no
    per-realization boundary), so a checkpointed sweep runs the
    per-realization loop — same simulated series either way.
    """
    algorithms = list(algorithms) if algorithms is not None else list(ALL_ALGORITHMS)
    jobs = jobs if jobs is not None else scale.jobs
    available = os.cpu_count() or 1
    if jobs > available:
        logger.warning(
            "requested jobs=%d exceeds cpu_count=%d; clamping to %d",
            jobs,
            available,
            available,
        )
        jobs = available
    specs = [
        RealizationSpec.from_scale(
            model, scale, rounds, scale.base_seed + r, algorithms
        )
        for r in range(scale.realizations)
    ]
    checkpoint_dir = (
        checkpoint_dir if checkpoint_dir is not None else scale.checkpoint_dir
    )
    checkpoint = None
    restored: dict[int, dict[str, TrainingRun]] = {}
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_dir,
            {
                "model": model,
                "num_workers": scale.num_workers,
                "global_batch": scale.global_batch,
                "rounds": specs[0].rounds if specs else rounds,
                "realizations": scale.realizations,
                "base_seed": scale.base_seed,
                "algorithms": list(algorithms),
            },
        )
        for seed in checkpoint.completed_seeds():
            runs = checkpoint.load_realization(seed, algorithms)
            if runs is not None:
                restored[seed] = runs
        if restored:
            logger.info(
                "sweep resume: %d/%d realizations restored from %s",
                len(restored), len(specs), checkpoint_dir,
            )
    pending = [spec for spec in specs if spec.seed not in restored]
    computed: dict[int, dict[str, TrainingRun]] = {}
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                spec.seed: pool.submit(_run_spec, spec) for spec in pending
            }
            for seed, future in futures.items():
                computed[seed] = future.result()
                if checkpoint is not None:
                    checkpoint.save_realization(seed, computed[seed])
    else:
        # The stacked fast path advances every realization at once, so
        # it has no per-realization boundary to checkpoint at; use it
        # only when the whole sweep runs in one piece.
        if checkpoint is None:
            from repro.experiments.stacked import sweep_stacked

            stacked = sweep_stacked(model, scale, rounds, algorithms)
            if stacked is not None:
                return stacked
        for spec in pending:
            computed[spec.seed] = spec.run()
            if checkpoint is not None:
                checkpoint.save_realization(spec.seed, computed[spec.seed])
    out: dict[str, list[TrainingRun]] = {name: [] for name in algorithms}
    for spec in specs:
        runs = restored.get(spec.seed) or computed[spec.seed]
        for name, run in runs.items():
            out[name].append(run)
    return out


def reduction_vs(value: float, baseline: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline``."""
    if baseline <= 0:
        return float("nan")
    return 100.0 * (1.0 - value / baseline)


def stack_round_latency(runs: list[TrainingRun]) -> np.ndarray:
    """(R, T) per-round latency across realizations."""
    return np.stack([run.round_latency for run in runs])


def stack_cumulative_latency(runs: list[TrainingRun]) -> np.ndarray:
    """(R, T) cumulative wall-clock (incl. balancer overhead)."""
    return np.stack([run.wall_clock for run in runs])
