"""Batched (realization-stacked) policy interface and the batched DOLBIE.

The stacked sweep engine (:mod:`repro.experiments.stacked`) advances all
``R`` realizations of a sweep in lockstep: one policy object holds an
``(R, N)`` allocation matrix and consumes per-round ``(R, N)`` cost
matrices. Row ``r`` of every batched update performs the *identical*
floating-point operations, in the identical order, as the scalar policy
would on realization ``r`` alone — that bit-identity contract is what
lets :func:`repro.experiments.harness.sweep_realizations` switch between
the stacked fast path and the per-realization loop without changing a
single output byte (the batched-equivalence property tests and the
stacked-vs-serial integration tests pin it).

Only the affine/materialized cost representation is supported: batched
feedback carries the raw ``(R, N)`` slope/intercept matrices rather than
cost-function objects, matching what
:class:`repro.mlsim.materialized.MaterializedEnvironment` exposes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, as_float, get_backend
from repro.core.quantities import acceptable_workloads_rows, assistance_vector_rows
from repro.core.step_size import feasibility_cap_rows, initial_step_size
from repro.exceptions import ConfigurationError, FeasibilityError
from repro.simplex.sampling import equal_split, is_feasible_rows

__all__ = [
    "BatchedRoundFeedback",
    "BatchedPolicy",
    "BatchedDolbie",
    "identify_stragglers_rows",
]


def identify_stragglers_rows(local_costs: np.ndarray) -> np.ndarray:
    """Per-row :func:`repro.core.interface.identify_straggler`.

    ``np.argmax(axis=1)`` breaks ties toward the lowest index, exactly
    like the 1-D call, so degenerate all-equal rows pick worker 0 in both
    paths.
    """
    return np.argmax(as_float(local_costs), axis=1)


@dataclass(frozen=True)
class BatchedRoundFeedback:
    """Round-``t`` feedback for all ``R`` stacked realizations at once.

    The scalar :class:`repro.core.interface.RoundFeedback` carries cost
    *objects*; here the affine representation is explicit because the
    stacked engine only runs on materialized (affine) environments.
    """

    round_index: int
    allocations: np.ndarray  #: (R, N) — what was played this round.
    slopes: np.ndarray  #: (R, N) affine cost slopes revealed this round.
    intercepts: np.ndarray  #: (R, N) affine cost intercepts.
    local_costs: np.ndarray  #: (R, N) realized per-worker costs.
    global_costs: np.ndarray  #: (R,) per-realization max cost.
    stragglers: np.ndarray  #: (R,) int straggler index per realization.

    def __post_init__(self) -> None:
        shape = np.shape(self.allocations)
        if len(shape) != 2:
            raise ConfigurationError(
                f"allocations must be (R, N), got shape {shape}"
            )
        for name in ("slopes", "intercepts", "local_costs"):
            if np.shape(getattr(self, name)) != shape:
                raise ConfigurationError(
                    f"{name} shape {np.shape(getattr(self, name))} != {shape}"
                )
        if np.shape(self.global_costs) != (shape[0],):
            raise ConfigurationError("global_costs must be (R,)")
        if np.shape(self.stragglers) != (shape[0],):
            raise ConfigurationError("stragglers must be (R,)")


class BatchedPolicy(abc.ABC):
    """Base class of realization-stacked load-balancing policies.

    Mirrors :class:`repro.core.interface.OnlineLoadBalancer` with the
    leading ``R`` axis added to every quantity. The feasibility
    post-condition is checked row-wise with the same ``atol`` as the
    scalar base class.
    """

    #: Scalar-algorithm name this policy batches (registry key).
    name: str = "base"

    #: True for OPT-style oracles that receive the round's costs in advance.
    requires_oracle: bool = False

    def __init__(
        self,
        num_realizations: int,
        num_workers: int,
        initial_allocation: np.ndarray | None = None,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        if num_realizations < 1:
            raise ConfigurationError(
                f"need >= 1 stacked realization, got {num_realizations}"
            )
        if num_workers < 2:
            raise ConfigurationError(
                f"load balancing needs >= 2 workers, got {num_workers}"
            )
        self.num_realizations = int(num_realizations)
        self.num_workers = int(num_workers)
        #: Array backend of the (R, N) state (:mod:`repro.backend`);
        #: numpy64 (the default) reproduces the historical float64
        #: arithmetic bit for bit.
        self.backend = get_backend(backend)
        if initial_allocation is None:
            initial_allocation = equal_split(self.num_workers)
        x0 = self.backend.asarray(initial_allocation)
        if x0.ndim == 1:
            x0 = np.tile(x0, (self.num_realizations, 1))
        x0 = x0.copy()
        expected = (self.num_realizations, self.num_workers)
        if x0.shape != expected or not bool(is_feasible_rows(x0).all()):
            raise FeasibilityError(
                f"initial allocations must be feasible with shape {expected}"
            )
        self._allocations = x0
        self.round = 1

    @property
    def allocations(self) -> np.ndarray:
        """The ``(R, N)`` allocations played this round (a copy)."""
        return self._allocations.copy()

    def decide(self) -> np.ndarray:
        """Return the allocations to play in the current round."""
        return self.allocations

    def update(self, feedback: BatchedRoundFeedback) -> None:
        """Consume the revealed costs and move every row to round ``t+1``."""
        self._update(feedback)
        ok = is_feasible_rows(self._allocations, atol=1e-7)
        if not bool(ok.all()):
            bad = int(np.argmin(ok))
            row = self._allocations[bad]
            raise FeasibilityError(
                f"{self.name} produced an infeasible allocation in round "
                f"{feedback.round_index} (realization {bad}): "
                f"sum={row.sum()!r}, min={row.min()!r}"
            )
        self.round = feedback.round_index + 1

    @abc.abstractmethod
    def _update(self, feedback: BatchedRoundFeedback) -> None:
        """Policy-specific transition; must set ``self._allocations``."""

    def oracle_decide(self, slopes: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
        """Clairvoyant decision hook; only batched OPT overrides this."""
        raise NotImplementedError(f"{self.name} is not an oracle algorithm")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(R={self.num_realizations}, "
            f"N={self.num_workers}, round={self.round})"
        )


class BatchedDolbie(BatchedPolicy):
    """Realization-stacked DOLBIE (Eqs. 4-9, row-wise).

    Each row follows :class:`repro.core.dolbie.Dolbie` exactly: the
    schedule alpha advances from the *unguarded* Eq. (7) cap while the
    exact feasibility guard only tightens the alpha applied locally this
    round, the straggler coordinate closes the simplex sum, and
    floating-point dust within ``±1e-12`` of zero snaps to exactly zero.
    History recording and tracing are deliberately absent — the stacked
    engine is a throughput path; runs that need per-round forensics use
    the scalar class.
    """

    name = "DOLBIE"

    def __init__(
        self,
        num_realizations: int,
        num_workers: int,
        initial_allocation: np.ndarray | None = None,
        alpha_1: float | None = None,
        exact_feasibility_guard: bool = True,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        super().__init__(
            num_realizations, num_workers, initial_allocation, backend=backend
        )
        if alpha_1 is None:
            # Per-row paper initialization. All rows share x_1 in the sweep
            # harness, but per-row derivation keeps the class general.
            alphas = self.backend.asarray(
                [initial_step_size(row) for row in self._allocations]
            )
        else:
            if not 0.0 <= alpha_1 <= 1.0:
                raise ConfigurationError(
                    f"alpha_1 must lie in [0, 1], got {alpha_1}"
                )
            alphas = self.backend.full(self.num_realizations, float(alpha_1))
        #: (R,) schedule step sizes — the Eq. (7) state, pre-guard.
        self._alpha = alphas
        self.exact_feasibility_guard = bool(exact_feasibility_guard)

    @property
    def alpha(self) -> np.ndarray:
        """The ``(R,)`` schedule step sizes for the current round (a copy)."""
        return self._alpha.copy()

    def _update(self, feedback: BatchedRoundFeedback) -> None:
        x = self._allocations
        s = np.asarray(feedback.stragglers)
        rows = np.arange(x.shape[0])
        alpha = self._alpha

        x_prime = acceptable_workloads_rows(
            feedback.slopes, feedback.intercepts, x, feedback.global_costs, s
        )
        g = assistance_vector_rows(x, x_prime, s)

        # Exact per-round bound alpha <= x_s / shed_total (guarded rows
        # only); the schedule state itself stays unguarded, exactly like
        # the scalar class, where the local variable is tightened but
        # step_rule.alpha advances from the schedule value.
        shed_total = g[rows, s]
        if self.exact_feasibility_guard:
            positive = shed_total > 0.0
            safe_shed = np.where(positive, shed_total, 1.0)
            alpha = np.where(
                positive, np.minimum(alpha, x[rows, s] / safe_shed), alpha
            )

        x_next = x - alpha[:, None] * g
        # Straggler coordinates close the simplex constraint exactly; the
        # row-wise sum(axis=1) matches the scalar 1-D sum bit-for-bit on
        # the contiguous rows (numpy pairwise summation).
        x_next[rows, s] = 1.0 - (x_next.sum(axis=1) - x_next[rows, s])
        closing = x_next[rows, s]
        dust = (-1e-12 < closing) & (closing < 1e-12)
        x_next[rows, s] = np.where(dust, 0.0, closing)

        self._allocations = x_next
        # Eq. (7) advance from the schedule alpha (not the guarded local).
        self._alpha = np.minimum(
            self._alpha, feasibility_cap_rows(x_next[rows, s], self.num_workers)
        )
