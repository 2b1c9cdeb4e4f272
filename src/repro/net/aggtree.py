"""Sharded hierarchical aggregation overlay for the FD protocol.

The paper's fully-distributed architecture broadcasts every worker's
``(l_i, alpha-bar_i)`` all-to-all — ``N(N-1)`` frames per round, the
O(N^2) row of §IV-C. The aggregation tree replaces that flat exchange
with a two-level overlay on the same complete graph:

1. **Shards.** The (sorted) participants are chunked into contiguous
   shards of at most ``shard_size`` workers; the lowest id of each shard
   is its *head*. Members report to their head only.
2. **Head tree.** The heads form a ``branching``-ary heap (shard ``i``'s
   head parents to shard ``(i-1)//branching``'s), over which per-shard
   aggregates flow up to the root and the global aggregate flows back
   down, then out to the members.

Per-round message complexity drops from ``N(N-1)`` to
``2(N - m) + 2(m - 1)`` for the consensus phase plus ``~N`` for the
decision phase (``m = ceil(N / shard_size)`` shard count) — O(N) frames
over O(log_k m) sequential hops instead of O(N^2) frames in one hop.

The round's *consensus* quantities are pure reductions — ``max`` of the
local costs (line 5), the lowest-index ``argmax`` straggler (line 7),
``min`` of the local step sizes (line 6). These are associative,
commutative, and idempotent, so the hierarchical combine is **exactly**
equal to the flat reduction in any float dtype — no tolerance needed
(``tests/property/test_tree_aggregation.py`` pins this). The decision
phase's closing *sum* is not association-free: the tree accumulates
shard partial sums (ascending member order) up the heads (children in
ascending shard order), which is a different — still deterministic —
summation order than the flat protocol's arrival-order accumulation.
That is why a tree run's trajectory differs from the flat reference at
the rounding level and why the regret impact is measured, not assumed
(see ``repro.experiments.aggregation_experiment``).

The overlay is a pure function of ``(participants, shard_size,
branching)``: every peer can rebuild it independently from the agreed
roster, so crash→rejoin resharding needs no extra coordination — the
same property the flat protocol's failure detectors rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["AggregationTree", "default_shard_size", "segment_reduce"]


def default_shard_size(num_workers: int) -> int:
    """``~sqrt(N)``: balances shard fan-in against head-tree size."""
    return max(2, int(round(float(num_workers) ** 0.5)))


def segment_reduce(
    ufunc: np.ufunc, values: np.ndarray, offsets: np.ndarray, empty
) -> np.ndarray:
    """Per-segment ``ufunc`` reduction tolerating empty segments.

    ``offsets`` are the segment start indices into ``values`` (one per
    segment, ascending, final segment running to the end). Empty segments
    yield ``empty`` instead of tripping ``reduceat``'s out-of-range read.
    """
    n_seg = offsets.size
    ends = np.append(offsets[1:], values.size)
    sizes = ends - offsets
    out = np.full(n_seg, empty, dtype=values.dtype)
    filled = sizes > 0
    if values.size and filled.any():
        # reduceat misbehaves on empty segments; reduce only the filled
        # ones and scatter back.
        safe_offsets = offsets[filled]
        reduced = ufunc.reduceat(values, safe_offsets)
        # reduceat's segment i ends at the next *listed* offset, which is
        # exactly the next filled segment's start because empty segments
        # contribute no elements in between.
        out[filled] = reduced
    return out


@dataclass(frozen=True)
class AggregationTree:
    """The overlay for one roster: shards + a k-ary tree over the heads.

    Built via :meth:`build`; all arrays are precomputed so the protocol
    fast path does pure indexing per round. Frozen: a membership change
    means a *new* tree (see ``FullyDistributedDolbie._tree_round_for``).
    """

    participants: tuple[int, ...]  #: sorted worker ids this tree covers
    shard_size: int
    branching: int
    shards: tuple[tuple[int, ...], ...]  #: contiguous id chunks
    heads: np.ndarray = field(repr=False)  #: (m,) head worker id per shard
    parent: np.ndarray = field(repr=False)  #: (m,) parent shard idx, -1 root
    member_ids: np.ndarray = field(repr=False)  #: non-head ids, ascending
    member_head: np.ndarray = field(repr=False)  #: their head's worker id
    member_offsets: np.ndarray = field(repr=False)  #: shard starts in member_ids
    levels: tuple[np.ndarray, ...] = field(repr=False)  #: shard idxs per depth

    @classmethod
    def build(
        cls,
        participants: Sequence[int],
        shard_size: int | None = None,
        branching: int = 4,
    ) -> "AggregationTree":
        ids = np.fromiter(participants, dtype=np.int64)
        ids.sort()
        if (ids[1:] == ids[:-1]).any():
            raise ConfigurationError(f"duplicate participants: {ids.tolist()}")
        n = int(ids.size)
        if n < 2:
            raise ConfigurationError(
                f"an aggregation tree needs >= 2 participants, got {ids.tolist()}"
            )
        if shard_size is None:
            shard_size = default_shard_size(n)
        if shard_size < 2:
            raise ConfigurationError(f"shard_size must be >= 2, got {shard_size}")
        if branching < 2:
            raise ConfigurationError(f"branching must be >= 2, got {branching}")
        id_list = ids.tolist()
        shards = tuple(
            tuple(id_list[i : i + shard_size]) for i in range(0, n, shard_size)
        )
        m = len(shards)
        # Shard i is ids[i*shard_size : (i+1)*shard_size]: its head is the
        # first entry, its members the rest.
        heads = ids[::shard_size].copy()
        sizes = np.full(m, shard_size - 1, dtype=np.int64)
        sizes[-1] = n - shard_size * (m - 1) - 1
        is_member = np.ones(n, dtype=bool)
        is_member[::shard_size] = False
        member_ids = ids[is_member]
        member_head = np.repeat(heads, sizes)
        member_offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        parent = np.arange(m)
        parent = np.where(parent == 0, -1, (parent - 1) // branching)
        # Depth of shard i in the k-ary heap; levels list the shard
        # indices per depth, root (depth 0) first.
        depth = np.zeros(m, dtype=int)
        for i in range(1, m):
            depth[i] = depth[(i - 1) // branching] + 1
        levels = tuple(
            np.flatnonzero(depth == d) for d in range(int(depth.max()) + 1)
        )
        return cls(
            participants=tuple(id_list),
            shard_size=int(shard_size),
            branching=int(branching),
            shards=shards,
            heads=heads,
            parent=parent,
            member_ids=member_ids,
            member_head=member_head,
            member_offsets=member_offsets,
            levels=levels,
        )

    # -- shape ------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def depth(self) -> int:
        """Number of head-tree levels below the root."""
        return len(self.levels) - 1

    @property
    def root(self) -> int:
        """Worker id of the root head."""
        return int(self.heads[0])

    def shard_of(self, worker: int) -> int:
        """Shard index holding ``worker`` (raises if not covered)."""
        for index, shard in enumerate(self.shards):
            if worker in shard:
                return index
        raise ConfigurationError(f"worker {worker} is not in this tree")

    def validate(self, expected: Sequence[int]) -> list[str]:
        """Structural problems vs. the roster ``expected`` (empty = ok).

        The chaos invariant checker calls this after every round of a
        tree-aggregating protocol: shards must cover exactly the alive
        roster with no duplicates, heads must lead their own shard, and
        the parent links must form one tree rooted at shard 0.
        """
        problems: list[str] = []
        flat = [w for shard in self.shards for w in shard]
        if len(flat) != len(set(flat)):
            problems.append(f"duplicate shard assignment: {sorted(flat)}")
        if set(flat) != {int(w) for w in expected}:
            problems.append(
                f"shards cover {sorted(set(flat))}, roster is "
                f"{sorted(int(w) for w in expected)}"
            )
        for index, shard in enumerate(self.shards):
            if len(shard) > self.shard_size:
                problems.append(
                    f"shard {index} holds {len(shard)} > shard_size "
                    f"{self.shard_size}"
                )
            if shard and int(self.heads[index]) != shard[0]:
                problems.append(
                    f"shard {index} head {int(self.heads[index])} is not its "
                    f"lowest member {shard[0]}"
                )
        if self.num_shards and int(self.parent[0]) != -1:
            problems.append("shard 0 is not the root")
        for i in range(1, self.num_shards):
            p = int(self.parent[i])
            if not 0 <= p < i:
                problems.append(f"shard {i} has invalid parent {p}")
        children = np.bincount(
            self.parent[1:], minlength=max(self.num_shards, 1)
        )
        if children.size and int(children.max(initial=0)) > self.branching:
            problems.append(
                f"a head has {int(children.max())} children > branching "
                f"{self.branching}"
            )
        return problems

    # -- reductions (the aggregation semantics) ---------------------------
    def shard_reduce(
        self, values: np.ndarray, ufunc: np.ufunc, empty
    ) -> np.ndarray:
        """Per-shard ``ufunc`` reduction of per-participant ``values``.

        ``values`` is indexed by worker id (size >= max participant + 1);
        reduction runs over each shard's members in ascending id order.
        """
        ordered = values[np.asarray(self.participants)]
        offsets = np.array(
            [sum(len(s) for s in self.shards[:i]) for i in range(self.num_shards)]
        )
        return segment_reduce(ufunc, ordered, offsets, empty)

    def reduce_max(self, values: np.ndarray) -> float:
        """Hierarchical max: shard-reduce, then combine up the head tree.

        Exact — max is associative/commutative/idempotent — so this
        equals ``values[participants].max()`` bitwise in any dtype.
        """
        partial = self.shard_reduce(values, np.maximum, -np.inf)
        return float(self._tree_combine(partial, np.maximum))

    def reduce_min(self, values: np.ndarray) -> float:
        partial = self.shard_reduce(values, np.minimum, np.inf)
        return float(self._tree_combine(partial, np.minimum))

    def reduce_argmax(self, values: np.ndarray) -> int:
        """Hierarchical lowest-index argmax over the participants.

        Each level keeps the (value, lowest worker id) pair under the
        lexicographic order (higher value wins, ties to the lower id) —
        the same tie-breaking as the flat protocol's line 7, and exact
        under any combination order because the selected *element* is
        unique.
        """
        ids = np.asarray(self.participants)
        ordered = values[ids]
        offsets = np.array(
            [sum(len(s) for s in self.shards[:i]) for i in range(self.num_shards)]
        )
        ends = np.append(offsets[1:], ordered.size)
        best_value = np.empty(self.num_shards, dtype=values.dtype)
        best_id = np.empty(self.num_shards, dtype=int)
        for i in range(self.num_shards):
            segment = ordered[offsets[i] : ends[i]]
            k = int(np.argmax(segment))  # first max = lowest id (sorted)
            best_value[i] = segment[k]
            best_id[i] = ids[offsets[i] + k]
        # Combine across shard winners: the selected *element* is unique
        # under (value desc, id asc), so a flat scan picks the same
        # element as any pairwise tree combine would.
        order = np.lexsort((best_id, -best_value))
        return int(best_id[order[0]])

    def up_order(self) -> np.ndarray:
        """Shard indices in up-tree combine order, as one flat int64 array.

        Deepest level first, ascending shard index within a level —
        exactly the iteration order of :meth:`_tree_combine` and
        :meth:`decision_sums`, flattened so the fused kernels
        (:func:`repro.backend.kernels.combine_up_consensus` /
        :func:`~repro.backend.kernels.combine_up_sums`) can replay it as
        a single loop. Empty for a single-level (root-only) tree.
        """
        below_root = self.levels[:0:-1]
        if not below_root:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(below_root).astype(np.int64)

    def _tree_combine(self, partial: np.ndarray, ufunc: np.ufunc):
        """Combine per-shard partials bottom-up along the parent links."""
        acc = partial.copy()
        for level in self.levels[:0:-1]:  # deepest level first
            for i in level:  # ascending shard order within a level
                p = int(self.parent[i])
                acc[p] = ufunc(acc[p], acc[i])
        return acc[0]

    def decision_sums(
        self, values_by_worker: np.ndarray, exclude: int | None = None
    ) -> np.ndarray:
        """Final per-shard *subtree* decision sums (deterministic order).

        Entry ``i`` is the sum of every covered worker's value in shard
        ``i``'s subtree, computed in the documented hierarchical order:
        per-shard partials accumulate members in ascending id order
        (``exclude`` — the straggler — skipped), then each parent adds its
        children's subtree totals in ascending shard order, deepest level
        first. Entry 0 is therefore the grand total the root forwards to
        the straggler; the intermediate entries are exactly the values
        the up-tree frames of the decision phase carry.

        This summation order is fixed and documented — it differs from
        the flat protocol's arrival-order sum, which is the sole source
        of the tree-vs-flat trajectory gap. Accumulation runs in
        ``values_by_worker.dtype`` (the array backend's dtype) with no
        intermediate upcast.
        """
        values_by_worker = np.asarray(values_by_worker)
        zero = values_by_worker.dtype.type(0.0)
        acc = np.zeros(self.num_shards, dtype=values_by_worker.dtype)
        for i, shard in enumerate(self.shards):
            total = zero
            for w in shard:
                if w != exclude:
                    total = total + values_by_worker[w]
            acc[i] = total
        for level in self.levels[:0:-1]:  # deepest level first
            for i in level.tolist():  # ascending shard order within a level
                p = int(self.parent[i])
                acc[p] = acc[p] + acc[i]
        return acc

    def tree_sum(
        self, values: np.ndarray, exclude: int | None = None
    ) -> float:
        """The decision phase's hierarchical grand total (root's view)."""
        return float(self.decision_sums(values, exclude)[0])
