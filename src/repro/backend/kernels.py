"""Fused kernels of the FD protocol's tree round.

The tree round (:meth:`repro.protocols.fully_distributed.
FullyDistributedDolbie._run_round_tree`) spends its array work in the
per-shard semilattice reductions and their up-tree combine, the
documented-order decision sums, and the closing simplex sum. Gathers and
readiness merges are plain numpy indexing (``values[ids]``,
``np.maximum.at``) at the call site.

Every kernel has one implementation and is **bit-identical** to the
reference semantics in :class:`repro.net.aggtree.AggregationTree`, in
either float dtype (pinned by ``tests/property/test_compiled_kernels.py``):

- ``max`` / ``min`` / lowest-index-``argmax`` are exact under any
  association, so padded-matrix reductions equal sequential scans;
- the decision sums accumulate each shard's members in ascending id
  order with the straggler skipped (replayed column by column through
  ``np.where``, so each shard's additions happen in the same order with
  the same IEEE-754 operands), then parents add children in ascending
  shard order, deepest level first (:func:`combine_up_sums` — inherently
  sequential and O(sqrt N), so it stays a loop).

Inputs are assumed finite (the protocol enforces finite costs); NaN
propagation is unspecified. Shard segments are described by
``offsets``/``ends`` index pairs into the participant-ordered arrays;
segments are non-empty, ascending, and contiguous (``offsets[i + 1] ==
ends[i]``), which is how :class:`~repro.net.aggtree.AggregationTree`
lays its shards out.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "phase_g_close",
    "shard_consensus",
    "shard_decision_sums",
    "combine_up_consensus",
    "combine_up_sums",
]

#: Always ``False``: no kernel is numba-compiled. Kept only because the
#: benchmark tracer (``perfbench/tracing.py``) imports it.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# phase B: per-shard consensus reductions + up-tree semilattice combine
# ---------------------------------------------------------------------------


def shard_consensus(
    ordered_local, ordered_alpha, part_ids, offsets, ends,
    out_max, out_arg, out_alpha,
):
    """Per-shard ``(max l, lowest-id argmax, min alpha-bar)`` over the
    participant-ordered arrays. Exact in any dtype (semilattice ops)."""
    sizes = ends - offsets
    if sizes.size:
        width = int(sizes.max())
        col = np.arange(width)
        valid = col[None, :] < sizes[:, None]
        idx = np.where(valid, offsets[:, None] + col[None, :], 0)
        vals = np.where(
            valid, ordered_local[idx], ordered_local.dtype.type(-np.inf)
        )
        out_max[:] = vals.max(axis=1)
        # np.argmax returns the first maximum — the lowest participant
        # id, because each shard's members are ascending.
        out_arg[:] = part_ids[offsets + np.argmax(vals, axis=1)]
        avals = np.where(
            valid, ordered_alpha[idx], ordered_alpha.dtype.type(np.inf)
        )
        out_alpha[:] = avals.min(axis=1)
    return out_max, out_arg, out_alpha


def combine_up_consensus(acc_max, acc_arg, acc_alpha, order, parent):
    """Fold children into parents along ``order`` (level arrays deepest
    first, ascending shard index within a level — exactly
    :meth:`AggregationTree.up_order`). In place; O(sqrt N) and
    inherently sequential, so the loop IS the vectorized form."""
    for k in range(order.shape[0]):
        i = order[k]
        p = parent[i]
        if acc_max[i] > acc_max[p] or (
            acc_max[i] == acc_max[p] and acc_arg[i] < acc_arg[p]
        ):
            acc_max[p] = acc_max[i]
            acc_arg[p] = acc_arg[i]
        if acc_alpha[i] < acc_alpha[p]:
            acc_alpha[p] = acc_alpha[i]
    return acc_max, acc_arg, acc_alpha


# ---------------------------------------------------------------------------
# phase F: documented-order decision sums
# ---------------------------------------------------------------------------


def shard_decision_sums(ordered_values, offsets, ends, exclude_pos, out):
    """Per-shard decision sums, members ascending, position
    ``exclude_pos`` (the straggler, ``-1`` for none) skipped."""
    sizes = ends - offsets
    rows = offsets.size
    if rows == 0:
        return out
    width = int(sizes.max())
    col = np.arange(width)
    valid = col[None, :] < sizes[:, None]
    idx = offsets[:, None] + col[None, :]
    if exclude_pos >= 0:
        valid = valid & (idx != exclude_pos)
    vals = ordered_values[np.where(valid, idx, 0)]
    total = np.zeros(rows, dtype=ordered_values.dtype)
    # Column k adds each shard's k-th member: per shard the additions
    # happen in ascending member order with identical IEEE-754 operands
    # to the sequential chain; np.where leaves skipped lanes untouched
    # (adding a 0.0 pad instead would turn -0.0 totals into +0.0).
    for k in range(width):
        total = np.where(valid[:, k], total + vals[:, k], total)
    out[:] = total
    return out


def combine_up_sums(acc, order, parent):
    """Parents add children's subtree totals along ``order`` (ascending
    within a level, deepest level first) — the documented decision-sum
    association. In place."""
    for k in range(order.shape[0]):
        i = order[k]
        acc[parent[i]] = acc[parent[i]] + acc[i]
    return acc


# ---------------------------------------------------------------------------
# phase G: the closing simplex sum
# ---------------------------------------------------------------------------


def phase_g_close(total):
    """Line 12 at the straggler: ``(raw, snapped)`` closing share.

    ``raw`` is ``1 - total`` computed in ``total``'s dtype (for the
    negative-workload guard); ``snapped`` applies the protocol's dust
    snap (values below 1e-12 become exactly 0.0)."""
    total = np.asarray(total)[()]
    raw = total.dtype.type(1.0) - total
    snapped = float(raw) if raw >= 1e-12 else 0.0
    return float(raw), snapped
