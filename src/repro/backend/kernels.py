"""Fused kernels of the FD protocol's tree round.

The tree round (:meth:`repro.protocols.fully_distributed.
FullyDistributedDolbie._run_round_tree`) spends its time in a few
array computations: gathering participant-ordered payloads, the
per-shard semilattice reductions and their up-tree combine, the member
fan-out send times, the readiness merges, the documented-order decision
sums, and the closing simplex sum. This module provides each of them
twice:

- a **loop implementation** written in njit-compatible style, compiled
  with ``numba.njit(cache=True, nogil=True)`` when numba is importable;
- a **vectorized numpy fallback** used when numba is absent, so the
  tree round works — and tier-1 stays hermetic — on a bare numpy-only
  interpreter.

Both implementations are **bit-identical** to the reference semantics in
:class:`repro.net.aggtree.AggregationTree`, in either float dtype
(pinned by ``tests/property/test_compiled_kernels.py``):

- ``max`` / ``min`` / lowest-index-``argmax`` are exact under any
  association, so padded-matrix reductions equal sequential scans;
- the decision sums accumulate each shard's members in ascending id
  order with the straggler skipped (the numpy fallback replays that
  exact per-shard chain column by column through ``np.where``, so each
  shard's additions happen in the same order with the same IEEE-754
  operands), then parents add children in ascending shard order,
  deepest level first (:func:`combine_up_sums` — inherently sequential
  and O(sqrt N), so it stays a loop in both flavors).

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
    "HAVE_NUMBA",
    "phase_d_sendtimes",
    "phase_g_close",
    "gather",
    "scatter_max",
    "shard_consensus",
    "shard_decision_sums",
    "combine_up_consensus",
    "combine_up_sums",
]

try:  # pragma: no cover - exercised only where numba is installed (CI)
    import numba

    HAVE_NUMBA = True
except ImportError:  # the hermetic default: pure-numpy fallbacks
    numba = None
    HAVE_NUMBA = False


def _jit(func):
    """``numba.njit(cache=True, nogil=True)`` when available, else the
    plain python function (kept callable so the property suite can check
    the loop logic even on a numba-less interpreter)."""
    if not HAVE_NUMBA:
        return func
    return numba.njit(cache=True, nogil=True)(func)


# ---------------------------------------------------------------------------
# gather / scatter primitives (payload gathers + readiness merges)
# ---------------------------------------------------------------------------


@_jit
def _gather_loop(values, ids, out):
    for k in range(ids.shape[0]):
        out[k] = values[ids[k]]


def gather(values, ids):
    """``values[ids]`` — the fused payload/send-time pack. Exact (a
    copy) in any dtype."""
    if HAVE_NUMBA:
        out = np.empty(ids.shape[0], dtype=values.dtype)
        _gather_loop(values, ids, out)
        return out
    return values[ids]


@_jit
def _scatter_max_loop(out, idx, values):
    for k in range(idx.shape[0]):
        i = idx[k]
        if values[k] > out[i]:
            out[i] = values[k]


def scatter_max(out, idx, values):
    """``out[idx[k]] = max(out[idx[k]], values[k])`` — the per-shard
    readiness merge (``np.maximum.at`` semantics; max is order-free so
    the loop and the ufunc agree bitwise)."""
    if HAVE_NUMBA:
        _scatter_max_loop(out, idx, values)
    else:
        np.maximum.at(out, idx, values)
    return out


# ---------------------------------------------------------------------------
# phase B: per-shard consensus reductions + up-tree semilattice combine
# ---------------------------------------------------------------------------


@_jit
def _shard_consensus_loop(
    ordered_local, ordered_alpha, part_ids, offsets, ends,
    out_max, out_arg, out_alpha,
):
    for s in range(offsets.shape[0]):
        a = offsets[s]
        b = ends[s]
        best = ordered_local[a]
        arg = part_ids[a]
        amin = ordered_alpha[a]
        for j in range(a + 1, b):
            v = ordered_local[j]
            if v > best:  # strict: first max = lowest id (ids ascending)
                best = v
                arg = part_ids[j]
            if ordered_alpha[j] < amin:
                amin = ordered_alpha[j]
        out_max[s] = best
        out_arg[s] = arg
        out_alpha[s] = amin


def _shard_consensus_numpy(
    ordered_local, ordered_alpha, part_ids, offsets, ends,
    out_max, out_arg, out_alpha,
):
    sizes = ends - offsets
    if sizes.size == 0:
        return
    width = int(sizes.max())
    col = np.arange(width)
    valid = col[None, :] < sizes[:, None]
    idx = np.where(valid, offsets[:, None] + col[None, :], 0)
    vals = np.where(valid, ordered_local[idx], ordered_local.dtype.type(-np.inf))
    out_max[:] = vals.max(axis=1)
    # np.argmax returns the first maximum — the lowest participant id,
    # because each shard's members are ascending.
    out_arg[:] = part_ids[offsets + np.argmax(vals, axis=1)]
    avals = np.where(valid, ordered_alpha[idx], ordered_alpha.dtype.type(np.inf))
    out_alpha[:] = avals.min(axis=1)


def shard_consensus(
    ordered_local, ordered_alpha, part_ids, offsets, ends,
    out_max, out_arg, out_alpha,
):
    """Per-shard ``(max l, lowest-id argmax, min alpha-bar)`` over the
    participant-ordered arrays. Exact in any dtype (semilattice ops)."""
    impl = _shard_consensus_loop if HAVE_NUMBA else _shard_consensus_numpy
    impl(
        ordered_local, ordered_alpha, part_ids, offsets, ends,
        out_max, out_arg, out_alpha,
    )
    return out_max, out_arg, out_alpha


@_jit
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
# phase D: member fan-out send times
# ---------------------------------------------------------------------------


def phase_d_sendtimes(down_ready, member_shard):
    """Phase D send times: each head fans out the moment its down-tree
    frame arrived — a gather of head readiness per member."""
    return gather(down_ready, member_shard)


# ---------------------------------------------------------------------------
# phase F: documented-order decision sums
# ---------------------------------------------------------------------------


@_jit
def _shard_sums_loop(ordered_values, offsets, ends, exclude_pos, out):
    for s in range(offsets.shape[0]):
        out[s] = 0.0
        for j in range(offsets[s], ends[s]):
            if j != exclude_pos:
                # Read-modify-write on the out array keeps every
                # addition in the array dtype — the same f32/f64 chain
                # as AggregationTree.decision_sums' scalar loop.
                out[s] = out[s] + ordered_values[j]


def _shard_sums_numpy(ordered_values, offsets, ends, exclude_pos, out):
    sizes = ends - offsets
    rows = offsets.size
    if rows == 0:
        return
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


def shard_decision_sums(ordered_values, offsets, ends, exclude_pos, out):
    """Per-shard decision sums, members ascending, position
    ``exclude_pos`` (the straggler, ``-1`` for none) skipped."""
    impl = _shard_sums_loop if HAVE_NUMBA else _shard_sums_numpy
    impl(ordered_values, offsets, ends, exclude_pos, out)
    return out


@_jit
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
