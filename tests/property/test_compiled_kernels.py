"""Property tests: the FD tree round's kernels are bitwise-exact.

:mod:`repro.backend.kernels` holds one numpy implementation per kernel.
The contract that makes the tree round safe is that **every kernel
equals the reference semantics bit for bit, in either float dtype, on
any roster** (including sparse "degraded" id sets left behind by
crashes). These properties pin that contract against the
:class:`~repro.net.aggtree.AggregationTree` reference reductions, over
the tree's own ``ids``/``offsets`` layout — the arrays the round reads.
The decision sums replay the documented association exactly: the
column-wise ``np.where`` chain is operand-for-operand the sequential
per-shard chain, so even float32 matches bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import kernels
from repro.net.aggtree import AggregationTree

DTYPES = [np.float64, np.float32]


@st.composite
def kernel_cases(draw, max_workers=48):
    """A roster (possibly sparse ids), tree shape, and two value arrays."""
    n = draw(st.integers(min_value=2, max_value=max_workers))
    universe = draw(st.integers(min_value=n, max_value=2 * max_workers))
    ids = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=universe - 1),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    shard_size = draw(st.integers(min_value=2, max_value=max(2, n)))
    branching = draw(st.integers(min_value=2, max_value=6))
    finite = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    values = np.asarray(
        draw(st.lists(finite, min_size=universe, max_size=universe))
    )
    alphas = np.asarray(
        draw(st.lists(finite, min_size=universe, max_size=universe))
    )
    straggler = draw(st.sampled_from(ids))
    return ids, shard_size, branching, values, alphas, straggler


def _consensus(ordered_local, ordered_alpha, tree):
    """Phase B's aggregates as the tree round computes them: per-shard
    reductions, then the up-tree combine. Entry 0 is the root's triple."""
    m = tree.num_shards
    out = (
        np.empty(m, dtype=ordered_local.dtype),
        np.empty(m, dtype=np.int64),
        np.empty(m, dtype=ordered_alpha.dtype),
    )
    kernels.shard_consensus(
        ordered_local, ordered_alpha, tree.ids, tree.offsets, tree.ends, *out
    )
    return kernels.combine_up_consensus(*out, tree.up_order(), tree.parent)


def _decision_sums(ordered, exclude_pos, tree):
    """Phase F's partial sums as the tree round computes them: per-shard
    sums, then the up-tree combine. Entry 0 is the grand total."""
    out = np.empty(tree.num_shards, dtype=ordered.dtype)
    kernels.shard_decision_sums(
        ordered, tree.offsets, tree.ends, exclude_pos, out
    )
    return kernels.combine_up_sums(out, tree.up_order(), tree.parent)


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_shard_consensus_matches_reference(case, dtype):
    ids, shard_size, branching, values, alphas, straggler = case
    tree = AggregationTree.build(ids, shard_size, branching)
    ordered_local = values.astype(dtype)[tree.ids]
    ordered_alpha = alphas.astype(dtype)[tree.ids]
    m = tree.num_shards
    out = (
        np.empty(m, dtype=dtype),
        np.empty(m, dtype=np.int64),
        np.empty(m, dtype=dtype),
    )
    kernels.shard_consensus(
        ordered_local, ordered_alpha, tree.ids, tree.offsets, tree.ends, *out
    )
    # Per-shard reference: sequential python over each shard.
    for s, shard in enumerate(tree.shards):
        seg = ordered_local[tree.offsets[s] : tree.ends[s]]
        k = int(np.argmax(seg))
        assert out[0][s] == seg.max()
        assert out[1][s] == shard[k]
        assert out[2][s] == ordered_alpha[tree.offsets[s] : tree.ends[s]].min()


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_phase_b_consensus_root_equals_flat_reductions(case, dtype):
    ids, shard_size, branching, values, alphas, _ = case
    tree = AggregationTree.build(ids, shard_size, branching)
    values = values.astype(dtype)
    alphas = alphas.astype(dtype)
    acc_max, acc_arg, acc_alpha = _consensus(
        values[tree.ids], alphas[tree.ids], tree
    )
    assert float(acc_max[0]) == tree.reduce_max(values)
    assert int(acc_arg[0]) == tree.reduce_argmax(values)
    assert float(acc_alpha[0]) == tree.reduce_min(alphas)


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_decision_sums_bitwise_equal_documented_order(case, dtype):
    ids, shard_size, branching, values, _, straggler = case
    tree = AggregationTree.build(ids, shard_size, branching)
    by_worker = values.astype(dtype)
    exclude_pos = int(np.searchsorted(tree.ids, straggler))

    reference = tree.decision_sums(by_worker, exclude=straggler)
    full = _decision_sums(by_worker[tree.ids], exclude_pos, tree)
    assert full.dtype == np.dtype(dtype)
    assert np.array_equal(full, reference.astype(dtype))


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_decision_sums_without_exclusion(case, dtype):
    ids, shard_size, branching, values, _, _ = case
    tree = AggregationTree.build(ids, shard_size, branching)
    by_worker = values.astype(dtype)
    full = _decision_sums(by_worker[tree.ids], -1, tree)
    assert np.array_equal(full, tree.decision_sums(by_worker).astype(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("straggler", [None, 3])
def test_decision_sums_keep_the_reference_sign_of_zero(dtype, straggler):
    # Signed zeros and exact cancellations: equal values are not enough,
    # the sign of every zero partial sum must match the reference too.
    ids = list(range(10))
    tree = AggregationTree.build(ids, 3, 2)
    by_worker = np.array(
        [-0.0, -0.0, -0.0, 1.5, -1.5, -0.0, 0.25, -0.25, -0.0, -0.0],
        dtype=dtype,
    )
    exclude_pos = -1 if straggler is None else straggler
    full = _decision_sums(by_worker[tree.ids], exclude_pos, tree)
    reference = tree.decision_sums(by_worker, exclude=straggler)
    assert np.array_equal(full, reference)
    assert np.array_equal(np.signbit(full), np.signbit(reference))


@given(
    total=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    dtype=st.sampled_from(DTYPES),
)
@settings(max_examples=200, deadline=None)
def test_phase_g_close_matches_scalar_snap(total, dtype):
    t = np.dtype(dtype).type(total)
    raw, snapped = kernels.phase_g_close(t)
    expected_raw = np.dtype(dtype).type(1.0) - t
    assert raw == float(expected_raw)
    assert snapped == (float(expected_raw) if expected_raw >= 1e-12 else 0.0)

