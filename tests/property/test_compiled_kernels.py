"""Property tests: the FD tree round's kernels are bitwise-exact.

:mod:`repro.backend.kernels` ships every kernel twice — an
njit-compatible loop (compiled when numba is importable, plain python
otherwise) and a vectorized numpy fallback — and the FD tree round
dispatches to whichever is active. The contract that makes either safe
is that **both flavors equal the reference semantics bit for bit, in
either float dtype, on any roster** (including sparse "degraded" id
sets left behind by crashes). These properties pin that contract:

- the loop and numpy flavors of each kernel agree with each other and
  with the :class:`~repro.net.aggtree.AggregationTree` reference
  reductions;
- the decision sums replay the documented association exactly — the
  numpy fallback's column-wise ``np.where`` chain is operand-for-operand
  the sequential per-shard chain, so even float32 matches bitwise.

On a numba-less interpreter the loop flavor runs as plain python — the
properties still validate the njit logic, because ``@numba.njit`` does
not change the IEEE-754 semantics of these loops (no fastmath, no
reassociation).
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


def _layout(tree: AggregationTree):
    """Participant-ordered segment layout, as the protocol builds it."""
    parts = np.asarray(tree.participants, dtype=np.int64)
    sizes = np.array([len(s) for s in tree.shards], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    ends = (offsets + sizes).astype(np.int64)
    return parts, offsets, ends


def _consensus(ordered_local, ordered_alpha, parts, offsets, ends, tree):
    """Phase B's aggregates as the tree round computes them: per-shard
    reductions, then the up-tree combine. Entry 0 is the root's triple."""
    m = tree.num_shards
    out = (
        np.empty(m, dtype=ordered_local.dtype),
        np.empty(m, dtype=np.int64),
        np.empty(m, dtype=ordered_alpha.dtype),
    )
    kernels.shard_consensus(
        ordered_local, ordered_alpha, parts, offsets, ends, *out
    )
    return kernels.combine_up_consensus(
        *out, tree.up_order(), tree.parent.astype(np.int64)
    )


def _decision_sums(ordered, offsets, ends, exclude_pos, tree):
    """Phase F's partial sums as the tree round computes them: per-shard
    sums, then the up-tree combine. Entry 0 is the grand total."""
    out = np.empty(tree.num_shards, dtype=ordered.dtype)
    kernels.shard_decision_sums(ordered, offsets, ends, exclude_pos, out)
    return kernels.combine_up_sums(
        out, tree.up_order(), tree.parent.astype(np.int64)
    )


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_shard_consensus_matches_reference_and_flavors_agree(case, dtype):
    ids, shard_size, branching, values, alphas, straggler = case
    tree = AggregationTree.build(ids, shard_size, branching)
    parts, offsets, ends = _layout(tree)
    ordered_local = values.astype(dtype)[parts]
    ordered_alpha = alphas.astype(dtype)[parts]
    m = tree.num_shards

    def run(impl):
        out = (
            np.empty(m, dtype=dtype),
            np.empty(m, dtype=np.int64),
            np.empty(m, dtype=dtype),
        )
        impl(ordered_local, ordered_alpha, parts, offsets, ends, *out)
        return out

    loop = run(kernels._shard_consensus_loop)
    vec = run(kernels._shard_consensus_numpy)
    for a, b in zip(loop, vec):
        assert np.array_equal(a, b)
    # Per-shard reference: sequential python over each shard.
    for s, shard in enumerate(tree.shards):
        seg = ordered_local[offsets[s] : ends[s]]
        k = int(np.argmax(seg))
        assert loop[0][s] == seg.max()
        assert loop[1][s] == shard[k]
        assert loop[2][s] == ordered_alpha[offsets[s] : ends[s]].min()


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_phase_b_consensus_root_equals_flat_reductions(case, dtype):
    ids, shard_size, branching, values, alphas, _ = case
    tree = AggregationTree.build(ids, shard_size, branching)
    parts, offsets, ends = _layout(tree)
    values = values.astype(dtype)
    alphas = alphas.astype(dtype)
    acc_max, acc_arg, acc_alpha = _consensus(
        values[parts], alphas[parts], parts, offsets, ends, tree
    )
    assert float(acc_max[0]) == tree.reduce_max(values)
    assert int(acc_arg[0]) == tree.reduce_argmax(values)
    assert float(acc_alpha[0]) == tree.reduce_min(alphas)


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_decision_sums_bitwise_equal_documented_order(case, dtype):
    ids, shard_size, branching, values, _, straggler = case
    tree = AggregationTree.build(ids, shard_size, branching)
    parts, offsets, ends = _layout(tree)
    by_worker = values.astype(dtype)
    ordered = by_worker[parts]
    exclude_pos = int(np.searchsorted(parts, straggler))
    m = tree.num_shards

    reference = tree.decision_sums(by_worker, exclude=straggler)
    full = _decision_sums(ordered, offsets, ends, exclude_pos, tree)
    assert full.dtype == np.dtype(dtype)
    assert np.array_equal(full, reference.astype(dtype))

    # Loop and numpy shard flavors agree.
    out_loop = np.empty(m, dtype=dtype)
    out_vec = np.empty(m, dtype=dtype)
    kernels._shard_sums_loop(ordered, offsets, ends, exclude_pos, out_loop)
    kernels._shard_sums_numpy(ordered, offsets, ends, exclude_pos, out_vec)
    assert np.array_equal(out_loop, out_vec)


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_decision_sums_without_exclusion(case, dtype):
    ids, shard_size, branching, values, _, _ = case
    tree = AggregationTree.build(ids, shard_size, branching)
    parts, offsets, ends = _layout(tree)
    by_worker = values.astype(dtype)
    full = _decision_sums(by_worker[parts], offsets, ends, -1, tree)
    assert np.array_equal(full, tree.decision_sums(by_worker).astype(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("straggler", [None, 3])
def test_decision_sums_keep_the_reference_sign_of_zero(dtype, straggler):
    # Signed zeros and exact cancellations: equal values are not enough,
    # the sign of every zero partial sum must match the reference too.
    ids = list(range(10))
    tree = AggregationTree.build(ids, 3, 2)
    parts, offsets, ends = _layout(tree)
    by_worker = np.array(
        [-0.0, -0.0, -0.0, 1.5, -1.5, -0.0, 0.25, -0.25, -0.0, -0.0],
        dtype=dtype,
    )
    exclude_pos = -1 if straggler is None else straggler
    full = _decision_sums(by_worker[parts], offsets, ends, exclude_pos, tree)
    reference = tree.decision_sums(by_worker, exclude=straggler)
    assert np.array_equal(full, reference)
    assert np.array_equal(np.signbit(full), np.signbit(reference))


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases(), dtype=st.sampled_from(DTYPES))
def test_gather_and_scatter_max_are_exact(case, dtype):
    ids, *_ = case
    rng = np.random.default_rng(len(ids))
    values = rng.normal(size=max(ids) + 1).astype(dtype)
    idx = np.asarray(ids, dtype=np.int64)
    assert np.array_equal(kernels.gather(values, idx), values[idx])
    # The loop flavor fills its output buffer with the same copy.
    out = np.empty(idx.size, dtype=dtype)
    kernels._gather_loop(values, idx, out)
    assert np.array_equal(out, values[idx])

    targets = rng.integers(0, 4, size=idx.size)
    acc_kernel = np.full(4, -np.inf)
    acc_ref = np.full(4, -np.inf)
    kernels.scatter_max(acc_kernel, targets, values[idx].astype(float))
    np.maximum.at(acc_ref, targets, values[idx].astype(float))
    assert np.array_equal(acc_kernel, acc_ref)


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


def test_phase_d_sendtimes_gather_head_readiness():
    down = np.array([1.0, 5.0, 3.0])
    shard_of = np.array([0, 0, 2, 1], dtype=np.int64)
    assert np.array_equal(
        kernels.phase_d_sendtimes(down, shard_of), down[shard_of]
    )
