"""Unit tests for the hierarchical aggregation overlay (``repro.net.aggtree``).

Structural contract: shards partition the sorted roster contiguously,
heads are lowest members, parent links form a ``branching``-ary heap
rooted at shard 0, and the whole overlay is a pure function of
``(participants, shard_size, branching)`` — the property that lets every
surviving peer rebuild the identical tree after a crash or rejoin with
no extra coordination.
"""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.net.aggtree import AggregationTree, default_shard_size, segment_reduce


class TestBuildStructure:
    def test_shards_partition_sorted_roster(self):
        tree = AggregationTree.build(range(10), shard_size=3)
        assert tree.shards == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9,))
        assert list(tree.heads) == [0, 3, 6, 9]
        assert tree.root == 0

    def test_unsorted_input_is_sorted(self):
        tree = AggregationTree.build([5, 1, 9, 3], shard_size=2)
        assert tree.ids.tolist() == [1, 3, 5, 9]
        assert tree.shards == ((1, 3), (5, 9))

    def test_parent_links_form_kary_heap(self):
        tree = AggregationTree.build(range(30), shard_size=2, branching=3)
        assert int(tree.parent[0]) == -1
        for i in range(1, tree.num_shards):
            assert int(tree.parent[i]) == (i - 1) // 3
        # every non-root level's shard indices are contiguous and childs
        # per head never exceed the branching factor
        children = np.bincount(tree.parent[1:], minlength=tree.num_shards)
        assert children.max() <= 3

    def test_levels_cover_all_shards_once(self):
        tree = AggregationTree.build(range(50), shard_size=3, branching=2)
        seen = np.concatenate(tree.levels)
        assert sorted(seen.tolist()) == list(range(tree.num_shards))
        assert list(tree.levels[0]) == [0]
        assert tree.depth == len(tree.levels) - 1

    def test_default_shard_size_is_sqrtish(self):
        assert default_shard_size(100) == 10
        assert default_shard_size(2) == 2
        tree = AggregationTree.build(range(100))
        assert tree.shard_size == 10

    def test_member_arrays_are_consistent(self):
        tree = AggregationTree.build(range(11), shard_size=4)
        # members = everyone minus the heads, ascending
        heads = set(tree.heads.tolist())
        expected = [w for w in range(11) if w not in heads]
        assert tree.member_ids.tolist() == expected
        for w, h in zip(tree.member_ids, tree.member_head):
            assert w in tree.shards[tree.shard_of(int(h))]

    def test_rejects_duplicates_small_rosters_bad_params(self):
        with pytest.raises(ConfigurationError):
            AggregationTree.build([1, 1, 2])
        with pytest.raises(ConfigurationError):
            AggregationTree.build([7])
        with pytest.raises(ConfigurationError):
            AggregationTree.build(range(4), shard_size=1)
        with pytest.raises(ConfigurationError):
            AggregationTree.build(range(4), branching=1)


def _reference_build(participants, shard_size=None, branching=4):
    """The list-based construction ``build`` replaced, kept as an oracle:
    every array of the array-native build, and the ``shards`` derived
    from them, must equal this one's."""
    ids = sorted(int(w) for w in participants)
    if len(ids) != len(set(ids)):
        raise ConfigurationError(f"duplicate participants: {ids}")
    if len(ids) < 2:
        raise ConfigurationError(
            f"an aggregation tree needs >= 2 participants, got {ids}"
        )
    if shard_size is None:
        shard_size = default_shard_size(len(ids))
    shards = tuple(
        tuple(ids[i : i + shard_size]) for i in range(0, len(ids), shard_size)
    )
    m = len(shards)
    parent = np.arange(m)
    sizes = np.array([len(shard) - 1 for shard in shards])
    depth = np.zeros(m, dtype=int)
    for i in range(1, m):
        depth[i] = depth[(i - 1) // branching] + 1
    return {
        "ids": np.array(ids, dtype=np.int64),
        "shard_size": int(shard_size),
        "branching": int(branching),
        "offsets": np.array(range(0, len(ids), shard_size)),
        "shards": shards,
        "heads": np.array([shard[0] for shard in shards]),
        "parent": np.where(parent == 0, -1, (parent - 1) // branching),
        "member_ids": np.array(
            [w for shard in shards for w in shard[1:]], dtype=int
        ),
        "member_head": np.array(
            [shard[0] for shard in shards for _ in shard[1:]], dtype=int
        ),
        "member_offsets": np.concatenate(([0], np.cumsum(sizes)[:-1])),
        "levels": tuple(
            np.flatnonzero(depth == d) for d in range(int(depth.max()) + 1)
        ),
    }


class TestBuildParity:
    """The array-native ``build`` equals the list-based reference on every
    field (values *and* dtypes), for any roster shape."""

    def _assert_same(self, tree, ref):
        for name, want in ref.items():
            got = getattr(tree, name)
            if name == "levels":
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
            elif isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), name
            else:
                assert got == want, name
                assert type(got) is type(want), name
        assert all(type(w) is int for shard in tree.shards for w in shard)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rosters_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        shard_size = int(rng.integers(2, 9))
        branching = int(rng.integers(2, 6))
        # Sizes straddle multiples of shard_size (one short, exact, one
        # over), with gaps in the ids and an unsorted arrival order.
        k = int(rng.integers(1, 6))
        size = max(2, k * shard_size + int(rng.integers(-1, 2)))
        roster = rng.choice(10 * size, size=size, replace=False)
        for participants in (roster, roster.tolist(), tuple(roster.tolist())):
            tree = AggregationTree.build(participants, shard_size, branching)
            ref = _reference_build(roster.tolist(), shard_size, branching)
            self._assert_same(tree, ref)

    @pytest.mark.parametrize("size", [2, 3, 15, 16, 17, 99, 100, 101])
    def test_default_shard_size_matches_reference(self, size):
        roster = np.random.default_rng(size).permutation(size).astype(np.int64)
        self._assert_same(
            AggregationTree.build(roster), _reference_build(roster.tolist())
        )

    def test_generic_iterables_match_reference(self):
        ref = _reference_build([4, 9, 1, 7, 3], 2, 2)
        for participants in (
            {4, 9, 1, 7, 3},
            frozenset({4, 9, 1, 7, 3}),
            (w for w in [4, 9, 1, 7, 3]),
            np.array([4, 9, 1, 7, 3], dtype=np.int32),
        ):
            self._assert_same(AggregationTree.build(participants, 2, 2), ref)

    @pytest.mark.parametrize(
        "participants",
        [
            [3, 1, 3],
            np.array([5, 2, 5, 8], dtype=np.int64),
            [7],
            np.array([7], dtype=np.int64),
            [],
            np.array([], dtype=np.int64),
        ],
    )
    def test_duplicates_and_tiny_rosters_raise_like_reference(self, participants):
        with pytest.raises(ConfigurationError) as ref_err:
            _reference_build(participants)
        with pytest.raises(ConfigurationError) as err:
            AggregationTree.build(participants)
        assert str(err.value) == str(ref_err.value)


class TestFootprint:
    def test_build_retains_at_most_32_bytes_per_participant(self):
        """The layout is int64 arrays only: ids, members and member
        heads (24 B per participant) plus O(sqrt N) shard arrays — no
        Python object per participant."""
        n = 10**5
        tracemalloc.start()
        try:
            tree = AggregationTree.build(np.arange(n))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.ids.size == n
        assert retained / n <= 32


class TestDeterministicRebuild:
    """Crash -> rejoin correctness: the overlay after any roster change is
    whatever ``build`` yields on the new roster — full coverage, no
    duplicate assignment, identical on every peer."""

    def test_rebuild_is_deterministic(self):
        roster = [0, 2, 3, 5, 8, 11, 12, 17, 19]
        a = AggregationTree.build(roster, shard_size=3, branching=2)
        b = AggregationTree.build(list(reversed(roster)), shard_size=3, branching=2)
        assert a.shards == b.shards
        assert np.array_equal(a.parent, b.parent)

    def test_crash_then_rejoin_covers_roster_without_duplicates(self):
        roster = set(range(20))
        tree = AggregationTree.build(sorted(roster), shard_size=4)
        assert tree.validate(sorted(roster)) == []
        # crash two workers, one of them a head
        roster -= {0, 9}
        tree = AggregationTree.build(sorted(roster), shard_size=4)
        assert tree.validate(sorted(roster)) == []
        flat = [w for shard in tree.shards for w in shard]
        assert sorted(flat) == sorted(roster)
        # rejoin one
        roster |= {0}
        tree = AggregationTree.build(sorted(roster), shard_size=4)
        assert tree.validate(sorted(roster)) == []

    def test_validate_flags_wrong_roster(self):
        tree = AggregationTree.build(range(6), shard_size=2)
        assert any("roster" in p for p in tree.validate(range(7)))


class TestReductions:
    def test_reduce_max_min_match_flat_bitwise(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 3.0, size=40)
        tree = AggregationTree.build(range(40), shard_size=5, branching=3)
        assert tree.reduce_max(values) == values.max()
        assert tree.reduce_min(values) == values.min()

    def test_reduce_argmax_breaks_ties_to_lowest_id(self):
        values = np.zeros(12)
        values[[3, 7, 9]] = 2.0  # three-way tie
        tree = AggregationTree.build(range(12), shard_size=3)
        assert tree.reduce_argmax(values) == 3

    def test_reduce_argmax_on_sparse_roster(self):
        values = np.zeros(30)
        values[21] = 5.0
        roster = [2, 5, 9, 13, 21, 27]
        tree = AggregationTree.build(roster, shard_size=2)
        assert tree.reduce_argmax(values) == 21

    def test_decision_sums_root_totals_everything(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 0.1, size=25)
        tree = AggregationTree.build(range(25), shard_size=4)
        total = tree.tree_sum(values, exclude=6)
        expected = values.sum() - values[6]
        assert total == pytest.approx(expected, rel=1e-12)

    def test_decision_sums_subtree_invariant(self):
        # entry p == own shard partial + sum of direct children's entries
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, size=18)
        tree = AggregationTree.build(range(18), shard_size=3, branching=2)
        sums = tree.decision_sums(values)
        for p in range(tree.num_shards):
            children = [
                i for i in range(tree.num_shards) if int(tree.parent[i]) == p
            ]
            own = sum(values[w] for w in tree.shards[p])
            assert sums[p] == pytest.approx(
                own + sum(float(sums[c]) for c in children), rel=1e-12
            )

    def test_decision_sums_accumulate_in_input_dtype(self):
        values = np.ones(10, dtype=np.float32)
        tree = AggregationTree.build(range(10), shard_size=3)
        assert tree.decision_sums(values).dtype == np.float32


class TestSegmentReduce:
    def test_basic_segments(self):
        values = np.array([1.0, 5.0, 2.0, 7.0, 3.0])
        offsets = np.array([0, 2])
        out = segment_reduce(np.maximum, values, offsets, -np.inf)
        assert out.tolist() == [5.0, 7.0]

    def test_empty_segments_yield_identity(self):
        values = np.array([4.0, 1.0])
        offsets = np.array([0, 2, 2])  # middle and last segments empty
        out = segment_reduce(np.maximum, values, offsets, -np.inf)
        assert out[0] == 4.0
        assert out[1] == -np.inf and out[2] == -np.inf

    def test_all_empty(self):
        out = segment_reduce(
            np.maximum, np.array([]), np.array([0, 0]), -np.inf
        )
        assert out.tolist() == [-np.inf, -np.inf]
