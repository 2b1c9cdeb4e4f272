"""Unit tests for the checkpoint codec, snapshot envelope, and store."""

import json

import numpy as np
import pytest

from repro.ckpt.codec import (
    canonical_dumps,
    fingerprint,
    from_jsonable,
    to_jsonable,
)
from repro.ckpt.snapshot import SNAPSHOT_VERSION, Snapshot
from repro.ckpt.store import CheckpointStore
from repro.core.ledger import LedgerBook, LedgerEntry, RoundLedger
from repro.exceptions import CheckpointError


class TestCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert from_jsonable(to_jsonable(value)) == value

    def test_numpy_scalars_become_python(self):
        assert to_jsonable(np.int64(4)) == 4
        assert to_jsonable(np.float64(0.1)) == 0.1

    @pytest.mark.parametrize("dtype", ["f8", "i8", "u4", "f4", "bool"])
    def test_ndarray_roundtrip_is_exact(self, dtype):
        rng = np.random.default_rng(3)
        arr = (rng.uniform(-1e9, 1e9, size=(3, 5)) * 1.0).astype(dtype)
        back = from_jsonable(to_jsonable(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_ndarray_bits_survive(self):
        # Values plain decimal text would mangle.
        arr = np.array([0.1, 1e-308, np.pi, -0.0, np.inf])
        back = from_jsonable(to_jsonable(arr))
        assert arr.tobytes() == back.tobytes()

    def test_set_roundtrip_and_canonical_order(self):
        value = {3, 1, 2}
        assert from_jsonable(to_jsonable(value)) == value
        assert to_jsonable({1, 2, 3}) == to_jsonable({3, 2, 1})

    def test_int_keyed_dict_roundtrip(self):
        value = {2: "b", 10: "a", 1: [1, 2]}
        assert from_jsonable(to_jsonable(value)) == value
        assert canonical_dumps(to_jsonable(value)) == canonical_dumps(
            to_jsonable({10: "a", 1: [1, 2], 2: "b"})
        )

    def test_tuple_keyed_dict_roundtrip(self):
        value = {(0, 1): 0.5, (2, 3): 0.25}
        assert from_jsonable(to_jsonable(value)) == value

    def test_nested_structures(self):
        value = {"a": [{1: {2.5}}, np.arange(3)], "b": ({"x": None},)}
        back = from_jsonable(to_jsonable(value))
        assert back["a"][0] == {1: {2.5}}
        assert np.array_equal(back["a"][1], np.arange(3))
        assert back["b"] == [{"x": None}]  # tuples come back as lists

    def test_unencodable_type_rejected(self):
        with pytest.raises(CheckpointError):
            to_jsonable(object())

    def test_fingerprint_is_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})


def _snapshot(round_index=5, **state):
    return Snapshot(
        kind="run",
        round_index=round_index,
        config={"seed": 3},
        state=state or {"x": np.linspace(0.0, 1.0, 7), "roster": {0, 1}},
    )


class TestSnapshot:
    def test_bytes_roundtrip(self):
        snap = _snapshot()
        back = Snapshot.from_bytes(snap.to_bytes())
        assert back.kind == "run"
        assert back.round_index == 5
        assert back.config == {"seed": 3}
        assert np.array_equal(back.state["x"], snap.state["x"])
        assert back.state["roster"] == {0, 1}

    def test_serialize_restore_serialize_is_identity(self):
        data = _snapshot().to_bytes()
        assert Snapshot.from_bytes(data).to_bytes() == data

    def test_single_line_with_leading_fingerprint(self):
        data = _snapshot().to_bytes()
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert data.startswith(b'{"fingerprint":"')
        envelope = json.loads(data)
        assert envelope["fingerprint"] == _snapshot().fingerprint

    def test_tampered_payload_detected(self):
        data = _snapshot().to_bytes()
        tampered = data.replace(b'"seed":3', b'"seed":4')
        assert tampered != data
        with pytest.raises(ValueError, match="fingerprint"):
            Snapshot.from_bytes(tampered)

    def test_version_mismatch_rejected(self):
        # +1 is the blob container (BLOB_SNAPSHOT_VERSION); +2 is the
        # first genuinely unknown schema version.
        alien = Snapshot(
            kind="run", round_index=1, config={}, state={},
            version=SNAPSHOT_VERSION + 2,
        )
        with pytest.raises(ValueError, match="version"):
            Snapshot.from_bytes(alien.to_bytes())

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            Snapshot.from_bytes(b"[1, 2]\n")


class TestCheckpointStore:
    def test_save_load_latest_rounds(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.latest() is None
        for t in (10, 20, 30):
            store.save(_snapshot(round_index=t))
        assert store.rounds() == [10, 20, 30]
        assert store.latest().round_index == 30
        assert store.load(20).round_index == 20
        assert store.load(99) is None

    def test_corrupt_latest_is_skipped_and_healed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_snapshot(round_index=10))
        store.save(_snapshot(round_index=20))
        store.path_for(20).write_bytes(b'{"broken": true}\n')
        latest = store.latest()
        assert latest.round_index == 10
        assert not store.path_for(20).exists()  # healed

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for t in (10, 20, 30, 40):
            store.save(_snapshot(round_index=t))
        store.prune(keep_last=2)
        assert store.rounds() == [30, 40]

    def test_inspect_summary(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_snapshot(round_index=10))
        summary = store.inspect(10)
        assert summary["round_index"] == 10
        assert summary["kind"] == "run"
        assert summary["version"] == SNAPSHOT_VERSION
        assert "x" in summary["state_keys"]

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "README.txt").write_text("not a checkpoint")
        store = CheckpointStore(tmp_path)
        store.save(_snapshot(round_index=10))
        assert store.rounds() == [10]


def _book(*rounds):
    """A 3-worker book whose authority holds ``rounds``, all fanned out
    to every worker (one shared roster epoch)."""
    authority = RoundLedger()
    book = LedgerBook(3, authority)
    ids = np.arange(3, dtype=np.int64)
    for t in rounds:
        book.record(LedgerEntry(t, 0, float(t), ids))
    return book


def _round_trip(book):
    """Restore ``book.state()`` into a fresh book through the codec."""
    state = from_jsonable(to_jsonable(book.state()))
    restored = LedgerBook(book.num_workers, RoundLedger())
    restored.restore(state)
    return state, restored


class TestReplicaPacking:
    def test_full_replica_is_one_span(self):
        book = _book(1, 2, 3, 4)
        state, restored = _round_trip(book)
        assert state["start"].tolist() == [0, 0, 0]
        assert state["stop"].tolist() == [4, 4, 4]
        assert state["materialized"] == {}
        # One roster epoch and one run of consecutive rounds.
        assert state["rosters"]["sizes"].tolist() == [3]
        assert state["authority"]["round"]["starts"].tolist() == [0]
        assert restored.authority == book.authority
        for w in range(3):
            assert restored.worker_ledger(w) == book.worker_ledger(w)

    def test_gap_is_materialized_as_columns(self):
        book = _book(1, 2, 3, 4, 5)
        auth = book.authority
        book.restore_replica(1, [auth[0], auth[1], auth[4]])  # down for 3-4
        assert set(book.materialized) == {1}
        state, restored = _round_trip(book)
        rows = state["materialized"][1]
        assert rows["straggler"].tolist() == [0, 0, 0]
        assert rows["round"]["starts"].tolist() == [0, 2]
        assert rows["round"]["values"].tolist() == [1, 5]
        assert [e.round_index for e in restored.worker_ledger(1)] == [1, 2, 5]
        assert restored.worker_ledger(1) == book.worker_ledger(1)

    def test_divergent_row_kept_in_its_columns(self):
        book = _book(1, 2, 3)
        auth = book.authority
        rogue = LedgerEntry(
            round_index=2, straggler=1, global_cost=99.0, roster=(0, 1)
        )
        book.restore_replica(2, [auth[0], rogue, auth[2]])
        state, restored = _round_trip(book)
        # The rogue roster is a second epoch of the shared table.
        assert state["rosters"]["sizes"].tolist() == [3, 2]
        assert list(restored.worker_ledger(2)) == [auth[0], rogue, auth[2]]


class TestNetworkMetricsRestore:
    """A restored cluster's metric views read the snapshot's counts."""

    @staticmethod
    def _protocol():
        from repro.net.links import ConstantLatency, Link
        from repro.protocols.fully_distributed import FullyDistributedDolbie

        return FullyDistributedDolbie(6, link=Link(ConstantLatency(0.001)))

    @staticmethod
    def _views(metrics):
        return (
            metrics.per_round_messages,
            metrics.per_pair_messages,
            metrics.mean_messages_per_round(),
        )

    def test_views_match_before_capture_and_after_restore(self):
        from repro.ckpt.state import capture_protocol, restore_protocol
        from repro.costs.timevarying import RandomAffineProcess

        process = RandomAffineProcess([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], seed=1)
        source = self._protocol()
        for t in range(1, 4):
            source.run_round(t, process.costs_at(t))
        rounds, pairs, mean = self._views(source.metrics)
        assert rounds == {1: 35, 2: 35, 3: 35}
        assert len(pairs) == 30 and mean == 35.0
        state = from_jsonable(
            json.loads(canonical_dumps(to_jsonable(capture_protocol(source))))
        )
        target = self._protocol()
        restore_protocol(target, state)
        assert self._views(target.metrics) == (rounds, pairs, mean)
        assert (
            target.metrics.registry.to_records()
            == source.metrics.registry.to_records()
        )
        # Later rounds keep counting on top of the restored tables.
        for protocol in (source, target):
            protocol.run_round(4, process.costs_at(4))
        assert self._views(target.metrics) == self._views(source.metrics)
        assert (
            target.metrics.registry.to_records()
            == source.metrics.registry.to_records()
        )
