"""Unit tests for the binary checkpoint payload encoding.

Large ndarrays escape base64-JSON's ~1.33x inflation by living as raw
little-endian bytes in the snapshot's binary tail, referenced from the
JSON head by ``__ndarray_blob__`` tags (see :mod:`repro.ckpt.codec`).
Pinned here: the codec round-trips exactly across dtypes, blob offsets
are canonical, the size cutoff holds, the version-2 container
verifies its whole file, version-1 files (old snapshots) still load,
snapshot identity is independent of the container, and a large
protocol's network metrics travel as blobbed columns.
"""

import json

import numpy as np
import pytest

import repro.ckpt.codec as codec
from repro.ckpt.codec import from_jsonable, to_jsonable
from repro.ckpt.snapshot import BLOB_SNAPSHOT_VERSION, SNAPSHOT_VERSION, Snapshot
from repro.ckpt.store import CheckpointStore
from repro.exceptions import CheckpointError

BIG = np.arange(4096, dtype=np.float64)  # 32 KiB, comfortably over 4096 B
SMALL = np.arange(4, dtype=np.int64)     # 32 B, always inline


class TestCodecBlobs:
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32, np.bool_]
    )
    def test_roundtrip_is_exact_per_dtype(self, dtype):
        arr = (np.arange(5000) % 7).astype(dtype)
        blobs = []
        encoded = to_jsonable({"a": arr}, blobs)
        assert "__ndarray_blob__" in encoded["a"]
        decoded = from_jsonable(encoded, b"".join(blobs))
        assert decoded["a"].dtype == arr.dtype
        assert np.array_equal(decoded["a"], arr)

    def test_small_arrays_stay_inline(self):
        blobs = []
        encoded = to_jsonable({"s": SMALL}, blobs)
        assert "__ndarray__" in encoded["s"]
        assert blobs == []

    def test_no_accumulator_means_no_blobs(self):
        encoded = to_jsonable({"a": BIG})
        assert "__ndarray__" in encoded["a"]

    def test_offsets_are_canonical_across_encodes(self):
        payload = {"z": BIG, "a": BIG * 2, "m": {"k": BIG + 1, 3: BIG - 1}}
        blobs1, blobs2 = [], []
        enc1 = to_jsonable(payload, blobs1)
        enc2 = to_jsonable(payload, blobs2)
        assert enc1 == enc2
        assert b"".join(blobs1) == b"".join(blobs2)

    def test_threshold_constant_override(self, monkeypatch):
        monkeypatch.setattr(codec, "BLOB_THRESHOLD", 16)
        blobs = []
        encoded = to_jsonable({"s": SMALL}, blobs)
        assert "__ndarray_blob__" in encoded["s"]
        monkeypatch.setattr(codec, "BLOB_THRESHOLD", 0)
        blobs = []
        encoded = to_jsonable({"a": BIG}, blobs)
        assert "__ndarray__" in encoded["a"] and blobs == []

    def test_truncated_blob_is_rejected(self):
        blobs = []
        encoded = to_jsonable({"a": BIG}, blobs)
        short = b"".join(blobs)[:-8]
        with pytest.raises(CheckpointError, match="truncated"):
            from_jsonable(encoded, short)


class TestSnapshotContainer:
    def _blobby(self):
        return Snapshot(
            kind="run", round_index=3, config={"n": 9}, state={"x": BIG}
        )

    def _plain(self):
        return Snapshot(
            kind="run", round_index=3, config={"n": 9}, state={"x": SMALL}
        )

    def test_v2_roundtrip(self):
        snap = self._blobby()
        raw = snap.to_bytes()
        head = raw.partition(b"\n")[0]
        envelope = json.loads(head)
        assert envelope["version"] == BLOB_SNAPSHOT_VERSION
        assert envelope["blob_bytes"] == BIG.nbytes
        back = Snapshot.from_bytes(raw)
        assert back.version == SNAPSHOT_VERSION
        assert np.array_equal(back.state["x"], BIG)

    def test_small_snapshot_keeps_v1_container(self):
        raw = self._plain().to_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        envelope = json.loads(raw)
        assert envelope["version"] == SNAPSHOT_VERSION

    def test_fingerprint_is_container_independent(self, monkeypatch):
        snap = self._blobby()
        v2 = Snapshot.from_bytes(snap.to_bytes())
        monkeypatch.setattr(codec, "BLOB_THRESHOLD", 0)
        v1 = Snapshot.from_bytes(snap.to_bytes())
        assert snap.fingerprint == v1.fingerprint == v2.fingerprint

    def test_tail_corruption_detected(self):
        raw = bytearray(self._blobby().to_bytes())
        raw[-3] ^= 0xFF
        with pytest.raises(ValueError, match="fingerprint"):
            Snapshot.from_bytes(bytes(raw))

    def test_tail_truncation_detected(self):
        raw = self._blobby().to_bytes()
        with pytest.raises(ValueError):
            Snapshot.from_bytes(raw[:-16])

    def test_store_roundtrips_v2_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        snap = self._blobby()
        store.save(snap)
        loaded = store.latest()
        assert loaded is not None
        assert loaded.fingerprint == snap.fingerprint
        assert np.array_equal(loaded.state["x"], BIG)

    def test_old_v1_files_still_load(self, monkeypatch):
        # A file written with blobbing disabled is byte-for-byte the
        # pre-binary format; it must load with blobbing enabled again.
        snap = self._blobby()
        monkeypatch.setattr(codec, "BLOB_THRESHOLD", 0)
        legacy = snap.to_bytes()
        monkeypatch.undo()
        back = Snapshot.from_bytes(legacy)
        assert back.fingerprint == snap.fingerprint
        assert np.array_equal(back.state["x"], BIG)


class TestNetworkMetricsColumns:
    """The cluster's message counts are int64 columns, not one registry
    record per pair and per round."""

    def test_n100000_tree_snapshot_stays_small(self):
        from repro.ckpt.state import capture_protocol, restore_protocol
        from repro.costs.affine_vector import AffineCostVector
        from repro.net.links import Link, UniformLatency
        from repro.protocols.fully_distributed import FullyDistributedDolbie

        n = 100_000
        rng = np.random.default_rng(7)
        speeds = 1.0 + (np.arange(n) % 23)

        def build():
            link = Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
            return FullyDistributedDolbie(n, link=link, aggregation="tree")

        protocol = build()
        for t in range(1, 4):
            protocol.run_round(t, AffineCostVector(
                1.0 / (speeds * rng.lognormal(0.0, 0.1, n)),
                rng.uniform(0.0, 0.01, n),
            ))
        assert protocol.tree_rounds == 3
        raw = Snapshot(
            kind="run", round_index=3, config={"n": n},
            state=capture_protocol(protocol),
        ).to_bytes()
        # 200,010 pair counts as 16 B of columns each; a record per pair
        # made this 28.7 MiB.
        assert len(raw) <= 16 * 2**20
        head = raw.partition(b"\n")[0]
        # Arrays, the tree's ids/offsets among them, live in the binary
        # tail; the tree's shard lists made the head ~0.6 MB.
        assert len(head) <= 16 * 2**10
        assert b"net.pair_messages" not in head
        assert b"net.round_" not in head
        restored = build()
        restore_protocol(restored, Snapshot.from_bytes(raw).state)
        source, target = protocol.metrics, restored.metrics
        assert target.per_round_messages == source.per_round_messages
        assert list(target.per_pair_messages.items()) == list(
            source.per_pair_messages.items()
        )
