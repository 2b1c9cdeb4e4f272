"""The versioned, fingerprinted snapshot envelope.

An *inline* snapshot file is a single line of deterministic JSON::

    {"fingerprint": "<sha256>", "config": ..., "kind": "run",
     "round_index": 50, "state": ..., "version": 3}

``fingerprint`` is the SHA-256 of the canonical encoding of every
*other* field, so any bit flip in the file (or a partial write that
somehow survived the atomic-rename protocol) is detected on load.
``config`` pins the factory arguments the run was built from; resume
refuses a snapshot whose config does not match what it is asked to
rebuild. ``state`` is the tagged-JSON payload produced by
:mod:`repro.ckpt.state`.

A **blob** file is the same JSON head line followed by a raw
binary tail: large ndarrays encode as ``__ndarray_blob__`` offset
references into the tail instead of inline base64 (see
:mod:`repro.ckpt.codec`), which is what keeps N=10⁶ checkpoints
writable. :meth:`Snapshot.to_bytes` picks the container automatically
— a payload with no blob-worthy arrays produces an inline file, so
small snapshots stay diffable text. The blob file's version is the
inline version plus one, and its fingerprint covers the head *and*
the binary tail (``sha256(head_canonical_utf8 + blob)``), so
corruption anywhere in the file is still detected. The logical
:attr:`Snapshot.fingerprint` is always computed over the all-inline
encoding, making snapshot identity independent of which container it
was stored in.

Versioning policy (see ``docs/checkpointing.md``): the schema version
is bumped on any incompatible change to the state layout; loaders
reject snapshots from other versions rather than guessing. Version 3
stores the round ledgers as columns over a roster table; versions 1
and 2 (per-entry ledger records) restore through the legacy ledger
reader of :mod:`repro.ckpt.state`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.ckpt.codec import canonical_dumps, from_jsonable, to_jsonable

#: The state layout: round ledgers as columns over a roster table.
SNAPSHOT_VERSION = 3
#: The binary-tail container of the same layout (an even version is
#: always the blob container of the layout one below it).
BLOB_SNAPSHOT_VERSION = SNAPSHOT_VERSION + 1
#: Layouts older than SNAPSHOT_VERSION that still restore (their inline
#: and blob containers): per-entry ledger records with rosters.
LEGACY_VERSIONS = (1, 2)

__all__ = ["SNAPSHOT_VERSION", "BLOB_SNAPSHOT_VERSION", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One durable checkpoint of a run at a round boundary.

    ``kind`` distinguishes what produced it (``"run"`` for plain
    protocol runs, ``"soak"`` for chaos soaks, ``"sweep"`` for sweep
    manifests); ``round_index`` is the last fully completed round.
    """

    kind: str
    round_index: int
    config: dict[str, Any]
    state: dict[str, Any]
    version: int = SNAPSHOT_VERSION

    def _payload(self) -> dict[str, Any]:
        """The logical (all-inline) payload. Never collects
        blobs: :attr:`fingerprint` must not depend on the container."""
        return {
            "version": int(self.version),
            "kind": str(self.kind),
            "round_index": int(self.round_index),
            "config": to_jsonable(self.config),
            "state": to_jsonable(self.state),
        }

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the canonical encoding of the logical payload
        (always the inline form, whatever container
        :meth:`to_bytes` ends up choosing)."""
        return hashlib.sha256(
            canonical_dumps(self._payload()).encode("utf-8")
        ).hexdigest()

    def to_bytes(self) -> bytes:
        """Deterministic snapshot bytes, file fingerprint included.

        The payload is serialized exactly once, with a blob accumulator
        offered to the codec. If nothing blobbed (every array under
        :data:`~repro.ckpt.codec.BLOB_THRESHOLD` bytes), the output is
        the inline single-line JSON: the file digest covers the
        canonical (sorted-key) encoding of the fingerprint-less
        envelope, spliced in front rather than re-serializing the
        payload. With blobs the envelope carries the version plus one
        and ``"blob_bytes"``, the binary tail follows the head line's
        newline, and the file digest covers head *and* tail.
        """
        blobs: list[bytes] = []
        payload = {
            "version": int(self.version),
            "kind": str(self.kind),
            "round_index": int(self.round_index),
            "config": to_jsonable(self.config, blobs),
            "state": to_jsonable(self.state, blobs),
        }
        blob = b"".join(blobs)
        if blob:
            payload["version"] = int(self.version) + 1
            payload["blob_bytes"] = len(blob)
        body = canonical_dumps(payload)
        digest = hashlib.sha256(body.encode("utf-8") + blob).hexdigest()
        return f'{{"fingerprint":"{digest}",{body[1:]}\n'.encode("utf-8") + blob

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Snapshot":
        """Decode and verify; raises ``ValueError`` on corruption or a
        version mismatch (the store treats both as self-healable)."""
        head, _, blob = raw.partition(b"\n")
        envelope = json.loads(head.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ValueError("snapshot envelope is not a JSON object")
        stored_digest = envelope.pop("fingerprint", None)
        actual_digest = hashlib.sha256(
            canonical_dumps(envelope).encode("utf-8") + blob
        ).hexdigest()
        if stored_digest != actual_digest:
            raise ValueError(
                f"snapshot fingerprint mismatch: file says {stored_digest!r}, "
                f"content hashes to {actual_digest!r}"
            )
        version = envelope.get("version")
        readable = (*LEGACY_VERSIONS, SNAPSHOT_VERSION, BLOB_SNAPSHOT_VERSION)
        if version not in readable:
            raise ValueError(
                f"snapshot schema version {version!r} is not supported "
                f"(this build reads versions {readable})"
            )
        if version % 2 == 0:
            declared = int(envelope.get("blob_bytes", -1))
            if declared != len(blob):
                raise ValueError(
                    f"snapshot binary tail is {len(blob)} bytes but the "
                    f"envelope declares {declared} (truncated snapshot?)"
                )
        # The returned snapshot is the *logical* object — its layout's
        # inline version regardless of container, so fingerprints and
        # equality are encoding-independent.
        return cls(
            kind=str(envelope["kind"]),
            round_index=int(envelope["round_index"]),
            config=from_jsonable(envelope["config"], blob),
            state=from_jsonable(envelope["state"], blob),
            version=version - (version % 2 == 0),
        )
