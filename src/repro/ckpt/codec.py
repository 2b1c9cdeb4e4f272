"""Canonical tagged-JSON codec for checkpoint payloads.

Snapshots must satisfy two properties plain JSON does not give us:

* **Exactness.** RNG positions, float64 arrays, and virtual-time
  floats must survive a round-trip bit-for-bit. Arrays are therefore
  encoded as base64 of their raw little-endian bytes (never decimal
  text); scalar floats rely on Python's shortest-round-trip repr,
  which *is* exact for float64.
* **Canonical bytes.** Two snapshots of identical state must be
  byte-identical files, so encoding sorts everything: JSON keys,
  set elements, and the entries of non-string-keyed dicts. That is
  what makes the SHA-256 fingerprint meaningful and the
  serialize→restore→serialize identity testable.

Tags (a one-key wrapper dict each, so they cannot collide with real
payload keys unless a payload deliberately fakes one):

- ``{"__ndarray__": {"dtype", "shape", "data"}}`` — any numpy array;
- ``{"__ndarray_blob__": {"dtype", "shape", "offset", "nbytes"}}`` — a
  *large* numpy array whose raw little-endian bytes live in the
  snapshot's out-of-band binary blob instead of inline base64 (33%
  smaller and no encode/decode pass — the difference between an
  N=10⁵ checkpoint and an N=10⁶ one). Emitted only when the caller
  passes a ``blobs`` accumulator and the array holds at least
  :data:`BLOB_THRESHOLD` bytes;
- ``{"__set__": [...]}`` — a set, elements sorted;
- ``{"__pairs__": [[k, v], ...]}`` — a dict whose keys are not all
  strings (int- or tuple-keyed), entries sorted by encoded key.

With a ``blobs`` accumulator active the traversal itself is
canonicalized (string dict keys visited sorted, ``__pairs__`` sorted by
encoded key *before* values are encoded) so equal payloads produce
identical blob offsets — the canonical-bytes guarantee extends to the
binary tail.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any

import numpy as np

from repro.exceptions import CheckpointError

__all__ = [
    "BLOB_THRESHOLD",
    "to_jsonable",
    "from_jsonable",
    "canonical_dumps",
    "fingerprint",
]

#: Arrays of at least this many bytes go to the binary blob (when one
#: is being collected); ``<= 0`` keeps every array inline.
BLOB_THRESHOLD = 4096


def _pair_sort_key(encoded_key: Any) -> str:
    return json.dumps(encoded_key, sort_keys=True, separators=(",", ":"))


def to_jsonable(obj: Any, blobs: "list[bytes] | None" = None) -> Any:
    """Encode ``obj`` into plain JSON types plus the tags above.

    ``blobs``, when given, is a mutable accumulator of raw byte chunks:
    large arrays append their little-endian bytes there and encode as
    an ``__ndarray_blob__`` reference. The caller owns concatenating
    the chunks into the snapshot's binary tail.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item(), blobs)
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        if blobs is not None and 0 < BLOB_THRESHOLD <= arr.nbytes:
            le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            offset = sum(len(chunk) for chunk in blobs)
            blobs.append(le.tobytes())
            return {
                "__ndarray_blob__": {
                    "dtype": le.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": int(le.nbytes),
                }
            }
        return {
            "__ndarray__": {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        }
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item, blobs) for item in obj]
    if isinstance(obj, (set, frozenset)):
        # Set elements are hashable, hence never ndarrays — encoding
        # them can't touch the blob, so sort-after-encode stays sound.
        encoded = [to_jsonable(item) for item in obj]
        return {"__set__": sorted(encoded, key=_pair_sort_key)}
    if isinstance(obj, dict):
        if all(isinstance(key, str) for key in obj):
            keys = sorted(obj) if blobs is not None else obj
            return {key: to_jsonable(obj[key], blobs) for key in keys}
        # Keys are hashable (never ndarrays): encode and sort them
        # first, then encode values in sorted-key order so blob offsets
        # are canonical.
        keyed = sorted(
            ((to_jsonable(k), v) for k, v in obj.items()),
            key=lambda pair: _pair_sort_key(pair[0]),
        )
        return {
            "__pairs__": [[k, to_jsonable(v, blobs)] for k, v in keyed]
        }
    raise CheckpointError(
        f"cannot encode {type(obj).__name__} into a checkpoint payload"
    )


def _hashable(value: Any) -> Any:
    """Decoded set elements / dict keys: lists become tuples."""
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    return value


def from_jsonable(obj: Any, blob: bytes = b"") -> Any:
    """Exact inverse of :func:`to_jsonable` (tuples come back as
    lists except inside set elements and dict keys, where hashability
    requires tuples). ``blob`` is the snapshot's binary tail, needed
    only when the payload contains ``__ndarray_blob__`` references."""
    if isinstance(obj, dict):
        if len(obj) == 1:
            if "__ndarray__" in obj:
                meta = obj["__ndarray__"]
                arr = np.frombuffer(
                    base64.b64decode(meta["data"]), dtype=np.dtype(meta["dtype"])
                )
                return arr.reshape(tuple(meta["shape"])).copy()
            if "__ndarray_blob__" in obj:
                meta = obj["__ndarray_blob__"]
                offset, nbytes = int(meta["offset"]), int(meta["nbytes"])
                if offset + nbytes > len(blob):
                    raise CheckpointError(
                        "ndarray blob reference reaches past the "
                        "snapshot's binary tail (truncated snapshot?)"
                    )
                dtype = np.dtype(meta["dtype"])
                arr = np.frombuffer(
                    blob[offset:offset + nbytes], dtype=dtype
                )
                return np.ascontiguousarray(
                    arr.reshape(tuple(meta["shape"])).astype(
                        dtype.newbyteorder("="), copy=True
                    )
                )
            if "__set__" in obj:
                return {
                    _hashable(from_jsonable(v, blob)) for v in obj["__set__"]
                }
            if "__pairs__" in obj:
                return {
                    _hashable(from_jsonable(k, blob)): from_jsonable(v, blob)
                    for k, v in obj["__pairs__"]
                }
        return {key: from_jsonable(value, blob) for key, value in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(item, blob) for item in obj]
    return obj


def canonical_dumps(payload: Any) -> str:
    """The canonical JSON text of an already-:func:`to_jsonable` payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(
        canonical_dumps(to_jsonable(payload)).encode("utf-8")
    ).hexdigest()
