"""On-disk cache of materialized ``(T, N)`` environment cost traces.

Materializing a :class:`~repro.mlsim.environment.TrainingEnvironment`
walks every per-worker fluctuation trace round by round — pure Python
over ``T * N`` AR steps, and by far the most expensive part of a sweep
after the stacked engine removed the per-round balancer overhead. The
traces are a *deterministic* function of the environment configuration
and seed, so repeated sweeps (benchmark reruns, figure regeneration,
CI) recompute identical matrices every time.

This module persists them instead: each entry is one ``.npz`` file
holding the ``(T, N)`` speed and communication matrices, keyed by a
SHA-256 hash of the canonical environment fingerprint (model, fleet
size, batch, seed, horizon, every fluctuation/comm parameter, and the
cache schema version). Hits rebuild the
:class:`~repro.mlsim.materialized.MaterializedEnvironment` from the
stored arrays — bit-identical to a fresh materialization, because the
arrays *are* the fresh materialization's bytes (``.npz`` round-trips
float64 exactly).

Operational properties:

* **Location** — ``~/.cache/repro`` by default; override with
  ``REPRO_CACHE_DIR``. Disable entirely with ``REPRO_CACHE=0``.
* **Atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``'d into place, so readers never observe a
  partial entry (and concurrent writers of the same key simply race to
  an identical file).
* **Size cap** — after each store the directory is pruned
  least-recently-modified-first down to ``REPRO_CACHE_MAX_BYTES``
  (default 512 MiB).
* **Self-healing** — unreadable or shape-inconsistent entries are
  deleted on load and recomputed; bumping :data:`CACHE_VERSION`
  invalidates every old key at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.utils.atomic import atomic_write, self_healing_load

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_MAX_BYTES",
    "cache_enabled",
    "cache_dir",
    "cache_max_bytes",
    "environment_fingerprint",
    "cache_key",
    "load_matrices",
    "store_matrices",
    "prune",
    "materialize_cached",
    "clear",
]

#: Bump when the trace-generation arithmetic or the entry layout changes;
#: every previously stored entry becomes unreachable (and is eventually
#: pruned by the size cap). Version 2 added the storage dtype to the
#: fingerprint (entries are stored in the backend's dtype).
CACHE_VERSION = 2

#: Default size cap for the cache directory.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024


def cache_enabled() -> bool:
    """False when the user exported ``REPRO_CACHE=0``."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def cache_max_bytes() -> int:
    """Size cap in bytes (``REPRO_CACHE_MAX_BYTES`` override)."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MAX_BYTES


def environment_fingerprint(env, horizon: int, backend=None) -> dict:
    """Canonical JSON-able description of what determines the matrices.

    Everything the trace generation depends on goes in: the model (its
    name selects base throughputs), fleet size, batch, seed, horizon,
    the speed-trace parameters, and the communication environment's
    parameters. Two environments with equal fingerprints produce
    bit-identical ``(T, N)`` matrices, because the generators are seeded
    pure functions of these values.

    The *storage dtype* of the requested backend is part of the key —
    not the backend name, so names resolving to the same dtype (``numpy64``
    and its ``compiled`` alias) share cache entries.
    """
    from repro.backend import get_backend

    trace = env._speed_traces[0]
    comm_trace = env.comm._traces[0]
    return {
        "version": CACHE_VERSION,
        "dtype": str(np.dtype(get_backend(backend).dtype)),
        "model": env.model.name,
        "num_workers": env.num_workers,
        "global_batch": env.global_batch,
        "seed": env.seed,
        "horizon": int(horizon),
        "speed_trace": {
            "rho": trace.rho,
            "sigma": trace.sigma,
            "spike_probability": trace.spike_probability,
            "spike_slowdown": list(trace.spike_slowdown),
            "spike_mean_duration": trace.spike_mean_duration,
            "floor": trace.floor,
        },
        "comm": {
            "payload_scale": env.comm.payload_scale,
            "base_latency": env.comm.base_latency,
            "rate_sigma": comm_trace.sigma,
            "rate_rho": comm_trace.rho,
            "rate_spike_probability": comm_trace.spike_probability,
        },
    }


def cache_key(env, horizon: int, backend=None) -> str:
    """Stable SHA-256 hex digest of the environment fingerprint."""
    canonical = json.dumps(
        environment_fingerprint(env, horizon, backend),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"mat-{key}.npz"


def _load_entry(path: Path) -> tuple[np.ndarray, np.ndarray]:
    # Preserve the stored dtype: entries are written in the backend's
    # storage dtype, and the dtype is part of the cache key.
    with np.load(path) as data:
        speed = np.asarray(data["speed"])
        comm = np.asarray(data["comm"])
    if speed.ndim != 2 or speed.shape != comm.shape:
        raise ValueError(f"inconsistent cached shapes {speed.shape}/{comm.shape}")
    return speed, comm


def load_matrices(key: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Load ``(speed, comm)`` for ``key``; self-heal corrupt entries."""
    path = _entry_path(key)
    loaded = self_healing_load(path, _load_entry)
    if loaded is None:
        return None
    # Touch so LRU pruning sees the entry as recently used.
    try:
        os.utime(path)
    except OSError:
        pass
    return loaded


def store_matrices(key: str, speed: np.ndarray, comm: np.ndarray) -> None:
    """Atomically persist an entry, then prune to the size cap.

    Failures are swallowed: the cache is an accelerator, never a
    correctness dependency, so a read-only or full disk must not break
    the sweep that tried to populate it.
    """
    stored = atomic_write(
        _entry_path(key),
        lambda handle: np.savez(handle, speed=speed, comm=comm),
        swallow_errors=True,
    )
    if stored:
        prune(cache_max_bytes())


def prune(max_bytes: int) -> int:
    """Delete least-recently-used entries until the directory fits.

    Returns the number of entries removed. Entries touched by
    :func:`load_matrices` have fresh mtimes, so hot benchmark
    configurations survive while one-off experiments age out.
    """
    directory = cache_dir()
    try:
        entries = [
            (path, path.stat()) for path in directory.glob("mat-*.npz")
        ]
    except OSError:
        return 0
    total = sum(stat.st_size for _, stat in entries)
    if total <= max_bytes:
        return 0
    removed = 0
    for path, stat in sorted(entries, key=lambda item: item[1].st_mtime):
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= stat.st_size
        removed += 1
    return removed


def clear() -> int:
    """Remove every cache entry (the ``repro bench`` cold-cache path)."""
    directory = cache_dir()
    removed = 0
    try:
        paths = list(directory.glob("mat-*.npz"))
    except OSError:
        return 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    return removed


def materialize_cached(env, horizon: int, backend=None):
    """``env.materialize(horizon, backend)`` through the on-disk cache.

    On a hit the :class:`~repro.mlsim.materialized.MaterializedEnvironment`
    is rebuilt from the stored matrices — bit-identical to a fresh
    materialization (the stored arrays are already in the backend's
    dtype; the rebuild cast is a no-op). On a miss (or with the cache
    disabled) the traces are materialized normally and, when enabled,
    persisted for next time. The environment object itself (fleet,
    model, seeds) is always built live; only the expensive trace walk
    is cached.
    """
    from repro.backend import get_backend
    from repro.mlsim.materialized import MaterializedEnvironment

    resolved = get_backend(backend)
    if not cache_enabled():
        return env.materialize(horizon, backend=resolved)
    key = cache_key(env, horizon, resolved)
    cached = load_matrices(key)
    if cached is not None:
        speed, comm = cached
        if (
            speed.shape == (int(horizon), env.num_workers)
            and speed.dtype == resolved.dtype
        ):
            return MaterializedEnvironment(
                model=env.model,
                global_batch=env.global_batch,
                seed=env.seed,
                fleet=env.fleet,
                speed_matrix=speed,
                comm_matrix=comm,
                backend=resolved,
            )
    materialized = env.materialize(horizon, backend=resolved)
    store_matrices(key, materialized.speed_matrix, materialized.comm_matrix)
    return materialized
