"""Process-parallel shard execution over shared memory (Layer 10).

The FD tree round can split its four data-parallel passes (the two
input gathers, the per-shard consensus fold, and the per-shard decision
sums) into disjoint ``[lo, hi)`` ranges. On a numba-less interpreter
numpy holds the GIL between primitives, so threads cannot run those
ranges in parallel; *processes* can.

The objection to processes is pickling: shipping (N,) arrays per round
would cost more than the round. This module removes it with
``multiprocessing.shared_memory``:

- :class:`RoundShm` carves **one** shared segment per tree-round epoch
  into named numpy views (static topology arrays copied in once;
  per-round staging and output vectors living there permanently). The
  parent's tree round reads/writes the views directly — zero-copy.
- A persistent :class:`~concurrent.futures.ProcessPoolExecutor` (fork
  start method where available, so numba's jitted state is inherited;
  spawn otherwise) receives tasks of the form ``(segment name, layout,
  op, lo, hi, scalars)`` — a few hundred bytes, independent of N.
- Each child attaches the segment once, caches the mapping keyed by
  segment name, and runs the **same kernels** from
  :mod:`repro.backend.kernels` over its range, writing only its
  disjoint output slice. Bit-identity with serial execution is
  therefore structural: same kernels, contiguous ``np.linspace`` range
  bounds, disjoint writes — no merge step at all.

Lifecycle: a segment belongs to one ``_TreeRound`` epoch and is
released (close + unlink) when membership churn invalidates the
tree-round cache, with a ``weakref.finalize`` backstop; children evict
stale attachments whenever a task names a segment they don't hold. The
pool itself is process-global and survives epochs — respawning workers
per membership change would cost far more than the churn it tracks.

Failure policy: anything that goes wrong while *establishing* the layer
(no shared-memory support, pool spawn failure, a dead warm-up ping)
disables it — the caller falls back to serial execution and the
round still completes. Failures *inside* a round (a worker killed
mid-task) raise: a partially written round must never be merged.

The known CPython pitfall bpo-39959 is handled: attaching from a child
registers the segment with that child's ``resource_tracker``, which
would unlink it when the child exits; the child immediately
unregisters, leaving the parent as the sole owner.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.backend import kernels

__all__ = ["RoundShm", "available", "get_pool", "run_ranges", "shutdown_pools"]

_ALIGN = 64


def _fold_segments(views: dict, lo: int, hi: int) -> None:
    """Op ``tree_consensus``: the per-shard consensus fold (phase B's
    shard-local max/argmax/min-alpha) over shards ``[lo, hi)``."""
    kernels.shard_consensus(
        views["ordered_local"],
        views["ordered_alpha"],
        views["parts"],
        views["full_offsets"],
        views["ends"],
        views["out_max"],
        views["out_arg"],
        views["out_alpha"],
        lo,
        hi,
    )


def _op_gather_reports(views: dict, lo: int, hi: int, extra: tuple) -> None:
    kernels.gather(views["local"], views["parts"], views["ordered_local"], lo, hi)
    kernels.gather(views["alphas"], views["parts"], views["ordered_alpha"], lo, hi)


def _op_consensus(views: dict, lo: int, hi: int, extra: tuple) -> None:
    _fold_segments(views, lo, hi)


def _op_gather_x(views: dict, lo: int, hi: int, extra: tuple) -> None:
    kernels.gather(views["x_new"], views["parts"], views["ordered_x"], lo, hi)


def _op_sums(views: dict, lo: int, hi: int, extra: tuple) -> None:
    (exclude_pos,) = extra
    kernels.shard_decision_sums(
        views["ordered_x"],
        views["full_offsets"],
        views["ends"],
        int(exclude_pos),
        views["acc_sum"],
        lo,
        hi,
    )


_OPS = {
    "tree_gather_reports": _op_gather_reports,
    "tree_consensus": _op_consensus,
    "tree_gather_x": _op_gather_x,
    "tree_sums": _op_sums,
}

#: Child-side attachment cache: segment name -> (SharedMemory, views).
_ATTACHED: dict = {}


def _attach(name: str, layout: tuple):
    """Attach (or reuse) the named segment in a pool worker."""
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory

    # A new epoch's segment means every previously attached one is dead
    # (the parent released it on churn) — evict before attaching. The
    # views must be dropped first: close() refuses while numpy arrays
    # still export pointers into the mapping.
    for stale_name in list(_ATTACHED):
        stale, stale_views = _ATTACHED.pop(stale_name)
        stale_views.clear()
        try:
            stale.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
    shm = shared_memory.SharedMemory(name=name)
    try:
        # bpo-39959: attaching registered the segment with this child's
        # resource tracker, which would unlink it on child exit. The
        # parent owns the segment; withdraw the child's claim.
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API is semi-private
        pass
    views = _build_views(shm.buf, layout)
    _ATTACHED[name] = (shm, views)
    return views


def _build_views(buf, layout: tuple) -> dict:
    views = {}
    for field, dtype_str, shape, offset in layout:
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        views[field] = np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return views


def _run_task(
    name: str, layout: tuple, op: str, lo: int, hi: int, extra: tuple
) -> None:
    _OPS[op](_attach(name, layout), lo, hi, extra)


def _ping() -> int:
    return os.getpid()


class RoundShm:
    """One shared segment holding a tree-round epoch's vectors.

    ``fields`` maps names to ``(dtype, shape)``; :attr:`arrays` holds
    the parent-side views. The segment is created unlinked-on-release:
    call :meth:`release` on epoch teardown (churn) — a
    ``weakref.finalize`` covers abandonment.
    """

    def __init__(self, fields: dict) -> None:
        from multiprocessing import shared_memory

        layout = []
        offset = 0
        for field, (dtype, shape) in fields.items():
            dtype = np.dtype(dtype)
            shape = tuple(int(s) for s in shape)
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            layout.append((field, dtype.str, shape, offset))
            offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        self.layout = tuple(layout)
        self.arrays = _build_views(self._shm.buf, self.layout)
        self._finalizer = weakref.finalize(self, _release_segment, self._shm)

    @property
    def name(self) -> str:
        return self._shm.name

    def release(self) -> None:
        """Drop the parent's views and destroy the segment."""
        self.arrays = {}
        self._finalizer()


def _release_segment(shm) -> None:
    # close() refuses while numpy views still export pointers into the
    # mmap (possible when the finalizer backstop fires at interpreter
    # exit with round buffers alive); unlink independently so the
    # segment name is reclaimed either way — the mapping itself dies
    # with the process.
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exit-order backstop
        # Reclaim the fd and neuter the __del__ retry (it would print an
        # "Exception ignored" for the same BufferError); the mapping
        # itself is reclaimed by the OS at process exit.
        try:
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
        except OSError:
            pass
        shm.close = lambda: None
    except OSError:  # pragma: no cover - already closed
        pass
    try:
        shm.unlink()
    except OSError:  # pragma: no cover - already gone
        pass


_POOLS: dict = {}


def available() -> bool:
    """True when this interpreter can host the process layer at all."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - py>=3.8 always has it
        return False
    return True


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    # fork: cheap spawn + children inherit imported (jitted) state.
    return "fork" if "fork" in methods else methods[0]


def get_pool(procs: int) -> ProcessPoolExecutor:
    """The persistent pool for ``procs`` workers (created on first use,
    warm-up-pinged, shared across protocol instances and epochs)."""
    procs = int(procs)
    pool = _POOLS.get(procs)
    if pool is None:
        context = multiprocessing.get_context(_start_method())
        pool = ProcessPoolExecutor(max_workers=procs, mp_context=context)
        # Prove the pool actually executes before anyone relies on it —
        # a broken pool should fail here (and trigger the caller's
        # fallback), not mid-round.
        pool.submit(_ping).result(timeout=60.0)
        _POOLS[procs] = pool
    return pool


def shutdown_pools() -> None:
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


def run_ranges(
    pool: ProcessPoolExecutor,
    shm: RoundShm,
    total: int,
    op: str,
    procs: int,
    extra: tuple = (),
) -> None:
    """Fan ``op`` over ``[0, total)`` split into ``procs`` contiguous
    ``np.linspace`` ranges; each writes only its own output rows, so any
    process count is bit-identical to serial."""
    if total <= 0:
        return
    bounds = np.linspace(0, total, min(procs, total) + 1).astype(int)
    futures = [
        pool.submit(_run_task, shm.name, shm.layout, op, int(lo), int(hi), extra)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    for future in futures:
        future.result()
