"""Communication accounting for the §IV-C complexity reproduction.

Backed by a :class:`repro.obs.metrics.MetricsRegistry` (one labelled
counter family per concept: totals, per-round, per-pair) instead of the
ad-hoc tally dicts it once held. The public surface is unchanged —
``messages_total`` and friends read as ints, the ``per_round_*`` /
``per_pair_messages`` properties return plain snapshot dicts — so the
complexity experiment and every existing assertion keep working, while
``repro profile`` / :func:`repro.io.save_metrics` get the registry via
:attr:`NetworkMetrics.registry`.

Per-round and per-pair counts live in compact tables rather than in one
registry counter each: a round is one slot in two Python int lists, and
a pair is one slot in int64 columns, so a batched phase costs one
vectorized slot lookup plus one scatter-add and Python work per pair
happens only when the pair is first seen. The ``net.round_*`` and
``net.pair_messages`` counters are materialized from the tables when
:attr:`NetworkMetrics.registry` is read, in slot (= first-occurrence)
order, so registry records, saved metrics and checkpoints are the same
as when every frame bumped its own counters.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Mapping, Sequence

import numpy as np

from repro.net.message import Message
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["NetworkMetrics"]

#: Env knob: ``REPRO_PAIR_METRICS=0`` disables per-(src, dst) counts.
#: Totals and per-round counts stay exact; only the per-pair breakdown
#: is skipped. It is cheap when on: one table lookup and scatter-add per
#: batched phase, and one slice add for a phase with a
#: :class:`~repro.net.batch.DeliveryPlan` (whose slots are cached).
#: Steady N=32 flat FD rounds take ~1.1x as long with it on as off
#: (``repro bench`` entry ``proto_fd_flat_pairs_n32``, gated at 1.25x).
#: Read once per :class:`NetworkMetrics` construction.
PAIR_METRICS_ENV = "REPRO_PAIR_METRICS"

#: A pair's table key is ``src << 32 | dst``.
_LOW32 = (1 << 32) - 1

#: Per-frame :meth:`NetworkMetrics.record` pair keys are buffered and
#: applied as one batch once this many are pending (or on any read).
_PENDING_LIMIT = 65536


class NetworkMetrics:
    """Counts messages and bytes: totals, per round and per pair.

    The round table maps a round index to a slot (``_round_slot``, in
    creation order) of two int lists (``_round_messages`` /
    ``_round_bytes``). The pair table has three parts: ``_pair_keys``
    (int64 ``src << 32 | dst``, one slot per pair in first-occurrence
    order), ``_pair_counts`` (int64 frames per slot), and a key -> slot
    index kept as the keys in ascending order (``_sorted_keys``) beside
    their slots (``_sorted_slots``), searched with ``np.searchsorted``.
    Slots never move until :meth:`reset` / :meth:`load_records`, which
    bump :attr:`pair_epoch` so holders of cached slots re-resolve them.
    """

    def __init__(self, pair_accounting: bool | None = None) -> None:
        self._registry = MetricsRegistry()
        if pair_accounting is None:
            pair_accounting = os.environ.get(PAIR_METRICS_ENV, "1") != "0"
        #: Whether per-(src, dst) counts are maintained (default yes).
        self.pair_accounting = bool(pair_accounting)
        #: Bumped on :meth:`reset` and :meth:`load_records` — pair slots
        #: cached outside this object (``repro.net.batch.DeliveryPlan``)
        #: revalidate against it before bumping.
        self.pair_epoch = 0
        self._init_handles()

    def _init_handles(self) -> None:
        # The hot path (one record() per frame) bumps cached handles and
        # table slots directly.
        registry = self._registry
        self._messages_total = registry.counter("net.messages_total")
        self._bytes_total = registry.counter("net.bytes_total")
        self._blackholed = registry.counter("net.messages_blackholed")
        self._round_slot: dict[int, int] = {}
        self._round_messages: list[int] = []
        self._round_bytes: list[int] = []
        self._pairs = 0  # pair slots in use
        self._pair_keys = np.empty(0, dtype=np.int64)
        self._pair_counts = np.empty(0, dtype=np.int64)
        self._sorted_keys = np.empty(0, dtype=np.int64)
        self._sorted_slots = np.empty(0, dtype=np.int64)
        self._pending: list[int] = []
        # Registry counters of the first len(...) slots, materialized
        # on read.
        self._round_counters: list[tuple[Counter, Counter]] = []
        self._pair_counters: list[Counter] = []

    def _new_round(self, round_index: int) -> int:
        slot = self._round_slot[round_index] = len(self._round_messages)
        self._round_messages.append(0)
        self._round_bytes.append(0)
        return slot

    # -- the pair table ---------------------------------------------------
    def _append_pairs(self, keys: np.ndarray) -> None:
        """New slots for ``keys`` (unique, absent), in the given order."""
        base, count = self._pairs, keys.size
        if base + count > self._pair_keys.size:
            capacity = max(2 * self._pair_keys.size, base + count, 64)
            grown_keys = np.empty(capacity, dtype=np.int64)
            grown_counts = np.zeros(capacity, dtype=np.int64)
            grown_keys[:base] = self._pair_keys[:base]
            grown_counts[:base] = self._pair_counts[:base]
            self._pair_keys, self._pair_counts = grown_keys, grown_counts
        self._pair_keys[base : base + count] = keys
        self._pairs = base + count
        order = np.argsort(keys, kind="stable")
        new_sorted = keys[order]
        at = np.searchsorted(self._sorted_keys, new_sorted)
        self._sorted_keys = np.insert(self._sorted_keys, at, new_sorted)
        self._sorted_slots = np.insert(self._sorted_slots, at, base + order)

    def _slots_for(self, keys: np.ndarray) -> np.ndarray:
        """Each key's slot; keys not yet in the table get new slots in
        first-occurrence order (the order per-frame recording would
        have created them in)."""
        if self._pairs:
            at = self._sorted_keys.searchsorted(keys)
            found = self._sorted_keys.take(at, mode="clip") == keys
            slots = self._sorted_slots.take(at, mode="clip")
            if found.all():
                return slots
            missing = ~found
        else:
            slots = np.empty(keys.size, dtype=np.int64)
            missing = np.ones(keys.size, dtype=bool)
        new, first, inverse = np.unique(
            keys[missing], return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")  # first-occurrence order
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        slots[missing] = self._pairs + rank[inverse]
        self._append_pairs(new[order])
        return slots

    def _count_frames(self, keys: np.ndarray) -> None:
        """One frame per key (repeats allowed)."""
        slots = self._slots_for(keys)  # may regrow the columns
        np.add.at(self._pair_counts, slots, 1)

    def _flush_pending(self) -> None:
        if self._pending:
            keys = np.array(self._pending, dtype=np.int64)
            self._pending = []
            self._count_frames(keys)

    def pair_slots(self, keys: np.ndarray) -> np.ndarray:
        """Table slots of ``src << 32 | dst`` keys, creating the missing
        pairs in first-occurrence order. A slot stays valid until
        :attr:`pair_epoch` changes."""
        self._flush_pending()
        return self._slots_for(np.asarray(keys, dtype=np.int64))

    def bump_pair_slots(
        self, slots: np.ndarray | slice, counts: np.ndarray
    ) -> None:
        """Add ``counts`` to distinct ``slots`` (from :meth:`pair_slots`,
        or a slice of consecutive ones)."""
        self._pair_counts[slots] += counts

    # -- recording (per frame / per phase) --------------------------------
    def record(self, message: Message) -> None:
        # Direct .value bumps skip Counter.inc's sign check; every
        # increment here is a positive constant, so monotonicity holds
        # by construction and the per-frame cost stays a few attribute
        # stores. The pair key is buffered and applied in bulk.
        self._messages_total.value += 1
        self._bytes_total.value += message.size_bytes
        slot = self._round_slot.get(message.round_index)
        if slot is None:
            slot = self._new_round(message.round_index)
        self._round_messages[slot] += 1
        self._round_bytes[slot] += message.size_bytes
        if self.pair_accounting:
            pending = self._pending
            pending.append((message.src << 32) | message.dst)
            if len(pending) >= _PENDING_LIMIT:
                self._flush_pending()

    def record_batch_arrays(
        self,
        round_index: int,
        messages: int,
        bytes_total: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> None:
        """Record a whole phase of same-round frames in bulk.

        Equivalent to ``messages`` :meth:`record` calls, one per frame
        ``(src[k], dst[k])``: the same counts *and* the same pair
        creation order (first occurrence in frame order). The pair part
        is one ``searchsorted`` lookup and one scatter-add; only pairs
        never seen before cost Python work.
        """
        self.record_totals(round_index, messages, bytes_total)
        if messages == 0 or not self.pair_accounting:
            return
        keys = (np.asarray(src, dtype=np.int64) << 32) | np.asarray(
            dst, dtype=np.int64
        )
        self._flush_pending()
        self._count_frames(keys)

    def record_totals(
        self, round_index: int, messages: int, bytes_total: int
    ) -> None:
        """Bump the totals and per-round counts only.

        The per-pair half of a phase's accounting is handled separately
        by callers that cache their pair slots across rounds
        (:class:`repro.net.batch.DeliveryPlan` — same values and
        creation order as :meth:`record_batch_arrays`, without the
        per-round lookup).
        """
        self._messages_total.value += messages
        self._bytes_total.value += bytes_total
        slot = self._round_slot.get(round_index)
        if slot is None:
            slot = self._new_round(round_index)
        self._round_messages[slot] += messages
        self._round_bytes[slot] += bytes_total

    def record_blackholed(self, count: int = 1) -> None:
        """Tally frames swallowed by a partition (never delivered)."""
        self._blackholed.value += count

    # -- reading (the historical public surface) --------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The backing registry, with one ``net.round_messages`` /
        ``net.round_bytes`` counter per round slot and one
        ``net.pair_messages`` counter per pair slot brought up to date
        (created in slot order).

        A read-time snapshot for those counters: re-read this property
        after recording more frames.
        """
        self._flush_pending()
        registry = self._registry
        rounds = self._round_counters
        rounds.extend(
            (
                registry.counter("net.round_messages", round=round_index),
                registry.counter("net.round_bytes", round=round_index),
            )
            for round_index in itertools.islice(self._round_slot, len(rounds), None)
        )
        for (messages, size), m, b in zip(
            rounds, self._round_messages, self._round_bytes
        ):
            messages.value = float(m)
            size.value = float(b)
        pairs = self._pair_counters
        pairs.extend(
            registry.counter("net.pair_messages", src=key >> 32, dst=key & _LOW32)
            for key in self._pair_keys[len(pairs) : self._pairs].tolist()
        )
        counts = self._pair_counts[: self._pairs].tolist()
        for counter, value in zip(pairs, counts):
            counter.value = float(value)
        return registry

    @property
    def messages_total(self) -> int:
        return int(self._messages_total.value)

    @property
    def bytes_total(self) -> int:
        return int(self._bytes_total.value)

    @property
    def messages_blackholed(self) -> int:
        """Frames sent into a network partition and lost."""
        return int(self._blackholed.value)

    @property
    def per_round_messages(self) -> dict[int, int]:
        """Snapshot ``{round -> frames}`` (a plain dict, not a view)."""
        return dict(zip(self._round_slot, self._round_messages))

    @property
    def per_round_bytes(self) -> dict[int, int]:
        return dict(zip(self._round_slot, self._round_bytes))

    @property
    def per_pair_messages(self) -> dict[tuple[int, int], int]:
        """Snapshot ``{(src, dst) -> frames}`` in first-occurrence order."""
        self._flush_pending()
        keys = self._pair_keys[: self._pairs]
        pairs = zip((keys >> 32).tolist(), (keys & _LOW32).tolist())
        return dict(zip(pairs, self._pair_counts[: self._pairs].tolist()))

    def messages_in_round(self, round_index: int) -> int:
        slot = self._round_slot.get(round_index)
        return 0 if slot is None else self._round_messages[slot]

    def mean_messages_per_round(self) -> float:
        if not self._round_slot:
            return 0.0
        return self.messages_total / len(self._round_slot)

    def reset(self) -> None:
        self._registry.reset()
        self.pair_epoch += 1  # invalidates externally cached pair slots
        self._init_handles()

    def load_records(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Replace every count with those of ``registry.to_records()``
        output (checkpoint restore).

        The round and pair tables are rebuilt from the records: rounds
        in ascending order, pairs in record order.
        """
        self._registry = MetricsRegistry.from_records(records)
        self.pair_epoch += 1
        self._init_handles()
        rounds, keys, counts = {}, [], []
        for metric in self._registry.collect("net."):
            labels = dict(metric.labels)
            if metric.name == "net.round_messages":
                rounds.setdefault(labels["round"], [0, 0])[0] = int(metric.value)
            elif metric.name == "net.round_bytes":
                rounds.setdefault(labels["round"], [0, 0])[1] = int(metric.value)
            elif metric.name == "net.pair_messages":
                keys.append(labels["src"] << 32 | labels["dst"])
                counts.append(int(metric.value))
        for round_index in sorted(rounds):
            slot = self._new_round(round_index)
            self._round_messages[slot], self._round_bytes[slot] = rounds[round_index]
        if keys:
            self._append_pairs(np.array(keys, dtype=np.int64))
            self._pair_counts[: self._pairs] = counts
