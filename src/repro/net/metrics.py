"""Communication accounting for the §IV-C complexity reproduction.

Backed by a :class:`repro.obs.metrics.MetricsRegistry` (one labelled
counter family per concept: totals, per-round, per-pair) instead of the
ad-hoc tally dicts it once held. The public surface is unchanged —
``messages_total`` and friends read as ints, the ``per_round_*`` /
``per_pair_messages`` properties return plain snapshot dicts — so the
complexity experiment and every existing assertion keep working, while
``repro profile`` / :func:`repro.io.save_metrics` get the registry via
:attr:`NetworkMetrics.registry`.

Totals and per-round counts are kept eagerly: a round is one slot of
three int64 ``array`` columns (round, frames, bytes), found by a search
while rounds arrive in ascending order. Per-(src, dst) counts are kept
only when read. A delivery appends its pairs to an ordered log — a
:class:`~repro.net.batch.DeliveryPlan` delivery as a reference to the
plan, a phase's frames as their pair keys, a per-frame :meth:`record`
as one key — and :meth:`NetworkMetrics.fold`, which every pair read
runs first, folds the log into the pair table (int64 columns, one slot
per pair in first-occurrence order); building a plan folds it too, so
the log references only the plans built since. The ``net.round_*`` and
``net.pair_messages`` counters are materialized from the tables when
:attr:`NetworkMetrics.registry` is read, in slot order, so registry
records and saved metrics are the same as when every frame bumped its
own counters. Checkpoints write the tables as columns
(:meth:`NetworkMetrics.state`).
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left
from typing import Any, Mapping, Sequence

import numpy as np

from repro.net.message import Message
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["NetworkMetrics"]

#: A pair's table key is ``src << 32 | dst``.
_LOW32 = (1 << 32) - 1

#: The log folds once it holds this many pair keys (per-frame keys, key
#: arrays and distinct dropped frames), so unread pairs cost bounded
#: memory. The plans it references are the live ones: building a
#: :class:`~repro.net.batch.DeliveryPlan` folds the log (see
#: :meth:`NetworkMetrics.fold`), so an evicted epoch's plans are let go
#: when the next epoch builds its own.
_PENDING_LIMIT = 65536

#: The open run is concatenated once it holds this many arrays, so many
#: tiny phases (a tree round's one closing frame) stay one array.
_RUN_ARRAYS = 64


def _sent(plan, deliveries: int, drops: dict[int, int]) -> int | np.ndarray:
    """How often each frame of ``plan`` was sent over ``deliveries``
    deliveries, ``drops[k]`` of which withheld frame ``k`` (one number
    when none withheld any)."""
    if not drops:
        return deliveries
    sent = np.full(plan.count, deliveries, dtype=np.int64)
    np.subtract.at(
        sent,
        np.fromiter(drops, dtype=np.int64, count=len(drops)),
        np.fromiter(drops.values(), dtype=np.int64, count=len(drops)),
    )
    return sent


class NetworkMetrics:
    """Counts messages and bytes: totals, per round and per pair.

    The round table holds one slot per round, in creation order, in
    three int64 columns (``_rounds``, ``_round_messages``,
    ``_round_bytes``); a round index is found by a search while the
    rounds ascend, and by ``_round_slot`` (a dict) once a late frame
    created an older round. The pair table has three parts:
    ``_pair_keys`` (int64 ``src << 32 | dst``, one slot per pair in
    first-occurrence order), ``_pair_counts`` (int64 frames per slot),
    and a key -> slot index kept as the keys in ascending order
    (``_sorted_keys``) beside their slots (``_sorted_slots``), searched
    with ``np.searchsorted``.

    The pair table lags the deliveries by the log:

    - ``_log``: what may create pairs, in delivery order — an int64 key
      array (the frames between two plan markers, one entry) or a plan
      marker ``(plan, drop)``, the point where a plan delivery may
      create pairs;
    - ``_run`` / ``_pending``: the open run of key arrays and per-frame
      keys since the last marker;
    - ``_plans``: per logged plan, ``[deliveries, {dropped frame:
      count}, marked drops]``. A plan delivery counts there; it adds a
      marker only when it can create a pair no earlier marker of the
      plan creates, so a plan is marked at most twice per log, and
      never once all its pairs are in the table (``_plan_slots``).

    Counts commute, so only pair creation order needs the log's order.
    A fold walks the log as one key sequence, each key weighted by the
    frames it adds (a plan's counts ride on its last marker), and looks
    the whole sequence up in the table at once: pairs not in it yet are
    created in first-occurrence order.
    """

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        self._init_handles()

    def _init_handles(self) -> None:
        # The hot path (one record() per frame) bumps cached handles and
        # table slots directly.
        registry = self._registry
        self._messages_total = registry.counter("net.messages_total")
        self._bytes_total = registry.counter("net.bytes_total")
        self._blackholed = registry.counter("net.messages_blackholed")
        self._rounds = array("q")
        self._round_messages = array("q")
        self._round_bytes = array("q")
        self._round_slot: dict[int, int] | None = None
        self._pairs = 0  # pair slots in use
        self._pair_keys = np.empty(0, dtype=np.int64)
        self._pair_counts = np.empty(0, dtype=np.int64)
        self._sorted_keys = np.empty(0, dtype=np.int64)
        self._sorted_slots = np.empty(0, dtype=np.int64)
        # A folded plan's table slots, when its frames hold consecutive
        # slots (pairs created together do); dropped with the plan or on
        # a reset.
        self._plan_slots: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._clear_log()
        # Registry counters of the first len(...) slots, materialized
        # on read.
        self._round_counters: list[tuple[Counter, Counter]] = []
        self._pair_counters: list[Counter] = []

    def _clear_log(self) -> None:
        self._log: list[Any] = []
        self._run: list[np.ndarray] = []
        self._pending: list[int] = []
        self._plans: dict[Any, list] = {}
        self._held = 0  # keys and distinct drops the log holds

    def _slot(self, round_index: int) -> int:
        """The round's slot, created if new."""
        rounds = self._rounds
        n = len(rounds)
        if n and rounds[-1] == round_index:
            return n - 1
        index = self._round_slot
        if index is None:
            i = bisect_left(rounds, round_index)
            if i < n and rounds[i] == round_index:
                return i
            if i < n:  # an older round: index by dict from now on
                index = self._round_slot = dict(zip(rounds, range(n)))
        elif round_index in index:
            return index[round_index]
        if index is not None:
            index[round_index] = n
        rounds.append(round_index)
        self._round_messages.append(0)
        self._round_bytes.append(0)
        return n

    # -- the pair table ---------------------------------------------------
    def _append_pairs(
        self, keys: np.ndarray, order: np.ndarray | None = None
    ) -> None:
        """New slots for ``keys`` (unique, absent), in the given order;
        ``keys[order]`` ascends (computed when not given)."""
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
        if order is None:
            order = np.argsort(keys, kind="stable")
        ascending, slots = keys[order], base + order
        if base:
            at = np.searchsorted(self._sorted_keys, ascending)
            ascending = np.insert(self._sorted_keys, at, ascending)
            slots = np.insert(self._sorted_slots, at, slots)
        self._sorted_keys, self._sorted_slots = ascending, slots

    def _slots_for(self, keys: np.ndarray) -> np.ndarray:
        """Each key's slot; keys not yet in the table get new slots in
        first-occurrence order (the order per-frame recording would
        have created them in)."""
        if self._pairs:
            at = self._sorted_keys.searchsorted(keys)
            slots = self._sorted_slots.take(at, mode="clip")
            missing = self._sorted_keys.take(at, mode="clip") != keys
            if not missing.any():
                return slots
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
        self._append_pairs(new[order], rank)
        return slots

    # -- the delivery log -------------------------------------------------
    def _close_run(self) -> None:
        """Move the open run (key arrays and per-frame keys, in arrival
        order) into the log as one key array."""
        run = self._run
        if self._pending:
            run.append(np.array(self._pending, dtype=np.int64))
            self._pending = []
        if run:
            self._log.append(run[0] if len(run) == 1 else np.concatenate(run))
            self._run = []

    def _hold(self, count: int) -> None:
        self._held += count
        if self._held >= _PENDING_LIMIT:
            self.fold()

    def record_plan(self, plan, drop: int | None = None) -> None:
        """Log one delivery of ``plan`` (a
        :class:`~repro.net.batch.DeliveryPlan`), minus frame ``drop``
        when given; the totals go through :meth:`record_totals`."""
        tally = self._plans.get(plan)
        if tally is None:
            # A plan with table slots has every pair created: it needs
            # no marker.
            tally = self._plans[plan] = [
                0, {}, [None] if plan in self._plan_slots else []
            ]
        marks = tally[2]
        # Marked undropped, or under two different drops: every pair of
        # the plan is created by then.
        if len(marks) < 2 and None not in marks and drop not in marks:
            self._close_run()
            self._log.append((plan, drop))
            marks.append(drop)
        tally[0] += 1
        if drop is not None:
            drops = tally[1]
            if drop in drops:
                drops[drop] += 1
            else:
                drops[drop] = 1
                self._hold(1)

    def fold(self) -> None:
        """Fold the delivery log into the pair table.

        Every pair read runs this first, and so does building a
        :class:`~repro.net.batch.DeliveryPlan`: plans are built when a
        membership change throws the previous epoch's away, so the log
        never keeps an evicted plan alive past the next epoch's first
        build, however many plans an epoch has.
        """
        if not (self._log or self._run or self._pending or self._plans):
            return
        self._close_run()
        log, plans, cached = self._log, self._plans, self._plan_slots
        self._clear_log()
        # A plan with table slots logged no marker: its frames land on
        # its slots directly.
        for plan, (deliveries, drops, _) in plans.items():
            slots = cached.get(plan)
            if slots is not None:
                self._pair_counts[slots] += _sent(plan, deliveries, drops)
        # Everything else is one key sequence in delivery order, each
        # key weighted by the frames it adds: a key array one per key, a
        # plan's first marker of two none (it only creates its
        # delivery's pairs), a plan's last marker every frame its
        # deliveries sent.
        keys, weights, varied, fresh, size = [], [], [], [], 0
        for entry in log:
            if isinstance(entry, np.ndarray):
                part, weight = entry, 1
            else:
                plan, drop = entry
                deliveries, drops, marks = plans[plan]
                part = plan.keys()
                if drop != marks[-1]:
                    part, weight = np.delete(part, drop), 0
                else:
                    weight = _sent(plan, deliveries, drops)
                    if isinstance(weight, int):
                        fresh.append((plan, size))
                    else:
                        live = weight > 0
                        if live.all():
                            fresh.append((plan, size))
                        else:  # a pair whose every frame was dropped is not created
                            part, weight = part[live], weight[live]
                        varied.append((size, weight))
                        weight = 0
            keys.append(part)
            weights.append(weight)
            size += part.size
        if not keys:
            return
        if len(keys) == 1 and not varied:
            keys, weights = keys[0], weights[0]
        else:
            weights = np.repeat(weights, [part.size for part in keys])
            for at, weight in varied:
                weights[at : at + weight.size] = weight
            keys = np.concatenate(keys)
        slots = self._slots_for(keys)  # may regrow the columns
        np.add.at(self._pair_counts, slots, weights)
        for plan, at in fresh:  # pairs created together hold a slice
            lo, count = int(slots[at]), plan.count
            if int(slots[at + count - 1]) == lo + count - 1 and np.array_equal(
                slots[at : at + count], np.arange(lo, lo + count)
            ):
                cached[plan] = slice(lo, lo + count)

    # -- recording (per frame / per phase) --------------------------------
    def record(self, message: Message) -> None:
        # Direct .value bumps skip Counter.inc's sign check; every
        # increment here is a positive constant, so monotonicity holds
        # by construction and the per-frame cost stays a few attribute
        # stores. The pair key joins the log.
        self._messages_total.value += 1
        self._bytes_total.value += message.size_bytes
        slot = self._slot(message.round_index)
        self._round_messages[slot] += 1
        self._round_bytes[slot] += message.size_bytes
        self._pending.append((message.src << 32) | message.dst)
        self._held += 1
        if self._held >= _PENDING_LIMIT:
            self.fold()

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
        creation order (first occurrence in frame order). The frames'
        pair keys join the log.
        """
        self.record_totals(round_index, messages, bytes_total)
        if messages == 0:
            return
        keys = (np.asarray(src, dtype=np.int64) << 32) | np.asarray(
            dst, dtype=np.int64
        )
        run = self._run
        if self._pending:
            run.append(np.array(self._pending, dtype=np.int64))
            self._pending = []
        run.append(keys)
        if len(run) >= _RUN_ARRAYS:
            self._run = [np.concatenate(run)]
        self._hold(keys.size)

    def record_totals(
        self, round_index: int, messages: int, bytes_total: int
    ) -> None:
        """Bump the totals and per-round counts only (a plan delivery
        logs its pairs with :meth:`record_plan`)."""
        self._messages_total.value += messages
        self._bytes_total.value += bytes_total
        slot = self._slot(round_index)
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
        self.fold()
        registry = self._registry
        rounds = self._round_counters
        rounds.extend(
            (
                registry.counter("net.round_messages", round=round_index),
                registry.counter("net.round_bytes", round=round_index),
            )
            for round_index in self._rounds[len(rounds):]
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
        return dict(zip(self._rounds, self._round_messages))

    @property
    def per_round_bytes(self) -> dict[int, int]:
        return dict(zip(self._rounds, self._round_bytes))

    @property
    def per_pair_messages(self) -> dict[tuple[int, int], int]:
        """Snapshot ``{(src, dst) -> frames}`` in first-occurrence order."""
        self.fold()
        keys = self._pair_keys[: self._pairs]
        pairs = zip((keys >> 32).tolist(), (keys & _LOW32).tolist())
        return dict(zip(pairs, self._pair_counts[: self._pairs].tolist()))

    def messages_in_round(self, round_index: int) -> int:
        return self.per_round_messages.get(round_index, 0)

    def mean_messages_per_round(self) -> float:
        if not self._rounds:
            return 0.0
        return self.messages_total / len(self._rounds)

    def reset(self) -> None:
        self._registry.reset()
        self._init_handles()

    # -- checkpoints --------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """Every count as int64 columns (a checkpoint's ``metrics``):
        the totals, the round table and the pair table, each in slot
        order. A read: the log folds first."""
        self.fold()
        return {
            "totals": np.array(
                [self.messages_total, self.bytes_total, self.messages_blackholed],
                dtype=np.int64,
            ),
            "rounds": np.array(self._rounds, dtype=np.int64),
            "round_messages": np.array(self._round_messages, dtype=np.int64),
            "round_bytes": np.array(self._round_bytes, dtype=np.int64),
            "pair_keys": self._pair_keys[: self._pairs].copy(),
            "pair_counts": self._pair_counts[: self._pairs].copy(),
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Replace every count with those of a :meth:`state`."""
        self._registry = MetricsRegistry()
        self._init_handles()
        messages, size, blackholed = np.asarray(state["totals"]).tolist()
        self._messages_total.value = float(messages)
        self._bytes_total.value = float(size)
        self._blackholed.value = float(blackholed)
        table = ("rounds", "round_messages", "round_bytes")
        for round_index, m, b in zip(*(np.asarray(state[k]).tolist() for k in table)):
            slot = self._slot(round_index)
            self._round_messages[slot], self._round_bytes[slot] = m, b
        keys = np.asarray(state["pair_keys"], dtype=np.int64)
        if keys.size:
            self._append_pairs(keys)
            self._pair_counts[: self._pairs] = state["pair_counts"]

    def load_records(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Replace every count with those of ``registry.to_records()``
        output (the ``metrics`` of checkpoints older than
        :meth:`state`).

        The round and pair tables are rebuilt from the records: rounds
        in ascending order, pairs in record order.
        """
        self._registry = MetricsRegistry.from_records(records)
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
            slot = self._slot(round_index)
            self._round_messages[slot], self._round_bytes[slot] = rounds[round_index]
        if keys:
            self._append_pairs(np.array(keys, dtype=np.int64))
            self._pair_counts[: self._pairs] = counts
