"""Communication accounting for the §IV-C complexity reproduction.

Backed by a :class:`repro.obs.metrics.MetricsRegistry` (one labelled
counter family per concept: totals, per-round, per-pair) instead of the
ad-hoc tally dicts it once held. The public surface is unchanged —
``messages_total`` and friends read as ints, the ``per_round_*`` /
``per_pair_messages`` properties return plain snapshot dicts — so the
complexity experiment and every existing assertion keep working, while
``repro profile`` / :func:`repro.io.save_metrics` get the registry via
:attr:`NetworkMetrics.registry`.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from repro.net.message import Message
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["NetworkMetrics"]

#: Env knob: ``REPRO_PAIR_METRICS=0`` disables per-(src, dst) counters.
#: Totals and per-round counts stay exact; only the per-pair breakdown —
#: O(unique pairs) Python counter objects, ~3N of them for a tree round,
#: the dominant accounting cost at N=100,000 — is skipped. With it off a
#: :class:`~repro.net.batch.DeliveryPlan` never builds its per-pair
#: Python list either, so the 18 plans of an N=10⁶ tree round
#: build in ~0.23 s and the run peaks at ~0.9 GiB RSS (``perfbench``
#: ``fd_tree_1m``). Read once per :class:`NetworkMetrics` construction.
PAIR_METRICS_ENV = "REPRO_PAIR_METRICS"


class NetworkMetrics:
    """Counts messages and bytes, totals and per round."""

    def __init__(self, pair_accounting: bool | None = None) -> None:
        self.registry = MetricsRegistry()
        if pair_accounting is None:
            pair_accounting = os.environ.get(PAIR_METRICS_ENV, "1") != "0"
        #: Whether per-(src, dst) counters are maintained (default yes).
        self.pair_accounting = bool(pair_accounting)
        #: Bumped on :meth:`reset` — cached per-pair counter handles
        #: held outside this object (``repro.net.batch.DeliveryPlan``)
        #: revalidate against it before bumping.
        self.pair_epoch = 0
        self._init_handles()

    def _init_handles(self) -> None:
        # The hot path (one record() per frame) bumps cached handles
        # directly; the registry stays the single source of truth.
        self._messages_total = self.registry.counter("net.messages_total")
        self._bytes_total = self.registry.counter("net.bytes_total")
        self._blackholed = self.registry.counter("net.messages_blackholed")
        self._round_messages: dict[int, Counter] = {}
        self._round_bytes: dict[int, Counter] = {}
        self._pair_messages: dict[tuple[int, int], Counter] = {}

    def _round_handles(self, round_index: int) -> tuple[Counter, Counter]:
        messages = self._round_messages.get(round_index)
        if messages is None:
            messages = self._round_messages[round_index] = self.registry.counter(
                "net.round_messages", round=round_index
            )
            self._round_bytes[round_index] = self.registry.counter(
                "net.round_bytes", round=round_index
            )
        return messages, self._round_bytes[round_index]

    def _pair_handle(self, pair: tuple[int, int]) -> Counter:
        counter = self._pair_messages.get(pair)
        if counter is None:
            counter = self._pair_messages[pair] = self.registry.counter(
                "net.pair_messages", src=pair[0], dst=pair[1]
            )
        return counter

    # -- recording (per frame / per phase) --------------------------------
    def record(self, message: Message) -> None:
        # Direct .value bumps skip Counter.inc's sign check; every
        # increment here is a positive constant, so monotonicity holds
        # by construction and the per-frame cost stays a few attribute
        # stores.
        self._messages_total.value += 1
        self._bytes_total.value += message.size_bytes
        round_messages, round_bytes = self._round_handles(message.round_index)
        round_messages.value += 1
        round_bytes.value += message.size_bytes
        if self.pair_accounting:
            self._pair_handle((message.src, message.dst)).value += 1

    def record_batch(
        self,
        round_index: int,
        messages: int,
        bytes_total: int,
        pairs: "Iterable[tuple[int, int]]",
    ) -> None:
        """Record a whole phase of same-round frames in bulk.

        Equivalent to ``messages`` :meth:`record` calls: the totals and
        per-round counters are bumped once, and each ``(src, dst)`` in
        ``pairs`` (one entry per frame) gets one per-pair increment.
        """
        self._messages_total.value += messages
        self._bytes_total.value += bytes_total
        round_messages, round_bytes = self._round_handles(round_index)
        round_messages.value += messages
        round_bytes.value += bytes_total
        if self.pair_accounting:
            for pair in pairs:
                self._pair_handle(pair).value += 1

    def record_batch_arrays(
        self,
        round_index: int,
        messages: int,
        bytes_total: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> None:
        """:meth:`record_batch` for struct-of-arrays frame batches.

        Identical accounting — same counter values *and* the same counter
        creation order (first occurrence in frame order, so registry
        snapshots stay byte-comparable) — but each unique ``(src, dst)``
        pair costs one Python dict hit instead of one per frame. At
        N=10,000 a flat phase carries ~10^8 frames over ~10^8 pairs and
        stays loop-bound either way, but the tree phases (~N frames over
        ~N pairs, heavily repeated head destinations) drop to O(unique).
        """
        self._messages_total.value += messages
        self._bytes_total.value += bytes_total
        round_messages, round_bytes = self._round_handles(round_index)
        round_messages.value += messages
        round_bytes.value += bytes_total
        if messages == 0 or not self.pair_accounting:
            return
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        keys = (src << 32) | dst
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable")  # first-occurrence order
        for k in order.tolist():
            i = int(first[k])
            pair = (int(src[i]), int(dst[i]))
            self._pair_handle(pair).value += int(counts[k])

    def record_totals(
        self, round_index: int, messages: int, bytes_total: int
    ) -> None:
        """Bump the totals and per-round counters only.

        The per-pair half of a phase's accounting is handled separately
        by callers that cache their pair handles across rounds
        (:class:`repro.net.batch.DeliveryPlan` — same counter objects,
        same creation order, same values as :meth:`record_batch_arrays`,
        without the per-round ``np.unique`` pass).
        """
        self._messages_total.value += messages
        self._bytes_total.value += bytes_total
        round_messages, round_bytes = self._round_handles(round_index)
        round_messages.value += messages
        round_bytes.value += bytes_total

    def record_blackholed(self, count: int = 1) -> None:
        """Tally frames swallowed by a partition (never delivered)."""
        self._blackholed.value += count

    # -- reading (the historical public surface) --------------------------
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
        return {r: int(c.value) for r, c in self._round_messages.items()}

    @property
    def per_round_bytes(self) -> dict[int, int]:
        return {r: int(c.value) for r, c in self._round_bytes.items()}

    @property
    def per_pair_messages(self) -> dict[tuple[int, int], int]:
        return {p: int(c.value) for p, c in self._pair_messages.items()}

    def messages_in_round(self, round_index: int) -> int:
        counter = self._round_messages.get(round_index)
        return 0 if counter is None else int(counter.value)

    def mean_messages_per_round(self) -> float:
        if not self._round_messages:
            return 0.0
        return self.messages_total / len(self._round_messages)

    def reset(self) -> None:
        self.registry.reset()
        self.pair_epoch += 1  # invalidates externally cached pair handles
        self._init_handles()
