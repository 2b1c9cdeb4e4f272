"""Property-based tests for the streaming arrival generators (hypothesis).

The two contracts the module docstring of ``repro.serving.arrivals``
promises, checked on arbitrary rates/seeds/chunk splits:

* **Chunk invariance** — any chunked split of ``n`` arrivals is
  bit-identical to the one-shot batch, including the RNG stream
  positions afterwards (``capture_state`` equality, which contains the
  bit-generator states verbatim).
* **Statistical sanity** — arrival counts over a window match the
  process intensity within CLT bounds; timestamps strictly increase.
* **Checkpoint round-trip** — restore into a *fresh* generator resumes
  the identical stream.
* **Bursty regime path** — the successor walk equals the per-flip
  ``searchsorted`` loop it replaced (kept below as the reference), batch
  by batch, regime state included.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.arrivals import (
    ARRIVALS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.utils.rng import spawn_rng

PROCESSES = sorted(ARRIVALS)


def _splits(draw, st_, total):
    """A random composition of ``total`` into positive chunk sizes."""
    sizes = []
    remaining = total
    while remaining > 0:
        size = draw(st_.integers(1, remaining))
        sizes.append(size)
        remaining -= size
    return sizes


@st.composite
def chunked_runs(draw):
    process = draw(st.sampled_from(PROCESSES))
    rate = draw(st.floats(0.1, 50.0))
    seed = draw(st.integers(0, 2**31 - 1))
    total = draw(st.integers(2, 300))
    sizes = _splits(draw, st, total)
    return process, rate, seed, total, sizes


class TestChunkInvariance:
    @given(chunked_runs())
    @settings(max_examples=60, deadline=None)
    def test_any_split_is_bit_identical_to_one_shot(self, run):
        process, rate, seed, total, sizes = run
        one_shot = make_arrivals(process, rate, seed=seed)
        chunked = make_arrivals(process, rate, seed=seed)

        expected = one_shot.next_batch(total)
        got = np.concatenate([chunked.next_batch(n) for n in sizes])

        # Bitwise, not approximate: the _fold_gaps association trick.
        np.testing.assert_array_equal(got, expected)
        assert chunked.now == one_shot.now
        assert chunked.count == one_shot.count == total

    @given(chunked_runs())
    @settings(max_examples=40, deadline=None)
    def test_rng_stream_position_matches_after_any_split(self, run):
        process, rate, seed, total, sizes = run
        one_shot = make_arrivals(process, rate, seed=seed)
        chunked = make_arrivals(process, rate, seed=seed)
        one_shot.next_batch(total)
        for n in sizes:
            chunked.next_batch(n)
        # capture_state embeds every bit-generator state verbatim, so
        # state equality == stream-position equality. JSON normalizes
        # away int/np-int representation differences.
        assert json.dumps(
            chunked.capture_state(), sort_keys=True, default=str
        ) == json.dumps(one_shot.capture_state(), sort_keys=True, default=str)

    @given(chunked_runs())
    @settings(max_examples=40, deadline=None)
    def test_stream_generator_matches_next_batch(self, run):
        process, rate, seed, total, _ = run
        via_stream = make_arrivals(process, rate, seed=seed)
        via_batch = make_arrivals(process, rate, seed=seed)
        got = np.concatenate(list(via_stream.stream(total, chunk=7)))
        np.testing.assert_array_equal(got, via_batch.next_batch(total))


class TestStatistics:
    @given(
        process=st.sampled_from(PROCESSES),
        rate=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_timestamps_strictly_increase_from_zero(self, process, rate, seed):
        arrivals = make_arrivals(process, rate, seed=seed)
        times = arrivals.next_batch(500)
        assert times[0] > 0.0
        assert np.all(np.diff(times) > 0.0)
        assert np.all(np.isfinite(times))

    @given(seed=st.integers(0, 2**31 - 1), rate=st.floats(1.0, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_poisson_count_within_clt_bounds(self, seed, rate):
        # n arrivals span a window of expected length n/rate with
        # standard deviation sqrt(n)/rate; 6 sigma over random seeds.
        n = 4000
        arrivals = PoissonArrivals(rate, seed=seed)
        span = arrivals.next_batch(n)[-1]
        assert abs(span - n / rate) < 6.0 * np.sqrt(n) / rate

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bursty_mean_rate_exceeds_base_rate(self, seed):
        # Bursts only ever add arrivals per unit time, so the empirical
        # rate must beat the calm-regime base rate (strictly, once any
        # burst occurred — p_enter=0.3 makes that certain at n=4000).
        rate = 5.0
        arrivals = BurstyArrivals(rate, seed=seed, p_enter=0.3, p_exit=0.3)
        n = 4000
        span = arrivals.next_batch(n)[-1]
        assert n / span > rate

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_diurnal_inversion_satisfies_time_rescaling(self, seed):
        # Each emitted time t_k must solve Lambda(t_k) = Gamma_k, i.e.
        # the cumulative rate at consecutive arrivals differs by the
        # unit-rate exponential gaps — verify Lambda(t) is recovered to
        # bisection precision by checking Lambda(t_k) is increasing with
        # i.i.d.-looking unit-mean increments.
        arrivals = DiurnalArrivals(10.0, seed=seed, amplitude=0.8, period=50.0)
        times = arrivals.next_batch(2000)
        gamma = np.asarray(arrivals.cumulative_rate(times))
        increments = np.diff(gamma)
        assert np.all(increments > 0.0)
        assert abs(np.mean(increments) - 1.0) < 6.0 / np.sqrt(len(increments))


class TestCheckpoint:
    @given(chunked_runs())
    @settings(max_examples=40, deadline=None)
    def test_restore_into_fresh_generator_resumes_identically(self, run):
        process, rate, seed, total, _ = run
        original = make_arrivals(process, rate, seed=seed)
        original.next_batch(total)
        snapshot = json.loads(json.dumps(original.capture_state()))

        resumed = make_arrivals(process, rate, seed=seed + 1)  # wrong seed on purpose
        resumed.restore_state(snapshot)
        np.testing.assert_array_equal(
            resumed.next_batch(64), original.next_batch(64)
        )
        assert resumed.now == original.now
        assert resumed.count == original.count

    @pytest.mark.parametrize("process", PROCESSES)
    def test_state_rejects_wrong_process(self, process):
        from repro.exceptions import CheckpointError

        arrivals = make_arrivals(process, 1.0, seed=3)
        state = arrivals.capture_state()
        state["process"] = "something-else"
        with pytest.raises(CheckpointError):
            arrivals.restore_state(state)


def _reference_regimes(u, p_enter, p_exit, state):
    """The bursty regime path as the per-flip ``searchsorted`` loop."""
    n = len(u)
    hits = (np.flatnonzero(u < p_enter), np.flatnonzero(u < p_exit))
    states = np.empty(n, dtype=np.intp)
    pos = 0
    while pos < n:
        candidates = hits[state]
        k = int(np.searchsorted(candidates, pos))
        flip_at = int(candidates[k]) if k < len(candidates) else n
        states[pos:flip_at] = state
        if flip_at >= n:
            break
        state = 1 - state
        states[flip_at] = state
        pos = flip_at + 1
    return states, state


class TestBurstyRegimePath:
    @given(
        seed=st.integers(0, 2**31 - 1),
        p_enter=st.floats(0.001, 0.9),
        p_exit=st.floats(0.001, 0.9),
        sizes=st.lists(
            st.one_of(st.just(1), st.integers(1, 3000)), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference_loop_batch_by_batch(
        self, seed, p_enter, p_exit, sizes
    ):
        proc = BurstyArrivals(20.0, seed=seed, p_enter=p_enter, p_exit=p_exit)
        switch = spawn_rng(seed, "serving.arrivals.bursty.switch")
        gap = spawn_rng(seed, "serving.arrivals.bursty.gap")
        rates = np.array([20.0, 20.0 * proc.burst_factor])
        state, now = 0, 0.0
        for n in sizes:
            times = proc.next_batch(n)
            states, state = _reference_regimes(
                switch.random(n), p_enter, p_exit, state
            )
            gaps = gap.exponential(1.0, size=n) / rates[states]
            gaps[0] += now
            expected = np.cumsum(gaps)
            now = float(expected[-1])
            np.testing.assert_array_equal(times, expected)
            assert proc._state == state
        assert proc.capture_state()["rng_switch"] == switch.bit_generator.state
