"""Property-based tests for the serving dispatcher and routing policies.

* JSQ never routes to a strictly dominated queue (and tie-breaks low).
* P2C always picks the less-loaded of its two probes.
* The golden-ratio deterministic router realizes the weight vector with
  low discrepancy — far tighter than i.i.d. sampling would.
* The vectorized per-worker Lindley recursion agrees with a scalar
  per-request reference simulation to float tolerance.
* The all-worker Lindley pass and the per-segment fault-mode bookkeeping
  are bit-identical to the per-worker loop and per-request entries they
  replaced (kept below as the reference), and the pass's padding stays
  under twice the segment.
* Bookkeeping conservation: every request is dispatched exactly once and
  ends up completed or failed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.static_weighted import StaticWeighted
from repro.serving.arrivals import PoissonArrivals, make_arrivals
from repro.serving.dispatcher import LindleyRows, ServingSimulator, WorkerCrash
from repro.serving.policies import (
    GOLDEN,
    JoinShortestQueue,
    PowerOfTwoChoices,
    WeightedRouting,
    make_policy,
)
from repro.utils.rng import spawn_rng


def _fleet(n):
    return np.linspace(1.0, 3.0, n)


class TestJsqInvariant:
    @given(
        backlogs=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=32
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_never_picks_a_strictly_dominated_queue(self, backlogs):
        backlogs = np.asarray(backlogs)
        policy = JoinShortestQueue(len(backlogs))
        choice = policy.select(backlogs)
        assert backlogs[choice] == backlogs.min()
        # Tie-break: lowest index among the minima.
        assert choice == int(np.flatnonzero(backlogs == backlogs.min())[0])


class TestP2cInvariant:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 16),
        rounds=st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_picks_less_loaded_of_its_two_probes(self, seed, n, rounds):
        policy = PowerOfTwoChoices(n, seed=seed)
        # Shadow the policy's substream to predict its probes: same seed
        # and substream name -> same integer draws.
        shadow = spawn_rng(seed, "serving.policy.p2c")
        rng = np.random.default_rng(seed ^ 0xABCDEF)
        for _ in range(rounds):
            backlogs = rng.exponential(1.0, size=n)
            i, j = (int(v) for v in shadow.integers(0, n, size=2))
            choice = policy.select(backlogs)
            assert choice in (i, j)
            if backlogs[i] != backlogs[j]:
                expected = i if backlogs[i] < backlogs[j] else j
            else:
                expected = min(i, j)
            assert choice == expected


class TestGoldenRatioRouting:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 12),
        m=st.integers(1000, 20000),
    )
    @settings(max_examples=30, deadline=None)
    def test_discrepancy_beats_iid_sampling(self, seed, n, m):
        # The dispatcher's exact routing formula, standalone.
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.2, 1.0, size=n)
        weights /= weights.sum()
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        u = (np.arange(1, m + 1) * GOLDEN) % 1.0
        assign = np.searchsorted(cum, u, side="right")
        counts = np.bincount(assign, minlength=n)
        # Three-distance/Kronecker discrepancy for an interval partition
        # is O(log m); 12 ln(m) + 12 is a generous envelope, and for
        # these m it sits well below the i.i.d. 3-sigma ~ 3 sqrt(m w).
        bound = 12.0 * np.log(m) + 12.0
        deviation = np.abs(counts - weights * m)
        assert deviation.max() <= bound

    def test_routing_depends_only_on_global_index(self):
        # Splitting a batch anywhere yields the same assignments, the
        # chunk/checkpoint-invariance of the router.
        n, m = 5, 1000
        weights = _fleet(n) / _fleet(n).sum()
        cum = np.cumsum(weights)
        cum[-1] = 1.0

        def route(start, count):
            u = (np.arange(start + 1, start + count + 1) * GOLDEN) % 1.0
            return np.searchsorted(cum, u, side="right")

        one_shot = route(0, m)
        split = np.concatenate([route(0, 300), route(300, 700)])
        np.testing.assert_array_equal(one_shot, split)


class TestLindleyRecursion:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 8),
        total=st.integers(50, 2000),
    )
    @settings(max_examples=25, deadline=None)
    def test_vectorized_weighted_path_matches_scalar_reference(
        self, seed, n, total
    ):
        mu = _fleet(n)
        rate = 0.7 * mu.sum()
        sim = ServingSimulator(
            PoissonArrivals(rate, seed=seed),
            make_policy("wrr", n, mu, seed=seed),
            mu,
            seed=seed,
            quantile_mode="exact",
        )
        weights = np.maximum(np.asarray(sim.policy.weights, dtype=float), 0.0)
        weights = weights / weights.sum()
        sim.run(total)
        got = np.sort(np.concatenate(sim.store._chunks))

        # Scalar reference: same arrivals, same routing formula, same
        # service stream, one request at a time.
        times = PoissonArrivals(rate, seed=seed).next_batch(total)
        service = spawn_rng(seed, "serving.service").exponential(
            1.0, size=total
        )
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        u = (np.arange(1, total + 1) * GOLDEN) % 1.0
        assign = np.searchsorted(cum, u, side="right")
        dep = np.zeros(n)
        latencies = np.empty(total)
        for k in range(total):
            w = assign[k]
            d = max(times[k], dep[w]) + service[k] / mu[w]
            dep[w] = d
            latencies[k] = d - times[k]
        expected = np.sort(latencies)

        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(
            sim.dispatched, np.bincount(assign, minlength=n)
        )


class TestConservation:
    @given(
        seed=st.integers(0, 2**31 - 1),
        policy=st.sampled_from(["wrr", "dolbie", "jsq", "p2c"]),
        process=st.sampled_from(["poisson", "bursty", "diurnal"]),
        total=st.integers(10, 1500),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_request_dispatched_once_and_accounted(
        self, seed, policy, process, total
    ):
        n = 4
        mu = _fleet(n)
        rate = 0.7 * mu.sum()
        sim = ServingSimulator(
            make_arrivals(process, rate, seed=seed),
            make_policy(policy, n, mu, seed=seed),
            mu,
            seed=seed,
            quantile_mode="exact",
        )
        summary = sim.run(total)
        assert summary.requests == total
        assert summary.completed + summary.failed == total
        assert summary.failed == 0  # no crashes scheduled
        assert int(sim.dispatched.sum()) == total
        assert summary.p50 <= summary.p99 <= summary.p999
        assert 0.0 <= summary.slo_attainment <= 1.0
        assert np.isfinite(summary.mean_latency)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_seeded_reruns_are_bit_identical(self, seed):
        n, total = 5, 2000
        mu = _fleet(n)
        rate = 0.75 * mu.sum()

        def run():
            sim = ServingSimulator(
                PoissonArrivals(rate, seed=seed),
                make_policy("dolbie", n, mu, seed=seed),
                mu,
                seed=seed,
                quantile_mode="exact",
            )
            sim.run(total)
            return sim

        a, b = run(), run()
        np.testing.assert_array_equal(
            np.concatenate(a.store._chunks), np.concatenate(b.store._chunks)
        )
        np.testing.assert_array_equal(a.dispatched, b.dispatched)
        assert a.summary() == b.summary()


class _Reference(ServingSimulator):
    """The dispatcher with the per-worker 1-D Lindley loop and the
    per-request fault-mode entries it had before the all-worker pass."""

    def _dispatch_weighted(self, times):
        m = len(times)
        if m == 0:
            return
        alive_idx = np.flatnonzero(self.alive)
        weights = self.effective_weights()[alive_idx]
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        start = self.request_index
        u = (np.arange(start + 1, start + m + 1) * GOLDEN) % 1.0
        assign = alive_idx[np.searchsorted(cum, u, side="right")]
        service = self._service_rng.exponential(1.0, size=m) / self.mu[assign]
        latencies = np.empty(m)
        order = np.argsort(assign, kind="stable")
        sorted_w = assign[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_w[1:] != sorted_w[:-1]))
        )
        ends = np.concatenate((starts[1:], [m]))
        for s0, e0 in zip(starts, ends):
            w = int(sorted_w[s0])
            idx = order[s0:e0]
            arr_w = times[idx]
            srv_w = service[idx]
            cs = np.cumsum(srv_w)
            slack = np.maximum.accumulate(arr_w - (cs - srv_w))
            dep = cs + np.maximum(slack, self._dep[w])
            self._dep[w] = float(dep[-1])
            latencies[idx] = dep - arr_w
            if self._pending is not None:
                self._pending[w].append((dep, dep - arr_w))
        self._account(times, assign, latencies, deferred=self._pending is not None)

    def _dispatch_sequential(self, times):
        m = len(times)
        if m == 0:
            return
        alive_idx = np.flatnonzero(self.alive)
        dep = self._dep
        service_std = self._service_rng.exponential(1.0, size=m)
        assign = np.empty(m, dtype=np.int64)
        latencies = np.empty(m)
        for k in range(m):
            t = times[k]
            backlogs = np.maximum(dep[alive_idx] - t, 0.0)
            w = int(alive_idx[self.policy.select(backlogs)])
            d = max(t, dep[w]) + service_std[k] / self.mu[w]
            dep[w] = d
            assign[k] = w
            latencies[k] = d - t
            if self._pending is not None:
                self._pending[w].append((np.array([d]), np.array([d - t])))
        self._account(times, assign, latencies, deferred=self._pending is not None)


def _assert_same_run(a, b):
    """Exact equality of everything a run has recorded or still holds."""
    np.testing.assert_array_equal(a._dep, b._dep)
    np.testing.assert_array_equal(a.dispatched, b.dispatched)
    np.testing.assert_array_equal(
        np.concatenate(a.store._chunks or [np.empty(0)]),
        np.concatenate(b.store._chunks or [np.empty(0)]),
    )
    assert (a.completed, a.failed, a.slo_hits, a._lat_sum) == (
        b.completed, b.failed, b.slo_hits, b._lat_sum
    )
    if a._pending is not None:
        for entries_a, entries_b in zip(a._pending, b._pending):
            for k in (0, 1):
                np.testing.assert_array_equal(
                    np.concatenate([e[k] for e in entries_a] or [np.empty(0)]),
                    np.concatenate([e[k] for e in entries_b] or [np.empty(0)]),
                )


def _weights(draw, n):
    """Skewed (one worker >= 99%), with zero-weight workers, or uniform."""
    kind = draw(st.sampled_from(["skewed", "zeros", "uniform"]))
    if kind == "skewed":
        w = np.full(n, 0.01 / (n - 1))
        w[draw(st.integers(0, n - 1))] = 0.99
    elif kind == "zeros":
        w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=n, max_size=n)))
        if w.sum() == 0:
            w[0] = 1.0
    else:
        w = np.ones(n)
    return w


def _pair(seed, n, policy, crashes, control_period):
    mu = _fleet(n)
    return [
        cls(
            PoissonArrivals(0.8 * mu.sum(), seed=seed),
            policy(mu),
            mu,
            seed=seed,
            quantile_mode="exact",
            crashes=crashes,
            control_period=control_period,
        )
        for cls in (ServingSimulator, _Reference)
    ]


class TestAllWorkerLindleyPass:
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1), n=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_the_per_worker_loop(self, data, seed, n):
        weights = _weights(data.draw, n)
        crashes = ()
        if data.draw(st.booleans()):
            # Fault mode: deferred recording, crashes mid-run.
            victims = data.draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)
            )
            crashes = [WorkerCrash(2.0 + 5.0 * k, w) for k, w in enumerate(victims)]
        # Control periods of ~1 arrival make m = 1 segments; long ones
        # make one segment per chunk.
        period = data.draw(st.sampled_from([0.7, 25.0, 1e6])) / (0.8 * _fleet(n).sum())
        policy = data.draw(st.sampled_from(["static", "dolbie", "dolbie-fd"]))

        def make(mu):
            if policy == "static":
                return WeightedRouting(StaticWeighted(n, weights=weights))
            return make_policy(policy, n, mu, initial_allocation=weights / weights.sum())

        new, ref = _pair(seed, n, make, crashes, period)
        splits = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
        for size in splits:
            times = new.arrivals.next_batch(size)
            ref.arrivals.next_batch(size)
            new.process(times)
            ref.process(times)
            _assert_same_run(new, ref)
        assert new.finalize() == ref.finalize()
        _assert_same_run(new, ref)

    @pytest.mark.parametrize("policy", ["wrr", "jsq"])
    def test_fault_mode_keeps_one_entry_per_worker_per_segment(self, policy):
        n = 4
        # Fault mode on (a crash is scheduled), one segment: no event
        # falls inside the chunk.
        sim, _ = _pair(
            3, n, lambda mu: make_policy(policy, n, mu), [WorkerCrash(1e8, 1)], 1e9
        )
        sim.process(sim.arrivals.next_batch(300))
        assert [len(entries) for entries in sim._pending] == [1] * n
        assert sum(e[0].size for entries in sim._pending for e in entries) == 300

    @given(
        counts=st.lists(st.integers(0, 5000), min_size=2, max_size=64).filter(
            lambda c: sum(c) > 0
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_padding_stays_under_twice_the_segment(self, counts):
        counts = np.array(counts)
        rows = LindleyRows(counts)
        m = int(counts.sum())
        assert m <= rows.cells <= 2 * m + len(counts)
        assert rows.cells < 2 * m or m == 1
        np.testing.assert_array_equal(rows.counts, counts[rows.workers])

    def test_skewed_segment_allocates_o_of_m(self):
        # One worker takes 99.9% of a 65,536-request segment across 64
        # workers. A single 64 x m matrix would allocate 8 * 64 * m bytes
        # per buffer; the width classes keep every buffer under 2 m cells.
        n, m = 64, 65_536
        weights = np.full(n, 0.001 / (n - 1))
        weights[7] = 0.999
        mu = _fleet(n)
        sim = ServingSimulator(
            PoissonArrivals(0.8 * mu.sum(), seed=1),
            WeightedRouting(StaticWeighted(n, weights=weights)),
            mu,
            seed=1,
            control_period=1e9,
        )
        times = sim.arrivals.next_batch(m)
        sim.process(times[:8])  # warm up every lazily built structure
        tracemalloc.start()
        try:
            sim.process(times[8:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * 24, peak


class TestSequentialFaultMode:
    @given(
        seed=st.integers(0, 2**31 - 1),
        policy=st.sampled_from(["jsq", "p2c"]),
        splits=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_per_segment_entries_flush_like_per_request_ones(self, seed, policy, splits):
        n = 4
        new, ref = _pair(
            seed, n, lambda mu: make_policy(policy, n, mu, seed=seed),
            [WorkerCrash(0.5, 2), WorkerCrash(1.5, 0)], 0.25,
        )
        for size in splits:
            times = new.arrivals.next_batch(size)
            ref.arrivals.next_batch(size)
            new.process(times)
            ref.process(times)
            _assert_same_run(new, ref)
        assert new.finalize() == ref.finalize()

    def test_snapshot_with_per_request_entries_restores(self):
        n = 4

        def make():
            mu = _fleet(n)
            return ServingSimulator(
                PoissonArrivals(0.8 * mu.sum(), seed=5),
                make_policy("jsq", n, mu),
                mu,
                seed=5,
                quantile_mode="exact",
                crashes=[WorkerCrash(30.0, 1)],
                control_period=0.5,
            )

        live = make()
        live.process(live.arrivals.next_batch(400))
        state = live.capture_state()
        # The per-request layout older snapshots carry.
        state["pending"] = [
            [([d], [l]) for deps, lats in entries for d, l in zip(deps, lats)]
            for entries in state["pending"]
        ]
        resumed = make()
        resumed.restore_state(state)
        for sim in (live, resumed):
            sim.process(sim.arrivals.next_batch(400))
        assert resumed.finalize() == live.finalize()
        _assert_same_run(resumed, live)
