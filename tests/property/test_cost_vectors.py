"""Cost vectors answer bit-for-bit what their scalar items answer.

* :class:`SaturatingQueueingCostVector` against independently built
  ``SaturatingQueueingCost`` / ``ConstantCost(DEAD_WORKER_COST)`` objects:
  ``values`` on both sides of the knee and at clamped inputs,
  ``max_acceptable`` at levels with ``gap <= 0``, ``f(0) > level``,
  ``f(1) <= level`` and in between, the dead mask, float64 and float32.
* :class:`ScalarCostVector` makes exactly the scalar calls, and only on
  ``among`` when given.
* The centralized ``acceptable_workloads`` / ``evaluate_allocation`` and
  the FD flat and tree rounds give the same bits for a cost list and for
  its vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantities import acceptable_workloads
from repro.costs.affine_vector import AffineCostVector
from repro.costs.base import ConstantCost
from repro.costs.nonlinear import (
    DEAD_WORKER_COST,
    PowerLawCost,
    SaturatingQueueingCost,
    SaturatingQueueingCostVector,
)
from repro.costs.vector import ScalarCostVector, as_cost_vector
from repro.exceptions import CostFunctionError
from repro.minmax.solver import evaluate_allocation
from repro.protocols.fully_distributed import FullyDistributedDolbie

DTYPES = (np.float64, np.float32)


def _assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


@st.composite
def fleets(draw):
    """(mu, lam, dead) with every live knee inside (0, 1) half of the
    time, so both branches of the curve are reachable."""
    n = draw(st.integers(1, 10))
    mu = np.array(draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # Saturate inside the simplex: x_knee = 0.95 * mu / lam < 1.
        lam = float(mu.max()) * draw(st.floats(1.0, 40.0))
    else:
        lam = draw(st.floats(0.05, 200.0))
    dead = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return mu, lam, dead


def _scalar_items(mu, lam, dead):
    return [
        ConstantCost(DEAD_WORKER_COST)
        if d
        else SaturatingQueueingCost(mu=float(m), lam=float(lam))
        for m, d in zip(mu, dead)
    ]


@st.composite
def allocations(draw, items):
    """One workload per entry: 0, 1, just inside the tolerance padding,
    either side of the knee, or anywhere in [0, 1]."""
    xs = []
    for item in items:
        knee = getattr(item, "x_knee", 0.5)
        candidates = [
            0.0,
            1.0,
            -5e-13,
            1.0 + 5e-13,
            min(knee, 1.0),
            min(np.nextafter(knee, 0.0), 1.0),
            min(np.nextafter(knee, 2.0), 1.0),
            draw(st.floats(0.0, 1.0)),
        ]
        xs.append(draw(st.sampled_from(candidates)))
    return np.array(xs)


@st.composite
def levels(draw, items, x):
    """Levels at every branch of max_acceptable: gap <= 0 (c is 0),
    f(0) > level, f(1) <= level, the knee value, the dead cost and in
    between."""
    live = [f for f in items if isinstance(f, SaturatingQueueingCost)]
    pool = [DEAD_WORKER_COST, np.nextafter(DEAD_WORKER_COST, 0.0), 0.0, -0.5]
    for f in live:
        pool += [
            f.value(0.0),
            np.nextafter(f.value(0.0), 0.0),
            f.value(1.0),
            f.f_knee,
        ]
    pool += [float(f(xi)) for f, xi in zip(items, np.clip(x, 0.0, 1.0))]
    if draw(st.booleans()):
        return float(draw(st.sampled_from(pool)))
    return draw(st.floats(0.0, 1e3))


@given(data=st.data(), fleet=fleets())
@settings(max_examples=300, deadline=None)
def test_saturating_vector_matches_scalar_objects(data, fleet):
    mu, lam, dead = fleet
    items = _scalar_items(mu, lam, dead)
    vector = SaturatingQueueingCostVector(mu, lam, dead=dead)
    x = data.draw(allocations(items))
    level = data.draw(levels(items, x))
    for dtype in DTYPES:
        typed = vector.astype(dtype)
        xd = x.astype(dtype)
        want = np.asarray([f(xi) for f, xi in zip(items, xd)], dtype=dtype)
        _assert_bits(typed.values(xd), want)
        want = np.asarray([f.max_acceptable(level) for f in items], dtype=dtype)
        _assert_bits(typed.max_acceptable(level), want)


def test_past_the_knee_on_a_large_fleet():
    # The tangent slope is lam / d ** 2 with Python's libm pow, which
    # differs from d * d in about one value in a thousand: a fleet this
    # large meets several such values past its knees.
    rng = np.random.default_rng(11)
    n = 4096
    mu = rng.uniform(0.2, 8.0, n)
    lam = 2.0 * float(mu.max())  # every knee inside the simplex
    vector = SaturatingQueueingCostVector(mu, lam)
    items = _scalar_items(mu, lam, np.zeros(n, dtype=bool))
    knees = np.array([f.x_knee for f in items])
    x = knees + rng.uniform(0.0, 1.0, n) * (1.0 - knees)
    _assert_bits(vector.values(x), np.array([f(xi) for f, xi in zip(items, x)]))
    for level in np.quantile([f(1.0) for f in items], [0.1, 0.5, 0.9]):
        want = np.array([f.max_acceptable(level) for f in items])
        _assert_bits(vector.max_acceptable(level), want)


@given(fleet=fleets())
@settings(max_examples=100, deadline=None)
def test_saturating_vector_items_are_the_scalar_costs(fleet):
    mu, lam, dead = fleet
    vector = SaturatingQueueingCostVector(mu, lam, dead=dead)
    n = len(vector)
    for i, want in enumerate(_scalar_items(mu, lam, dead)):
        got = vector[i]
        assert got is vector[i] is vector[i - n]  # built once, then cached
        assert type(got) is type(want)
        assert vars(got) == vars(want)
    assert list(vector) == [vector[i] for i in range(n)]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            vector[index]
    assert vector.astype(np.float64) is vector


def test_affine_vector_items_stay_in_range():
    vector = AffineCostVector(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
    for i in range(-3, 3):
        item = vector[i]
        assert item is vector[i % 3]  # built once, then cached
        assert item.slope == 1.0 + i % 3
    for index in (3, 4, -4, -5):
        with pytest.raises(IndexError):
            vector[index]


def test_saturating_vector_rejects_what_the_scalar_rejects():
    mu = np.array([1.0, 2.0])
    with pytest.raises(CostFunctionError):
        SaturatingQueueingCostVector(np.array([1.0, -1.0]), 5.0)
    with pytest.raises(CostFunctionError):
        SaturatingQueueingCostVector(mu, 0.0)
    # A dead entry's parameters are never read.
    SaturatingQueueingCostVector(np.array([1.0, -1.0]), 5.0, dead=[False, True])
    with pytest.raises(CostFunctionError):
        SaturatingQueueingCostVector(mu, 5.0).values(np.array([0.5, 1.1]))


class _Counting(PowerLawCost):
    calls: list = []

    def value(self, x):
        _Counting.calls.append(self.c)
        return super().value(x)


def test_scalar_vector_calls_exactly_the_participants():
    costs = [_Counting(1.0, 2.0, c=float(i)) for i in range(5)]
    among = np.array([0, 2, 3])
    vector = ScalarCostVector(costs, np.float32, among=among)
    x = np.full(5, 0.2, dtype=np.float32)
    _Counting.calls = []
    local = vector.values(x)
    assert _Counting.calls == [0.0, 2.0, 3.0]
    want = np.asarray([costs[i](x[i]) for i in among], dtype=np.float32)
    _assert_bits(local[among], want)
    assert np.isnan(local[[1, 4]]).all()
    caps = vector.max_acceptable(2.5)
    want = np.asarray([costs[i].max_acceptable(2.5) for i in among], dtype=np.float32)
    _assert_bits(caps[among], want)
    assert (caps[[1, 4]] == 0.0).all()


def test_as_cost_vector_picks_one_representation():
    sat = SaturatingQueueingCostVector(np.array([1.0, 2.0]), 2.0)
    assert as_cost_vector(sat) is sat
    assert as_cost_vector(sat, np.float32).dtype == np.float32
    affine = as_cost_vector(list(AffineCostVector(np.ones(2), np.zeros(2))))
    assert isinstance(affine, AffineCostVector)
    scalar = as_cost_vector(list(sat), np.float32, among=np.array([1]))
    assert isinstance(scalar, ScalarCostVector)
    assert scalar.dtype == np.float32 and scalar.among.tolist() == [1]


def _reference_local(costs, x):
    """The scalar loop ``evaluate_allocation`` ran before cost vectors."""
    return np.array([f(xi) for f, xi in zip(costs, x)], dtype=float)


def _reference_acceptable(costs, x, level, straggler):
    """The scalar loop ``acceptable_workloads`` ran before cost vectors."""
    x_prime = np.empty(len(costs), dtype=float)
    for i, cost in enumerate(costs):
        if i == straggler:
            x_prime[i] = x[i]
            continue
        x_prime[i] = max(min(cost.max_acceptable(level), 1.0), x[i])
    return x_prime


@given(data=st.data(), fleet=fleets())
@settings(max_examples=150, deadline=None)
def test_centralized_quantities_match_the_scalar_loop(data, fleet):
    mu, lam, dead = fleet
    items = _scalar_items(mu, lam, dead)
    vector = SaturatingQueueingCostVector(mu, lam, dead=dead)
    x = np.clip(data.draw(allocations(items)), 0.0, 1.0)
    want = _reference_local(items, x)
    level = data.draw(levels(items, x))
    s = data.draw(st.integers(0, len(items) - 1))
    for costs in (items, vector):
        local, global_cost, straggler = evaluate_allocation(costs, x)
        _assert_bits(local, want)
        assert (global_cost, straggler) == (want.max(), int(want.argmax()))
        _assert_bits(
            acceptable_workloads(costs, x, level, s),
            _reference_acceptable(items, x, level, s),
        )


class _CountingInverse(PowerLawCost):
    asked: list = []

    def max_acceptable(self, level, tol=1e-10):
        _CountingInverse.asked.append(self.c)
        return super().max_acceptable(level, tol)


def test_centralized_quantities_never_ask_the_straggler():
    costs = [_CountingInverse(1.0, 2.0, c=float(i)) for i in range(4)]
    x = np.full(4, 0.25)
    _CountingInverse.asked = []
    got = acceptable_workloads(costs, x, 2.5, 2)
    assert _CountingInverse.asked == [0.0, 1.0, 3.0]
    _assert_bits(got, _reference_acceptable(costs, x, 2.5, 2))


def _serving_costs(rng, n, dead):
    mu = rng.uniform(0.5, 4.0, n)
    lam = 0.9 * float(mu.sum()) * rng.uniform(0.5, 1.5)
    return SaturatingQueueingCostVector(mu, lam, dead=dead)


@pytest.mark.parametrize(
    "aggregation,backend",
    [("flat", "numpy64"), ("flat", "numpy32"), ("tree", "numpy64"), ("tree", "numpy32")],
)
def test_fd_rounds_give_the_same_bits_for_a_list_and_its_vector(aggregation, backend):
    n = 12
    kwargs = dict(aggregation=aggregation, backend=backend)
    if aggregation == "tree":
        kwargs["shard_size"] = 4
    runs = [FullyDistributedDolbie(n, **kwargs) for _ in range(2)]
    rng = np.random.default_rng(7)
    dead = np.zeros(n, dtype=bool)
    for t in range(1, 13):
        if t == 7:
            # A degraded flat round: the list path evaluates only the
            # participants.
            for protocol in runs:
                protocol.crash_worker(5)
            dead[5] = True
        vector = _serving_costs(rng, n, dead)
        results = [runs[0].run_round(t, vector), runs[1].run_round(t, list(vector))]
        for a, b in zip(*results):
            _assert_bits(np.asarray(a), np.asarray(b))
        _assert_bits(runs[0].allocation, runs[1].allocation)
