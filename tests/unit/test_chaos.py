"""Unit tests for the chaos layer: schedules, injector, invariants."""

import json

import numpy as np
import pytest

from repro.chaos import (
    FAULT_KINDS,
    ChaosInjector,
    FaultEvent,
    FaultSchedule,
    RoundObservation,
    assert_round_invariants,
    check_round_invariants,
    load_schedule,
    run_soak,
)
from repro.chaos.faults import _topology_by_name
from repro.costs.timevarying import RandomAffineProcess
from repro.exceptions import ConfigurationError, InvariantViolation
from repro.net.links import ConstantLatency, Link
from repro.net.topology import Topology, connected_components
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.protocols.master_worker import MasterWorkerDolbie

LINK = lambda: Link(ConstantLatency(0.001))  # noqa: E731


def _process(n=6, seed=0):
    return RandomAffineProcess(speeds=np.linspace(1.0, 2.0, n), seed=seed)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent(1, "meteor")

    def test_rounds_are_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            FaultEvent(0, "heal")

    def test_crash_needs_workers(self):
        with pytest.raises(ConfigurationError, match="target workers"):
            FaultEvent(1, "crash")

    def test_partition_needs_groups(self):
        with pytest.raises(ConfigurationError, match="needs groups"):
            FaultEvent(1, "partition")

    def test_degrade_severity_is_a_probability(self):
        with pytest.raises(ConfigurationError, match="drop probability"):
            FaultEvent(1, "degrade", severity=1.5)
        with pytest.raises(ConfigurationError, match="severity > 0"):
            FaultEvent(1, "slowdown", workers=(0,))

    def test_dict_roundtrip(self):
        for event in (
            FaultEvent(3, "crash", workers=(1, 2)),
            FaultEvent(5, "partition", groups=((0, 1), (4,))),
            FaultEvent(7, "slowdown", workers=(0,), duration=2, severity=0.01),
            FaultEvent(9, "degrade", duration=3, severity=0.2),
        ):
            assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault-event"):
            FaultEvent.from_dict({"round": 1, "kind": "heal", "oops": 1})


class TestFaultSchedule:
    def test_events_sorted_and_indexed_by_round(self):
        schedule = FaultSchedule.scripted([
            FaultEvent(9, "heal"),
            FaultEvent(2, "crash", workers=(0,)),
            FaultEvent(2, "degrade", severity=0.1),
        ])
        assert [e.round_index for e in schedule] == [2, 2, 9]
        assert len(schedule.events_at(2)) == 2
        assert schedule.events_at(5) == []
        assert schedule.horizon == 9

    def test_random_same_seed_is_identical(self):
        a = FaultSchedule.random(8, 200, seed=3)
        b = FaultSchedule.random(8, 200, seed=3)
        assert a.events == b.events
        c = FaultSchedule.random(8, 200, seed=4)
        assert a.events != c.events

    def test_random_produces_the_full_vocabulary(self):
        schedule = FaultSchedule.random(
            10, 600, seed=1, crash_rate=0.05, partition_rate=0.04
        )
        counts = schedule.counts()
        assert set(counts) == set(FAULT_KINDS)
        for kind in FAULT_KINDS:
            assert counts[kind] > 0, kind

    def test_random_crashes_are_paired_with_rejoins(self):
        schedule = FaultSchedule.random(8, 300, seed=5, crash_rate=0.08)
        crashes = [e for e in schedule if e.kind == "crash"]
        rejoins = [e for e in schedule if e.kind == "rejoin"]
        assert crashes and len(rejoins) >= len(crashes) - 3  # tail may be cut
        assert all(e.round_index > c.round_index for c, e in zip(crashes, rejoins))

    def test_random_respects_the_quorum_floor(self):
        # Replay the generator's own bookkeeping: at no point may the
        # primary component of (alive, un-islanded) workers go below 3.
        topology = Topology.ring(6)
        schedule = FaultSchedule.random(
            6, 400, seed=9, topology=topology,
            crash_rate=0.15, partition_rate=0.1, min_active=3,
        )
        dead, island = set(), set()
        for event in schedule:
            if event.kind == "crash":
                dead.update(event.workers)
            elif event.kind == "rejoin":
                dead.difference_update(event.workers)
            elif event.kind == "partition":
                island = set(event.groups[0])
            elif event.kind == "heal":
                island = set()
            alive = set(range(6)) - dead
            components = connected_components(
                alive,
                lambda i: [
                    j for j in topology.neighbors(i)
                    if j in alive and (i in island) == (j in island)
                ],
            )
            assert max((len(c) for c in components), default=0) >= 3

    def test_random_needs_three_workers(self):
        with pytest.raises(ConfigurationError, match=">= 3 workers"):
            FaultSchedule.random(2, 10, seed=0)

    def test_spec_roundtrip_scripted(self):
        schedule = FaultSchedule.scripted([
            FaultEvent(1, "crash", workers=(2,)),
            FaultEvent(4, "rejoin", workers=(2,)),
        ])
        again = FaultSchedule.from_spec(json.loads(schedule.to_json()))
        assert again.events == schedule.events

    def test_spec_random_block_regenerates(self):
        spec = {"random": {"num_workers": 6, "horizon": 50, "seed": 2,
                           "topology": "ring", "crash_rate": 0.05}}
        a = FaultSchedule.from_spec(spec)
        b = FaultSchedule.from_spec(spec)
        assert a.events == b.events and a.seed == 2

    def test_spec_requires_events_or_random(self):
        with pytest.raises(ConfigurationError, match="'events' list"):
            FaultSchedule.from_spec({})

    def test_load_schedule_json(self, tmp_path):
        path = tmp_path / "faults.json"
        schedule = FaultSchedule.scripted([FaultEvent(2, "heal")])
        path.write_text(schedule.to_json())
        assert load_schedule(path).events == schedule.events

    def test_load_schedule_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "faults.yaml"
        path.write_text(yaml.safe_dump(
            {"events": [{"round": 3, "kind": "crash", "workers": [1]}]}
        ))
        schedule = load_schedule(path)
        assert schedule.events == (FaultEvent(3, "crash", workers=(1,)),)

    def test_topology_names(self):
        assert _topology_by_name("complete", 5) is None
        assert _topology_by_name("ring", 5).num_edges == 5
        with pytest.raises(ConfigurationError, match="unknown topology"):
            _topology_by_name("torus", 5)


class TestChaosInjector:
    def test_rejects_protocols_without_recovery_api(self):
        class Bare:
            pass

        with pytest.raises(ConfigurationError, match="cannot be chaos-injected"):
            ChaosInjector(Bare(), FaultSchedule.scripted([]))

    def test_crash_and_rejoin_applied_once(self):
        protocol = MasterWorkerDolbie(4, link=LINK())
        schedule = FaultSchedule.scripted([
            FaultEvent(2, "crash", workers=(1,)),
            FaultEvent(3, "crash", workers=(1,)),  # already dead: skipped
            FaultEvent(4, "rejoin", workers=(1,)),
        ])
        injector = ChaosInjector(protocol, schedule)
        process = _process(4)
        for t in range(1, 5):
            injector.apply(t)
            protocol.run_round(t, process.costs_at(t))
        assert [e.kind for e in injector.applied] == ["crash", "rejoin"]
        assert protocol.roster == [0, 1, 2, 3]
        # The registry-backed tallies agree with the applied-event log
        # (they replaced the ad-hoc counters SoakReport used to rebuild).
        assert injector.events_applied == len(injector.applied)
        assert injector.event_counts == {"crash": 1, "rejoin": 1}

    def test_registry_tallies_match_applied_log(self):
        protocol = MasterWorkerDolbie(4, link=LINK())
        schedule = FaultSchedule.scripted([
            FaultEvent(1, "slowdown", workers=(2,), duration=1, severity=0.01),
            FaultEvent(2, "degrade", duration=1, severity=0.1),
            FaultEvent(2, "partition", groups=((2, 3),)),
            FaultEvent(3, "heal"),
            FaultEvent(3, "crash", workers=(0,)),
        ])
        injector = ChaosInjector(protocol, schedule)
        process = _process(4)
        for t in range(1, 4):
            injector.apply(t)
            protocol.run_round(t, process.costs_at(t))
        from collections import Counter as TallyCounter

        expected = dict(TallyCounter(e.kind for e in injector.applied))
        assert injector.event_counts == expected
        assert injector.events_applied == len(injector.applied)

    def test_slowdown_expires_and_restores_delay(self):
        protocol = MasterWorkerDolbie(4, link=LINK())
        schedule = FaultSchedule.scripted([
            FaultEvent(1, "slowdown", workers=(2,), duration=2, severity=0.01),
        ])
        injector = ChaosInjector(protocol, schedule)
        injector.apply(1)
        assert protocol.cluster._extra_delay[2] == pytest.approx(0.01)
        injector.apply(2)
        assert 2 in protocol.cluster._extra_delay
        injector.apply(3)  # duration 2 => expires at round 1 + 2
        assert 2 not in protocol.cluster._extra_delay

    def test_degrade_expires_and_clears_loss(self):
        protocol = MasterWorkerDolbie(4, link=LINK())
        schedule = FaultSchedule.scripted([
            FaultEvent(1, "degrade", duration=1, severity=0.2),
        ])
        injector = ChaosInjector(protocol, schedule)
        injector.apply(1)
        assert protocol.cluster._loss_override is not None
        injector.apply(2)
        assert protocol.cluster._loss_override is None

    def test_heal_rejoins_partitioned_mw_workers(self):
        protocol = MasterWorkerDolbie(4, link=LINK(), cost_timeout=0.05)
        schedule = FaultSchedule.scripted([
            FaultEvent(2, "partition", groups=((2, 3),)),
            FaultEvent(4, "heal"),
        ])
        injector = ChaosInjector(protocol, schedule)
        process = _process(4)
        for t in range(1, 5):
            injector.apply(t)
            protocol.run_round(t, process.costs_at(t))
        assert not protocol.cluster.partitioned
        assert protocol.roster == [0, 1, 2, 3]  # zombies re-admitted
        assert protocol.allocation.sum() == pytest.approx(1.0)


class TestInvariantChecker:
    def _clean_round(self):
        protocol = FullyDistributedDolbie(4, link=LINK())
        process = _process(4)
        observation = RoundObservation(protocol)
        _, local, global_cost, straggler = protocol.run_round(
            1, process.costs_at(1)
        )
        return protocol, observation, local, global_cost, straggler

    def test_healthy_round_has_no_violations(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        assert check_round_invariants(
            protocol, obs, 1, local, global_cost, straggler
        ) == []

    def test_corrupted_allocation_is_caught(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        protocol.peers[0].x += 0.25  # break the simplex
        violations = check_round_invariants(
            protocol, obs, 1, local, global_cost, straggler
        )
        assert any("sums to" in v for v in violations)

    def test_roster_disagreement_is_caught(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        # Rosters are shared frozensets (rebound, never mutated), so the
        # corruption must rebind this peer's reference.
        protocol.peers[2].roster = protocol.peers[2].roster - {0}
        violations = check_round_invariants(
            protocol, obs, 1, local, global_cost, straggler
        )
        assert any("roster" in v for v in violations)

    def test_stuck_clock_is_caught(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        stale = RoundObservation(protocol)  # post-round snapshot: no delta
        violations = check_round_invariants(
            protocol, stale, 2, local, global_cost, straggler
        )
        assert any("no events" in v for v in violations)

    def test_batched_failure_detection_is_clean(self):
        protocol = FullyDistributedDolbie(4, link=LINK())
        process = _process(4)
        protocol.run_round(1, process.costs_at(1))
        protocol.crash_worker(2)
        for t in (2, 3):
            observation = RoundObservation(protocol)
            _, local, global_cost, straggler = protocol.run_round(
                t, process.costs_at(t)
            )
            assert check_round_invariants(
                protocol, observation, t, local, global_cost, straggler
            ) == []
        assert (protocol.detect_rounds, protocol.fallback_rounds) == (1, 0)

    def test_batched_round_losing_a_live_worker_is_caught(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        protocol._stalled.add(3)  # off the roster, yet alive
        violations = check_round_invariants(
            protocol, obs, 1, local, global_cost, straggler
        )
        assert any("dropped worker 3" in v for v in violations)
        assert any("without live workers [3]" in v for v in violations)

    def test_batched_round_under_chaos_is_caught(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        protocol.cluster.set_extra_delay(1, 0.1)
        violations = check_round_invariants(
            protocol, obs, 1, local, global_cost, straggler
        )
        assert any("chaos hooks" in v for v in violations)

    def test_assert_raises_invariant_violation(self):
        protocol, obs, local, global_cost, straggler = self._clean_round()
        protocol.peers[0].x += 0.25
        with pytest.raises(InvariantViolation):
            assert_round_invariants(
                protocol, obs, 1, local, global_cost, straggler
            )


class TestSoakHarness:
    def test_soak_records_protocol_failure_as_violation(self):
        # Crashing the star center leaves no quorum: the soak must stop
        # and report, not hang or propagate.
        schedule = FaultSchedule.scripted([
            FaultEvent(3, "crash", workers=(0,)),
        ])
        report = run_soak(
            lambda: FullyDistributedDolbie(
                4, link=LINK(), topology=Topology.star(4)
            ),
            schedule, _process(4), 5,
        )
        assert not report.ok
        assert report.rounds_completed == 2
        assert any("primary component" in msg for _, msg in report.violations)

    def test_soak_raise_on_violation(self):
        schedule = FaultSchedule.scripted([
            FaultEvent(3, "crash", workers=(0,)),
        ])
        with pytest.raises(Exception, match="primary component"):
            run_soak(
                lambda: FullyDistributedDolbie(
                    4, link=LINK(), topology=Topology.star(4)
                ),
                schedule, _process(4), 5, raise_on_violation=True,
            )
