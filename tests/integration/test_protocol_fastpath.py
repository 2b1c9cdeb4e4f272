"""Integration tests for fast-path engagement and automatic fallback.

The batched round-synchronous fast path must run on every healthy
all-to-all round — and, for the fully-distributed protocol, on the
failure detection after a crash and the degraded rounds after it — and
hand control back to the event-engine reference under *every* condition
that changes observable behaviour: chaos hooks (partition, extra delay,
frame-loss override), dead master-worker workers, cost frames that could
miss the failure detectors' timeout, lossy or per-pair links, restricted
topologies, and the embedded master. Rounds executed either way must
splice into one bit-identical trajectory.
"""

import numpy as np
import pytest

from repro.costs.timevarying import RandomAffineProcess
from repro.exceptions import ProtocolError
from repro.net.links import ConstantLatency, Link, LogNormalLatency, UniformLatency
from repro.net.topology import Topology
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.protocols.master_worker import MasterWorkerDolbie

N = 6
HORIZON = 8


def _process(n=N, seed=42):
    return RandomAffineProcess(
        [1.0 + (i % 4) for i in range(n)], sigma=0.2, comm_scale=0.05, seed=seed
    )


def _link(seed=0):
    return Link(UniformLatency(0.0005, 0.005, np.random.default_rng(seed)))


class TestFastPathEngages:
    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_all_rounds_fast_when_healthy(self, protocol_cls):
        protocol = protocol_cls(N, link=_link())
        protocol.run(_process(), HORIZON)
        assert protocol.fast_rounds == HORIZON
        assert protocol.fallback_rounds == 0

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_opt_out_flag(self, protocol_cls):
        protocol = protocol_cls(N, link=_link(), use_fast_path=False)
        protocol.run(_process(), HORIZON)
        assert protocol.fast_rounds == 0
        assert protocol.fallback_rounds == HORIZON


def _run_rounds(protocol, process, first, last):
    for t in range(first, last + 1):
        protocol.run_round(t, process.costs_at(t))


class TestFallbackEngagesUnderEveryHook:
    """Each chaos hook / configuration must force the reference path."""

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_partition_hook(self, protocol_cls):
        protocol = protocol_cls(N, link=_link())
        process = _process()
        # A single all-inclusive group partitions nothing topologically,
        # but the hook is armed — the reference path must handle it.
        protocol.cluster.set_partition([protocol.cluster.node_ids])
        _run_rounds(protocol, process, 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3
        protocol.cluster.clear_partition()
        _run_rounds(protocol, process, 4, 6)
        assert protocol.fast_rounds == 3

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_extra_delay_hook(self, protocol_cls):
        protocol = protocol_cls(N, link=_link())
        process = _process()
        protocol.cluster.set_extra_delay(2, 0.25)
        _run_rounds(protocol, process, 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3
        protocol.cluster.set_extra_delay(2, 0.0)
        _run_rounds(protocol, process, 4, 6)
        assert protocol.fast_rounds == 3

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_frame_loss_hook_even_at_probability_zero(self, protocol_cls):
        protocol = protocol_cls(N, link=_link())
        process = _process()
        # p=0 drops nothing, yet the hook consumes one rng draw per frame
        # — skipping those draws would silently shift later streams.
        protocol.cluster.set_frame_loss(0.0, np.random.default_rng(1))
        _run_rounds(protocol, process, 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3
        protocol.cluster.clear_frame_loss()
        _run_rounds(protocol, process, 4, 6)
        assert protocol.fast_rounds == 3

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_dead_worker(self, protocol_cls):
        protocol = protocol_cls(N, link=_link())
        process = _process()
        _run_rounds(protocol, process, 1, 2)
        protocol.crash_worker(3)
        _run_rounds(protocol, process, 3, 5)
        if protocol_cls is FullyDistributedDolbie:
            # FD's failure detection (round 3) and the degraded rounds
            # the survivors agree on afterwards all run batched.
            assert protocol.fast_rounds == 5
            assert protocol.detect_rounds == 1
            assert protocol.fallback_rounds == 0
        else:
            assert protocol.fast_rounds == 2
            assert protocol.fallback_rounds == 3

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_lossy_default_link(self, protocol_cls):
        link = Link(
            ConstantLatency(0.001), loss_probability=0.05,
            loss_rng=np.random.default_rng(2),
        )
        protocol = protocol_cls(N, link=link)
        _run_rounds(protocol, _process(), 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_per_pair_link_override(self, protocol_cls):
        protocol = protocol_cls(N, link=_link())
        protocol.cluster.set_link(0, 1, Link(ConstantLatency(0.2)))
        _run_rounds(protocol, _process(), 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3

    def test_ring_topology_fd(self):
        protocol = FullyDistributedDolbie(
            N, link=_link(), topology=Topology.ring(N)
        )
        _run_rounds(protocol, _process(), 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3

    def test_embedded_master_mw(self):
        protocol = MasterWorkerDolbie(N, link=_link(), embedded_master=True)
        _run_rounds(protocol, _process(), 1, 3)
        assert protocol.fast_rounds == 0 and protocol.fallback_rounds == 3


def _crashed(link, fast=True):
    """Two healthy rounds, then worker 3 crashes before round 3."""
    protocol = FullyDistributedDolbie(N, link=link, use_fast_path=fast)
    process = _process()
    _run_rounds(protocol, process, 1, 2)
    protocol.crash_worker(3)
    return protocol, process


class TestDetectionLatencyGuard:
    """The batched detection round needs every cost frame to beat the
    failure detectors' timeout; otherwise the event engine runs it."""

    @pytest.mark.parametrize(
        "link",
        [
            Link(ConstantLatency(2.0)),
            # 0.5 s + 16 B at 256 bit/s ties the 1 s timeout exactly.
            Link(ConstantLatency(0.5), bandwidth_bps=256.0),
        ],
        ids=["slower-than-timeout", "bandwidth-tie"],
    )
    def test_late_costs_keep_the_event_engine_and_its_error(self, link):
        for fast in (False, True):
            protocol, process = _crashed(link, fast)
            with pytest.raises(ProtocolError, match="fewer than 2 peers"):
                _run_rounds(protocol, process, 3, 3)
        assert (protocol.detect_rounds, protocol.fallback_rounds) == (0, 1)

    def test_unbounded_latency_keeps_the_event_engine(self):
        link = Link(LogNormalLatency(0.002, 0.5, np.random.default_rng(0)))
        protocol, process = _crashed(link)
        _run_rounds(protocol, process, 3, 3)
        assert (protocol.detect_rounds, protocol.fallback_rounds) == (0, 1)
        # The survivors now agree on the degraded roster: batched again.
        _run_rounds(protocol, process, 4, 5)
        assert protocol.fast_rounds == 4

    def test_bounded_latency_detects_batched(self):
        protocol, process = _crashed(_link())
        _run_rounds(protocol, process, 3, 3)
        assert (protocol.detect_rounds, protocol.fallback_rounds) == (1, 0)
        assert sorted(protocol.peers[0].roster) == [0, 1, 2, 4, 5]

    def test_custom_view_timeout_keeps_the_event_engine(self):
        protocol, process = _crashed(_link())
        protocol.peers[1].cost_timeout = 0.5
        _run_rounds(protocol, process, 3, 3)
        assert (protocol.detect_rounds, protocol.fallback_rounds) == (0, 1)


class TestMidRunSwitchBitIdentity:
    """Toggling chaos hooks mid-run switches execution modes without
    perturbing the trajectory: the mixed run equals the pure event run."""

    @pytest.mark.parametrize("protocol_cls", [FullyDistributedDolbie, MasterWorkerDolbie])
    def test_mixed_modes_match_reference(self, protocol_cls):
        horizon = 12
        chaos_rounds = {4, 5, 9}  # extra delay armed for these rounds

        def drive(fast):
            protocol = protocol_cls(N, link=_link(), use_fast_path=fast)
            process = _process()
            trajectory = []
            for t in range(1, horizon + 1):
                if t in chaos_rounds:
                    protocol.cluster.set_extra_delay(1, 0.1)
                else:
                    protocol.cluster.set_extra_delay(1, 0.0)
                x, l, l_t, s_t = protocol.run_round(t, process.costs_at(t))
                trajectory.append((np.array(x), float(l_t), int(s_t)))
            return protocol, trajectory

        ref_protocol, reference = drive(fast=False)
        fast_protocol, mixed = drive(fast=True)
        assert fast_protocol.fast_rounds == horizon - len(chaos_rounds)
        assert fast_protocol.fallback_rounds == len(chaos_rounds)
        for (x_a, l_a, s_a), (x_b, l_b, s_b) in zip(reference, mixed):
            assert np.array_equal(x_a, x_b)
            assert l_a == l_b
            assert s_a == s_b
        assert (
            ref_protocol.metrics.messages_total
            == fast_protocol.metrics.messages_total
        )
        assert ref_protocol.metrics.bytes_total == fast_protocol.metrics.bytes_total
        assert ref_protocol.cluster.engine.now == fast_protocol.cluster.engine.now
