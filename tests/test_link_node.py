"""Tests for links (serialization, propagation, loss) and nodes."""

import numpy as np
import pytest

from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Host, Switch
from repro.simulator.packet import ACK_SIZE_BYTES, DATA_HEADER_BYTES, Packet
from repro.simulator.queues import DropTailQueue
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.mltcp import MLTCPReno
from repro.workloads.job import JobSpec


def data_packet(seq=0, dst="r", flow="f"):
    return Packet(
        flow_id=flow, src="s", dst=dst, is_ack=False, seq=seq, payload_bytes=1460
    )


class TestPacket:
    def test_data_wire_size_includes_headers(self):
        assert data_packet().size_bytes == 1460 + DATA_HEADER_BYTES

    def test_ack_wire_size(self):
        ack = Packet(flow_id="f", src="r", dst="s", is_ack=True, seq=5, payload_bytes=0)
        assert ack.size_bytes == ACK_SIZE_BYTES

    def test_ack_with_payload_rejected(self):
        with pytest.raises(ValueError, match="ACK"):
            Packet(flow_id="f", src="r", dst="s", is_ack=True, seq=5, payload_bytes=10)

    def test_data_without_payload_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            Packet(flow_id="f", src="s", dst="r", is_ack=False, seq=0, payload_bytes=0)

    def test_unique_uids(self):
        assert data_packet().uid != data_packet().uid


class TestLinkTiming:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", rate_bps=1e6, delay=0.01)
        link.connect(lambda p: arrivals.append(sim.now))
        packet = data_packet()
        link.send(packet)
        sim.run()
        expected = packet.size_bits / 1e6 + 0.01
        assert arrivals == [pytest.approx(expected)]

    def test_back_to_back_serialization(self):
        """Second packet waits for the first to serialize (not propagate)."""
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", rate_bps=1e6, delay=0.01)
        link.connect(lambda p: arrivals.append(sim.now))
        p1, p2 = data_packet(0), data_packet(1)
        link.send(p1)
        link.send(p2)
        sim.run()
        tx = p1.size_bits / 1e6
        assert arrivals[0] == pytest.approx(tx + 0.01)
        assert arrivals[1] == pytest.approx(2 * tx + 0.01)

    def test_queue_overflow_drops(self):
        sim = Simulator()
        received = []
        link = Link(sim, "l", rate_bps=1e3, delay=0.0, queue=DropTailQueue(2))
        link.connect(lambda p: received.append(p.seq))
        for i in range(10):
            link.send(data_packet(i))
        sim.run()
        # One in transmission + 2 buffered = 3 delivered.
        assert len(received) == 3
        assert link.queue.drops == 7

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay=0.0)
        link.connect(lambda p: None)
        packet = data_packet()
        link.send(packet)
        sim.run()
        assert link.packets_sent == 1
        assert link.bits_sent == packet.size_bits
        assert link.mean_rate_bps(1.0) == packet.size_bits

    def test_random_loss_drops_fraction(self):
        sim = Simulator()
        received = []
        link = Link(
            sim,
            "l",
            rate_bps=1e9,
            delay=0.0,
            queue=DropTailQueue(10_000),
            random_loss=0.3,
            loss_rng=np.random.default_rng(0),
        )
        link.connect(lambda p: received.append(p))
        for i in range(2000):
            link.send(data_packet(i))
        sim.run()
        assert 0.25 < link.random_drops / 2000 < 0.35
        assert len(received) == 2000 - link.random_drops

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay=0.0)
        with pytest.raises(RuntimeError, match="no receiver"):
            link.send(data_packet())

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="rate"):
            Link(sim, "l", rate_bps=0.0, delay=0.0)
        with pytest.raises(ValueError, match="delay"):
            Link(sim, "l", rate_bps=1.0, delay=-1.0)
        with pytest.raises(ValueError, match="random_loss"):
            Link(sim, "l", rate_bps=1.0, delay=0.0, random_loss=1.0)


class TestHost:
    def test_demux_by_flow_id(self):
        host = Host("h")
        seen = []

        class Sink:
            def __init__(self, tag):
                self.tag = tag

            def receive(self, packet):
                seen.append((self.tag, packet.seq))

        host.register_flow("a", Sink("a"))
        host.register_flow("b", Sink("b"))
        host.receive_packet(data_packet(1, flow="b"))
        host.receive_packet(data_packet(2, flow="a"))
        assert seen == [("b", 1), ("a", 2)]

    def test_unknown_flow_raises(self):
        with pytest.raises(RuntimeError, match="no flow"):
            Host("h").receive_packet(data_packet())

    def test_duplicate_flow_rejected(self):
        host = Host("h")

        class Sink:
            def receive(self, packet):
                pass

        host.register_flow("a", Sink())
        with pytest.raises(ValueError, match="already registered"):
            host.register_flow("a", Sink())

    def test_send_without_route_raises(self):
        with pytest.raises(RuntimeError, match="no route"):
            Host("h").send(data_packet())


class TestSwitch:
    def test_forwards_by_destination(self):
        sim = Simulator()
        switch = Switch("sw")
        delivered = []
        link = Link(sim, "sw->r", rate_bps=1e9, delay=0.0)
        link.connect(lambda p: delivered.append(p.seq))
        switch.attach_outgoing("r", link)
        switch.set_route("r", "r")
        switch.receive_packet(data_packet(7, dst="r"))
        sim.run()
        assert delivered == [7]
        assert switch.packets_forwarded == 1

    def test_missing_route_raises(self):
        with pytest.raises(RuntimeError, match="no route"):
            Switch("sw").receive_packet(data_packet())

    def test_route_to_unattached_neighbour_rejected(self):
        with pytest.raises(ValueError, match="no link"):
            Switch("sw").set_route("r", "ghost")
        with pytest.raises(ValueError, match="no link"):
            Host("h").set_route("r", "ghost")

    def test_rerouting_switches_the_outgoing_link(self):
        sim = Simulator()
        switch = Switch("sw")
        delivered = []
        for neighbour in ("a", "b"):
            link = Link(sim, f"sw->{neighbour}", rate_bps=1e9, delay=0.0)
            link.connect(lambda p, n=neighbour: delivered.append((n, p.seq)))
            switch.attach_outgoing(neighbour, link)
        switch.set_route("r", "a")
        switch.receive_packet(data_packet(1, dst="r"))
        switch.set_route("r", "b")
        switch.receive_packet(data_packet(2, dst="r"))
        sim.run()
        assert delivered == [("a", 1), ("b", 2)]


class TestEventEconomy:
    """A FIFO link costs one engine event per packet: its delivery."""

    def test_back_to_back_burst_is_one_event_per_packet(self):
        sim = Simulator()
        received = []
        link = Link(sim, "l", rate_bps=1e6, delay=0.01)
        link.connect(lambda p: received.append(p.seq))
        for i in range(50):
            link.send(data_packet(i))
        sim.run(until=1.0)
        assert received == list(range(50))
        assert sim.events_processed == 50
        assert link.conservation_delta() == 0
        assert sim.pending_events() == 0

    def test_packet_run_spends_events_only_on_hops_and_timers(self, monkeypatch):
        timers = {"app": 0, "rto": 0, "delack": 0}

        def counting(cls, name, key):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                timers[key] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        # App phases are counted when scheduled (an upper bound on the ones
        # that fire); transport timers when they fire, since every ACK
        # re-arms and cancels the RTO.
        counting(TrainingApp, "_schedule_epoch", "app")
        counting(TcpSender, "_on_rto", "rto")
        counting(TcpReceiver, "_on_delack_timeout", "delack")
        template = JobSpec(
            "Job", comm_bits=2e6, demand_gbps=1.0, compute_time=0.005,
            jitter_sigma=0.0005,
        )
        lab = run_packet_jobs(
            [template.with_name("Job1"), template.with_name("Job2")],
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=6,
            until=0.05,
            seed=2,
        )
        links = lab.network.links.values()
        hops = sum(link.packets_sent for link in links)
        assert hops > 1000
        assert timers["app"] > 0
        assert lab.sim.events_processed <= hops + sum(timers.values())
        for link in links:
            assert link.conservation_delta() == 0, link.name
