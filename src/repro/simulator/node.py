"""Network nodes: hosts (transport endpoints) and output-queued switches."""

from __future__ import annotations

from typing import Protocol

from .link import Link
from .packet import Packet

__all__ = ["PacketSink", "Node", "Host", "Switch"]


class PacketSink(Protocol):
    """Anything that can accept a delivered packet (e.g. a TCP connection)."""

    def receive(self, packet: Packet) -> None:
        """Consume one delivered packet."""
        ...


class Node:
    """Common behaviour: named, owns outgoing links keyed by neighbour and
    a destination-based routing table."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.links: dict[str, Link] = {}
        #: Destination host -> the outgoing link toward it.
        self._next_hop: dict[str, Link] = {}

    def attach_outgoing(self, neighbour: str, link: Link) -> None:
        """Register the outgoing link towards ``neighbour``."""
        if neighbour in self.links:
            raise ValueError(f"{self.name}: link to {neighbour} already attached")
        self.links[neighbour] = link

    def set_route(self, dst: str, neighbour: str) -> None:
        """Packets for host ``dst`` leave over the link to ``neighbour``."""
        link = self.links.get(neighbour)
        if link is None:
            raise ValueError(f"{self.name}: no link to {neighbour}")
        self._next_hop[dst] = link

    def receive_packet(self, packet: Packet) -> None:
        """Handle a packet arriving at this node (terminate or forward)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """End host: sources packets from transports, demuxes arrivals by flow."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._flows: dict[str, PacketSink] = {}

    def register_flow(self, flow_id: str, sink: PacketSink) -> None:
        """Demux arriving packets of ``flow_id`` to ``sink``."""
        if flow_id in self._flows:
            raise ValueError(f"{self.name}: flow {flow_id} already registered")
        self._flows[flow_id] = sink

    def flow_sink(self, flow_id: str) -> PacketSink:
        """The registered sink of ``flow_id`` (used by fault injectors to
        find a flow's transport endpoint, e.g. for a restart resync)."""
        try:
            return self._flows[flow_id]
        except KeyError:
            raise KeyError(
                f"{self.name}: no flow {flow_id!r} registered; flows: "
                f"{sorted(self._flows)}"
            ) from None

    def send(self, packet: Packet) -> None:
        """Emit a locally generated packet toward its destination."""
        link = self._next_hop.get(packet.dst)
        if link is None:
            raise RuntimeError(f"{self.name}: no route to {packet.dst}")
        link.send(packet)

    def receive_packet(self, packet: Packet) -> None:
        """Handle a packet that terminated at this host."""
        sink = self._flows.get(packet.flow_id)
        if sink is None:
            raise RuntimeError(
                f"{self.name}: no flow {packet.flow_id!r} registered for {packet!r}"
            )
        sink.receive(packet)


class Switch(Node):
    """Output-queued switch with static destination-based forwarding."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.packets_forwarded = 0

    def receive_packet(self, packet: Packet) -> None:
        """Forward a transiting packet toward its destination host."""
        link = self._next_hop.get(packet.dst)
        if link is None:
            raise RuntimeError(f"{self.name}: no route to {packet.dst}")
        self.packets_forwarded += 1
        link.send(packet)
