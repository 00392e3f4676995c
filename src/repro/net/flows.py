"""Flow identification helpers.

The DPI service keeps per-flow scan state (DFA state + byte offset) for
stateful middleboxes, keyed by the classic 5-tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address
from repro.net.packet import Packet


@dataclass(frozen=True, order=True, slots=True)
class FiveTuple:
    """The (src ip, dst ip, protocol, src port, dst port) flow key.

    A packet's key is looked up in the flow table, updated there and counted
    in the work table — four hashes of two address objects each — so the hash
    is computed once, when the key is made, and kept in a slot.
    """

    src_ip: IPv4Address
    dst_ip: IPv4Address
    protocol: int
    src_port: int
    dst_port: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash(
                (self.src_ip, self.dst_ip, self.protocol, self.src_port, self.dst_port)
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Address hashes are salted per process: a copy made elsewhere must
        # hash afresh, not carry this process's value.
        return (
            FiveTuple,
            (self.src_ip, self.dst_ip, self.protocol, self.src_port, self.dst_port),
        )

    @classmethod
    def of(cls, packet: Packet) -> "FiveTuple":
        """Extract the 5-tuple of a packet."""
        ip = packet.ip
        l4 = packet.l4
        return cls(ip.src, ip.dst, ip.protocol, l4.src_port, l4.dst_port)

    def reversed(self) -> "FiveTuple":
        """The key of the opposite direction of the same conversation."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def bidirectional_key(self) -> tuple:
        """A direction-agnostic key: both directions map to the same value."""
        forward = (
            int(self.src_ip),
            self.src_port,
            int(self.dst_ip),
            self.dst_port,
        )
        backward = (
            int(self.dst_ip),
            self.dst_port,
            int(self.src_ip),
            self.src_port,
        )
        return (self.protocol,) + min(forward, backward) + max(forward, backward)

    def __str__(self) -> str:
        proto = {6: "tcp", 17: "udp"}.get(self.protocol, str(self.protocol))
        return (
            f"{proto}:{self.src_ip}:{self.src_port}"
            f"->{self.dst_ip}:{self.dst_port}"
        )
