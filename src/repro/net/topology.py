"""Topology construction and path computation.

A :class:`Topology` owns the simulator, switches, hosts and links, assigns
port numbers, and computes breadth-first shortest paths for the traffic
steering application.

:func:`build_paper_topology` recreates the paper's experimental setup
(Section 6.1): two user hosts, two middlebox hosts and a DPI-service host,
all connected through a single switch.
"""

from __future__ import annotations

import itertools

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.host import Host, NetworkFunction
from repro.net.links import Link
from repro.net.simulator import Simulator
from repro.net.switch import Switch


class Topology:
    """A container wiring switches and hosts with links."""

    def __init__(self, simulator: Simulator | None = None) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self.switches: dict[str, Switch] = {}
        self.hosts: dict[str, Host] = {}
        self.links: list[Link] = []
        self._next_port: dict[str, itertools.count] = {}
        self._host_index = itertools.count()
        # node name -> {peer name -> local port}, peers in link order
        self._port_map: dict[str, dict[str, int]] = {}

    # --- construction ------------------------------------------------------

    def add_switch(self, name: str) -> Switch:
        """Create a named switch."""
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name: {name}")
        switch = Switch(self.simulator, name)
        self.switches[name] = switch
        self._next_port[name] = itertools.count(1)
        self._port_map[name] = {}
        return switch

    def add_host(
        self,
        name: str,
        function: NetworkFunction | None = None,
        ip: IPv4Address | None = None,
    ) -> Host:
        """Create a host with deterministic MAC/IP addresses."""
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name: {name}")
        index = next(self._host_index)
        host = Host(
            self.simulator,
            name,
            mac=MACAddress.from_index(index),
            ip=ip if ip is not None else IPv4Address.from_index(index),
            function=function,
        )
        self.hosts[name] = host
        self._next_port[name] = itertools.count(1)
        self._port_map[name] = {}
        return host

    def add_link(
        self,
        name_a: str,
        name_b: str,
        bandwidth_bps: float = Link.DEFAULT_BANDWIDTH_BPS,
        propagation_delay: float = Link.DEFAULT_PROPAGATION_DELAY,
    ) -> Link:
        """Wire two nodes with a new link, assigning ports."""
        node_a = self._node(name_a)
        node_b = self._node(name_b)
        port_a = next(self._next_port[name_a])
        port_b = next(self._next_port[name_b])
        link = Link(
            self.simulator,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation_delay,
        )
        node_a.attach_link(port_a, link)
        node_b.attach_link(port_b, link)
        link.attach(node_a, port_a, node_b, port_b)
        self.links.append(link)
        self._port_map[name_a][name_b] = port_a
        self._port_map[name_b][name_a] = port_b
        return link

    def _node(self, name: str):
        if name in self.switches:
            return self.switches[name]
        if name in self.hosts:
            return self.hosts[name]
        raise KeyError(f"unknown node: {name}")

    # --- queries -------------------------------------------------------------

    @property
    def adjacency(self) -> dict[str, dict[str, int]]:
        """Node name -> {linked peer: local port toward it}, in link order."""
        return self._port_map

    def port_toward(self, name: str, neighbor: str) -> int:
        """The local port on *name* that leads directly to *neighbor*."""
        try:
            return self._port_map[name][neighbor]
        except KeyError:
            raise KeyError(f"{name} has no direct link to {neighbor}") from None

    def link_between(self, name_a: str, name_b: str) -> Link:
        """The link directly connecting two named nodes (order-insensitive).

        Fault plans address links by endpoint pair; raises ``KeyError`` when
        the nodes are not directly wired.
        """
        node_a = self._node(name_a)
        node_b = self._node(name_b)
        for link in self.links:
            endpoints = {
                endpoint[0] for endpoint in link.endpoints() if endpoint
            }
            if node_a in endpoints and node_b in endpoints:
                return link
        raise KeyError(f"{name_a} has no direct link to {name_b}")

    def shortest_path(self, source: str, target: str) -> list[str]:
        """Node names along a shortest path (inclusive of endpoints).

        Breadth-first from *source*, peers in link order, so ties break
        the same way on every run.  An unknown node is a ``KeyError``; a
        target *source* cannot reach is a ``ValueError``.
        """
        self._node(source)
        self._node(target)
        previous: dict[str, str | None] = {source: None}
        frontier = [source]
        while frontier and target not in previous:
            reached = []
            for node in frontier:
                for peer in self._port_map[node]:
                    if peer not in previous:
                        previous[peer] = node
                        reached.append(peer)
            frontier = reached
        if target not in previous:
            raise ValueError(f"no path from {source} to {target}")
        path = [target]
        while (hop := previous[path[-1]]) is not None:
            path.append(hop)
        return path[::-1]

    def host_of_ip(self, ip: IPv4Address) -> Host | None:
        """The host owning an IP address, or None."""
        for host in self.hosts.values():
            if host.ip == ip:
                return host
        return None

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the simulator (convenience passthrough)."""
        return self.simulator.run(until=until, max_events=max_events)


def build_paper_topology(
    simulator: Simulator | None = None,
    middlebox_functions: dict[str, NetworkFunction] | None = None,
    dpi_function: NetworkFunction | None = None,
) -> Topology:
    """The paper's basic experimental topology (Section 6.1).

    Two user hosts (``user1``, ``user2``), two middlebox hosts (``mb1``,
    ``mb2``) and one DPI-service host (``dpi1``), all on a single switch
    (``s1``).  Functions for the middlebox/DPI hosts may be supplied; user
    hosts record what they receive.
    """
    topo = Topology(simulator)
    topo.add_switch("s1")
    topo.add_host("user1")
    topo.add_host("user2")
    functions = middlebox_functions or {}
    topo.add_host("mb1", function=functions.get("mb1"))
    topo.add_host("mb2", function=functions.get("mb2"))
    topo.add_host("dpi1", function=dpi_function)
    for name in ("user1", "user2", "mb1", "mb2", "dpi1"):
        topo.add_link("s1", name)
    return topo
