"""SIMPLE-style Traffic Steering Application (TSA).

The TSA owns *policy chains* — ordered sequences of middlebox **types** a
traffic class must traverse (paper Figure 5).  It resolves each type to a
physical middlebox host, allocates a VLAN tag block per chain, and
proactively installs OpenFlow rules so that tagged packets hop
middlebox-to-middlebox before the tag is popped and the packet is delivered
to its destination.

Tagging follows SIMPLE's scheme: the tag encodes chain **and position**.
A chain with base identifier ``c`` uses tag ``c + k`` on the path segment
*into* hop *k*; the rule at a middlebox's egress port bumps the tag to
``c + k + 1``.  Per-segment tags make (in-port, tag) keys unique even when
two segments of one chain traverse the same link in the same direction —
the case where a single per-chain tag forwards in circles.

The tag a DPI service instance reads is therefore ``c + position-of-dpi``
(Section 4.1's policy-chain identifier); the DPI controller accounts for
this when it distributes chain-to-middlebox mappings.

The DPI controller negotiates with the TSA to rewrite chains so that a DPI
service instance is visited before any middlebox that needs scan results
(Figure 1(b)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Protocol

from repro.net.controller import SDNController
from repro.net.openflow import ActionType, FlowAction, FlowMatch
from repro.net.topology import Topology
from repro.validation import raise_on_errors, validate_chains


@dataclass
class PolicyChain:
    """An ordered list of middlebox types, e.g. ``("fw", "dpi", "ids")``."""

    name: str
    middlebox_types: tuple[str, ...]
    chain_id: int | None = None

    def with_service_before(self, service_type: str, before_type: str) -> "PolicyChain":
        """A copy with *service_type* inserted before *before_type*."""
        if service_type in self.middlebox_types:
            return self
        types = list(self.middlebox_types)
        try:
            index = types.index(before_type)
        except ValueError:
            raise KeyError(
                f"chain {self.name!r} has no middlebox of type {before_type!r}"
            ) from None
        types.insert(index, service_type)
        return replace(self, middlebox_types=tuple(types))

    def without_types(self, types_to_drop: set[str]) -> "PolicyChain":
        """A copy with every type in *types_to_drop* removed."""
        kept = tuple(t for t in self.middlebox_types if t not in types_to_drop)
        return replace(self, middlebox_types=kept)


@dataclass
class TrafficAssignment:
    """Binds a traffic class (src -> dst, optional L3/L4 fields) to a chain."""

    src_host: str
    dst_host: str
    chain_name: str
    ip_proto: int | None = None
    dst_port: int | None = None


@dataclass
class RealizedChain:
    """A chain after physical resolution: concrete host names, in order."""

    chain: PolicyChain
    hop_hosts: tuple[str, ...]


class ChainListener(Protocol):
    """Anything notified when the policy-chain set changes.

    This is the channel through which the DPI controller receives the
    policy chains (paper Section 4.1).
    """

    def policy_chains_changed(self, chains: "dict[str, PolicyChain]") -> None:
        """Called with the full chain map after every update."""
        ...


class TrafficSteeringApplication:
    """Computes and installs the steering rules for all policy chains."""

    CHAIN_PRIORITY = 200
    INGRESS_PRIORITY = 300
    HOST_ROUTE_PRIORITY = 50
    FIRST_CHAIN_ID = 100
    #: Tag block per chain: base id + segment index; bounds chain length.
    CHAIN_ID_STRIDE = 16

    def __init__(self, controller: SDNController, topology: Topology) -> None:
        self.controller = controller
        self.topology = topology
        self._chain_ids = itertools.count(
            self.FIRST_CHAIN_ID, self.CHAIN_ID_STRIDE
        )
        self.chains: dict[str, PolicyChain] = {}
        self.assignments: list[TrafficAssignment] = []
        # middlebox type -> list of host names offering it
        self._instances: dict[str, list[str]] = {}
        self._round_robin: dict[str, itertools.cycle] = {}
        self.realized: dict[str, RealizedChain] = {}
        self._chain_listeners: list[ChainListener] = []
        # (switch, in-port, tag) keys of rules already installed.
        self._installed_rules: set[tuple[str, int, int]] = set()
        self._host_routes_installed = False
        controller.register_application(self)

    # --- telemetry --------------------------------------------------------

    def _telemetry_registry(self):
        """The attached telemetry hub's registry, or None."""
        hub = self.topology.simulator.telemetry
        return None if hub is None else hub.registry

    def _install(self, switch_name, match, actions, priority):
        """Install one rule via the SDN controller, counting it."""
        registry = self._telemetry_registry()
        if registry is not None:
            registry.counter("tsa_rules_installed_total").inc()
        return self.controller.install(
            switch_name, match, actions, priority=priority
        )

    # --- registration -----------------------------------------------------

    def register_middlebox_instance(self, middlebox_type: str, host_name: str) -> None:
        """Declare that *host_name* offers middlebox *middlebox_type*."""
        if host_name not in self.topology.hosts:
            raise KeyError(f"unknown host: {host_name}")
        self._instances.setdefault(middlebox_type, [])
        if host_name not in self._instances[middlebox_type]:
            self._instances[middlebox_type].append(host_name)
            self._round_robin[middlebox_type] = itertools.cycle(
                self._instances[middlebox_type]
            )

    def instances_of(self, middlebox_type: str) -> list[str]:
        """Host names registered for a middlebox type."""
        return list(self._instances.get(middlebox_type, []))

    def add_policy_chain(self, chain: PolicyChain) -> PolicyChain:
        """Register a chain and allocate its tag block (base VLAN tag)."""
        if chain.name in self.chains:
            raise ValueError(f"duplicate chain name: {chain.name}")
        self._check_chain_length(chain.middlebox_types)
        if chain.chain_id is None:
            chain = replace(chain, chain_id=next(self._chain_ids))
        self.chains[chain.name] = chain
        registry = self._telemetry_registry()
        if registry is not None:
            registry.gauge_callback("tsa_chains", lambda: len(self.chains))
        self._notify_chain_listeners()
        return chain

    def _check_chain_length(self, middlebox_types) -> None:
        # Segments = hops + the final one into the destination.
        if len(middlebox_types) + 1 >= self.CHAIN_ID_STRIDE:
            raise ValueError(
                f"chain too long: {len(middlebox_types)} middleboxes exceed "
                f"the {self.CHAIN_ID_STRIDE - 2}-hop tag block"
            )

    def add_chain_listener(self, listener: ChainListener) -> None:
        """*listener.policy_chains_changed(chains)* is called on updates.

        This is the channel through which the DPI controller receives the
        policy chains (paper Section 4.1).
        """
        self._chain_listeners.append(listener)
        listener.policy_chains_changed(dict(self.chains))

    def _notify_chain_listeners(self) -> None:
        for listener in self._chain_listeners:
            listener.policy_chains_changed(dict(self.chains))

    def rewrite_chain(self, chain_name: str, new_types: tuple[str, ...]) -> PolicyChain:
        """Replace the middlebox-type sequence of an existing chain.

        Used by the DPI controller to insert the DPI service.  The chain
        keeps its identifier so in-flight classification stays valid.
        """
        self._check_chain_length(new_types)
        old = self.chains[chain_name]
        updated = replace(old, middlebox_types=new_types)
        self.chains[chain_name] = updated
        self._notify_chain_listeners()
        return updated

    def assign_traffic(self, assignment: TrafficAssignment) -> None:
        """Bind a traffic class to a policy chain."""
        if assignment.chain_name not in self.chains:
            raise KeyError(f"unknown chain: {assignment.chain_name}")
        self.assignments.append(assignment)

    # --- realization -----------------------------------------------------------

    def resolve_chain(self, chain: PolicyChain) -> RealizedChain:
        """Pick a physical host for every middlebox type in the chain.

        Per-segment tags disambiguate position, so a host may legitimately
        appear at several hops of the same chain.
        """
        hops = []
        for middlebox_type in chain.middlebox_types:
            instances = self._instances.get(middlebox_type)
            if not instances:
                raise KeyError(
                    f"no registered instance for middlebox type {middlebox_type!r}"
                )
            hops.append(next(self._round_robin[middlebox_type]))
        return RealizedChain(chain=chain, hop_hosts=tuple(hops))

    @staticmethod
    def segment_tag(chain: PolicyChain, segment: int) -> int:
        """The VLAN tag on the path *into* hop *segment* (0-based)."""
        return chain.chain_id + segment

    def realize(self, validate: bool = True) -> None:
        """Compute and install every rule: host routes, ingress classifiers
        and per-hop chain forwarding.

        With ``validate=True`` (the default) the chains and assignments
        are statically checked first
        (:func:`repro.validation.validate_chains`); error-grade
        issues raise :class:`~repro.validation.ValidationError`
        *before* any rule is installed, so a misconfigured chain cannot
        leave a switch half-programmed.
        """
        if validate:
            raise_on_errors(validate_chains(self))
        self._install_host_routes()
        for assignment in self.assignments:
            chain = self.chains[assignment.chain_name]
            realized = self.realized.get(chain.name)
            if realized is None or realized.chain is not chain:
                realized = self.resolve_chain(chain)
                self.realized[chain.name] = realized
            self._install_assignment(assignment, realized)

    def _install_host_routes(self) -> None:
        """Shortest-path delivery for untagged unicast traffic to each host."""
        if self._host_routes_installed:
            return
        self._host_routes_installed = True
        for host_name, host in self.topology.hosts.items():
            for switch_name in self.topology.switches:
                path = self.topology.shortest_path(switch_name, host_name)
                next_hop = path[1]
                out_port = self.topology.port_toward(switch_name, next_hop)
                self._install(
                    switch_name,
                    FlowMatch(eth_dst=host.mac, vlan_vid=FlowMatch.NO_VLAN),
                    [FlowAction.output(out_port)],
                    priority=self.HOST_ROUTE_PRIORITY,
                )

    def _install_assignment(
        self, assignment: TrafficAssignment, realized: RealizedChain
    ) -> None:
        chain = realized.chain
        hops = list(realized.hop_hosts)
        if not hops:
            # Empty chain: untagged host routes already deliver the traffic.
            return
        self._install_ingress(assignment, chain, hops[0])
        # Segment k+1 leaves hop k; the rule at the hop's egress bumps the
        # tag from c+k to c+k+1 (the final segment pops instead).
        waypoints = hops + [assignment.dst_host]
        for k in range(len(hops)):
            self._install_bumped_segment(
                chain,
                segment=k + 1,
                from_host=waypoints[k],
                to_host=waypoints[k + 1],
                final=(k == len(hops) - 1),
            )

    def _install_ingress(
        self, assignment: TrafficAssignment, chain: PolicyChain, first_hop: str
    ) -> None:
        """Classify at the switch adjacent to the source host: push tag
        ``c+0`` and forward toward hop 0."""
        src = assignment.src_host
        path = self.topology.shortest_path(src, first_hop)
        ingress_switch = path[1]
        in_port = self.topology.port_toward(ingress_switch, src)
        src_host = self.topology.hosts[src]
        match = FlowMatch(
            in_port=in_port,
            eth_src=src_host.mac,
            vlan_vid=FlowMatch.NO_VLAN,
            ip_proto=assignment.ip_proto,
            dst_port=assignment.dst_port,
        )
        tag = self.segment_tag(chain, 0)
        actions = [FlowAction.push_vlan(tag)]
        actions += self._forward_actions(ingress_switch, path[1:], final=False)
        self._install(
            ingress_switch, match, actions, priority=self.INGRESS_PRIORITY
        )
        # Remaining switches on the way to the first hop:
        self._install_tagged_path(tag, path, skip_first_switch=True, final=False)

    def _install_bumped_segment(
        self,
        chain: PolicyChain,
        segment: int,
        from_host: str,
        to_host: str,
        final: bool,
    ) -> None:
        """Steer packets re-entering from *from_host* toward *to_host*.

        The first switch matches the previous segment's tag and rewrites it
        to this segment's (or pops it when it is also the last switch before
        the destination).
        """
        old_tag = self.segment_tag(chain, segment - 1)
        new_tag = self.segment_tag(chain, segment)
        path = self.topology.shortest_path(from_host, to_host)
        first_switch = path[1]
        in_port = self.topology.port_toward(first_switch, from_host)
        rule_key = (first_switch, in_port, old_tag)
        if rule_key not in self._installed_rules:
            self._installed_rules.add(rule_key)
            match = FlowMatch(in_port=in_port, vlan_vid=old_tag)
            out_port = self.topology.port_toward(first_switch, path[2])
            if final and path[2] == to_host:
                actions = [FlowAction.pop_vlan(), FlowAction.output(out_port)]
            else:
                actions = [
                    FlowAction.set_vlan_vid(new_tag),
                    FlowAction.output(out_port),
                ]
            self._install(
                first_switch, match, actions, priority=self.CHAIN_PRIORITY
            )
        self._install_tagged_path(new_tag, path, skip_first_switch=True, final=final)

    def _install_tagged_path(
        self, tag: int, path: list[str], skip_first_switch: bool, final: bool
    ) -> None:
        """Install (tag, in-port) -> output rules along *path*.

        *path* runs node-to-node (host or switch endpoints); rules are only
        installed on the switch nodes.
        """
        for index in range(1, len(path) - 1):
            node = path[index]
            if node not in self.topology.switches:
                continue
            if skip_first_switch and index == 1:
                continue
            in_port = self.topology.port_toward(node, path[index - 1])
            rule_key = (node, in_port, tag)
            if rule_key in self._installed_rules:
                continue
            self._installed_rules.add(rule_key)
            match = FlowMatch(in_port=in_port, vlan_vid=tag)
            actions = self._forward_actions(node, path[index:], final=final)
            self._install(
                node, match, actions, priority=self.CHAIN_PRIORITY
            )

    def _forward_actions(
        self, switch_name: str, remaining_path: list[str], final: bool
    ) -> list[FlowAction]:
        """Output action (plus tag pop when delivering to the destination)."""
        next_node = remaining_path[1]
        out_port = self.topology.port_toward(switch_name, next_node)
        actions: list[FlowAction] = []
        if final and next_node in self.topology.hosts:
            actions.append(FlowAction.pop_vlan())
        actions.append(FlowAction.output(out_port))
        return actions

    # --- failover re-steering (fault recovery) ------------------------------

    def resteer_chain(
        self, chain_name: str, replacement_hops: "dict[str, str | None]"
    ) -> RealizedChain:
        """Re-steer a realized chain around failed hop hosts.

        ``replacement_hops`` maps a host currently on the chain's realized
        path to its substitute (e.g. a crashed DPI instance's host -> a
        surviving instance's host), or to ``None`` to drop the hop from the
        path entirely (graceful degradation: middleboxes scan locally, so
        the DPI hop is bypassed).  Every rule in the chain's tag block —
        ingress classifiers, per-segment forwarding, and flow pins — is
        removed from the switches and reinstalled against the new path, so
        packets already steered keep a consistent rule set and new packets
        never see the failed hop.  Returns the updated realization.
        """
        realized = self.realized.get(chain_name)
        if realized is None:
            raise KeyError(f"chain {chain_name!r} has not been realized")
        chain = realized.chain
        for original in replacement_hops:
            if original not in realized.hop_hosts:
                raise KeyError(
                    f"{original!r} is not a hop of chain {chain_name!r}"
                )
        new_hops = tuple(
            replacement_hops.get(hop, hop)
            for hop in realized.hop_hosts
            if replacement_hops.get(hop, hop) is not None
        )
        return self.reinstall_chain(chain_name, new_hops)

    def reinstall_chain(
        self, chain_name: str, hop_hosts: "tuple[str, ...]"
    ) -> RealizedChain:
        """Replace a realized chain's hop hosts and rebuild its rules.

        The low-level half of :meth:`resteer_chain`; also used directly to
        *reattach* a chain to its original path once a failed hop recovers
        (the original hop list cannot be expressed as a replacement map
        when degradation removed the hop entirely).
        """
        realized = self.realized.get(chain_name)
        if realized is None:
            raise KeyError(f"chain {chain_name!r} has not been realized")
        chain = realized.chain
        self._remove_chain_rules(chain)
        updated = RealizedChain(chain=chain, hop_hosts=tuple(hop_hosts))
        self.realized[chain_name] = updated
        for assignment in self.assignments:
            if assignment.chain_name == chain_name:
                self._install_assignment(assignment, updated)
        registry = self._telemetry_registry()
        if registry is not None:
            registry.counter("tsa_resteers_total").inc()
        return updated

    def _remove_chain_rules(self, chain: PolicyChain) -> int:
        """Uninstall every switch rule referencing the chain's tag block."""
        tags = range(chain.chain_id, chain.chain_id + self.CHAIN_ID_STRIDE)

        def references_chain(entry) -> bool:
            vid = entry.match.vlan_vid
            if vid is not None and vid in tags:
                return True
            return any(
                action.type
                in (ActionType.PUSH_VLAN, ActionType.SET_VLAN_VID)
                and action.argument in tags
                for action in entry.actions
            )

        removed = 0
        for switch in self.topology.switches.values():
            removed += switch.flow_remove(references_chain)
        self._installed_rules = {
            key for key in sorted(self._installed_rules) if key[2] not in tags
        }
        return removed

    # --- per-flow repinning (DPI flow migration, Section 4.3) ----------------

    FLOW_PIN_PRIORITY = 400

    def pin_flow(
        self,
        chain_name: str,
        src_host: str,
        five_tuple,
        replacement_hops: dict[str, str],
    ) -> "list[tuple[str, object]]":
        """Steer one flow of an assigned chain through substitute hops.

        ``replacement_hops`` maps a host name on the chain's realized path
        to the host that should serve this flow instead (e.g. the stressed
        DPI instance's host -> the dedicated instance's host).  Rules are
        installed at :data:`FLOW_PIN_PRIORITY`, above the chain's generic
        rules, matching the flow's 5-tuple at the ingress; the tagged
        per-hop rules for the substitute hosts are shared with any other
        pinned flow of the same chain.

        Returns the installed ingress entries (so a caller can remove them
        when the migration is rolled back).
        """
        realized = self.realized.get(chain_name)
        if realized is None:
            raise KeyError(f"chain {chain_name!r} has not been realized")
        chain = realized.chain
        for original in replacement_hops:
            if original not in realized.hop_hosts:
                raise KeyError(
                    f"{original!r} is not a hop of chain {chain_name!r}"
                )
        new_hops = tuple(
            replacement_hops.get(hop, hop) for hop in realized.hop_hosts
        )
        assignment = next(
            (
                a
                for a in self.assignments
                if a.chain_name == chain_name and a.src_host == src_host
            ),
            None,
        )
        if assignment is None:
            raise KeyError(
                f"no assignment of chain {chain_name!r} from {src_host!r}"
            )
        registry = self._telemetry_registry()
        if registry is not None:
            registry.counter("tsa_flow_pins_total").inc()
        installed = [
            self._install_flow_ingress(chain, src_host, new_hops[0], five_tuple)
        ]
        waypoints = list(new_hops) + [assignment.dst_host]
        for k in range(len(new_hops)):
            self._install_bumped_segment(
                chain,
                segment=k + 1,
                from_host=waypoints[k],
                to_host=waypoints[k + 1],
                final=(k == len(new_hops) - 1),
            )
        return installed

    def _install_flow_ingress(
        self, chain: PolicyChain, src: str, first_hop: str, five_tuple
    ) -> "tuple[str, object]":
        path = self.topology.shortest_path(src, first_hop)
        ingress_switch = path[1]
        in_port = self.topology.port_toward(ingress_switch, src)
        match = FlowMatch(
            in_port=in_port,
            vlan_vid=FlowMatch.NO_VLAN,
            ip_src=five_tuple.src_ip,
            ip_dst=five_tuple.dst_ip,
            ip_proto=five_tuple.protocol,
            src_port=five_tuple.src_port,
            dst_port=five_tuple.dst_port,
        )
        tag = self.segment_tag(chain, 0)
        actions = [FlowAction.push_vlan(tag)]
        actions += self._forward_actions(ingress_switch, path[1:], final=False)
        entry = self._install(
            ingress_switch, match, actions, priority=self.FLOW_PIN_PRIORITY
        )
        self._install_tagged_path(tag, path, skip_first_switch=True, final=False)
        return (ingress_switch, entry)

    def unpin_flow(self, installed: "list[tuple[str, object]]") -> int:
        """Remove the ingress entries returned by :meth:`pin_flow`."""
        removed = 0
        for switch_name, entry in installed:
            switch = self.topology.switches[switch_name]
            if switch.table.remove(entry.entry_id):
                removed += 1
        return removed

    # --- packet-in (proactive app: never consumes events) ------------------

    def handle_packet_in(self, switch, packet, in_port) -> bool:
        """Packet-in hook (proactive app: never consumes events)."""
        return False
