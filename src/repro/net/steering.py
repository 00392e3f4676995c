"""SIMPLE-style Traffic Steering Application (TSA).

The TSA owns *policy chains* — ordered sequences of middlebox **types** a
traffic class must traverse (paper Figure 5).  It resolves each type to a
physical middlebox host, allocates a VLAN tag block per chain, and
proactively installs OpenFlow rules so that tagged packets hop
middlebox-to-middlebox before the tag is popped and the packet is delivered
to its destination.  The rules are a pure function of the realized chains,
assignments and flow pins (:func:`compile_rules`); every method that changes
one of those ends in ``sync``, which makes the switches hold exactly them.

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
from collections import Counter
from dataclasses import dataclass, replace
from typing import Protocol

from repro.net.controller import SDNController
from repro.net.openflow import FlowAction, FlowEntry, FlowMatch
from repro.net.topology import Topology
from repro.validation import raise_on_errors, validate_chains

HOST_ROUTE_PRIORITY = 50
CHAIN_PRIORITY = 200
INGRESS_PRIORITY = 300
FLOW_PIN_PRIORITY = 400
#: The priorities whose entries the TSA owns; :meth:`sync` leaves others.
STEERING_PRIORITIES = frozenset(
    {HOST_ROUTE_PRIORITY, CHAIN_PRIORITY, INGRESS_PRIORITY, FLOW_PIN_PRIORITY}
)

#: One compiled rule: ``(priority, match, actions)``.
Rule = tuple[int, FlowMatch, tuple[FlowAction, ...]]


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


@dataclass
class FlowPin:
    """One flow of an assignment steered through substitute hops.

    ``replacement_hops`` maps a hop host of the chain's realization to the
    host that serves this flow instead; it is applied to whatever the chain
    is realized as when the rules are compiled, so a re-steer keeps the pin.
    """

    assignment: TrafficAssignment
    five_tuple: object
    replacement_hops: dict[str, str]


def compile_rules(
    topology: Topology,
    realized: "dict[str, RealizedChain]",
    assignments: "list[TrafficAssignment]",
    pins: "list[FlowPin]",
) -> "dict[str, list[Rule]]":
    """Every steering rule, per switch, in installation order: host routes
    (untagged shortest-path delivery), then per assignment its ingress
    classifier and per-segment forwarding, then the flow pins likewise.

    The first rule compiled for a (switch, in-port, tag) key wins, so
    segments an assignment shares with its pins appear once.  Assignments
    whose chain is not realized or whose hosts are not in the topology
    compile to nothing (the ``CHAIN`` validators report those).
    """
    hosts, port_toward = topology.hosts, topology.port_toward
    rules: dict[str, list[Rule]] = {name: [] for name in topology.switches}
    claimed: set[tuple[str, int, int]] = set()

    def add(switch: str, priority: int, match: FlowMatch, *actions) -> None:
        if match.vlan_vid is not None and match.vlan_vid != FlowMatch.NO_VLAN:
            key = (switch, match.in_port, match.vlan_vid)
            if key in claimed:
                return
            claimed.add(key)
        rules[switch].append((priority, match, actions))

    for name, host in hosts.items():
        for switch in topology.switches:
            path = topology.shortest_path(switch, name)
            add(
                switch, HOST_ROUTE_PRIORITY,
                FlowMatch(eth_dst=host.mac, vlan_vid=FlowMatch.NO_VLAN),
                FlowAction.output(port_toward(switch, path[1])),
            )
    steered = [(INGRESS_PRIORITY, a, None, {}) for a in assignments] + [
        (FLOW_PIN_PRIORITY, p.assignment, p.five_tuple, p.replacement_hops)
        for p in pins
    ]
    for priority, assignment, flow, replacement in steered:
        chain = realized.get(assignment.chain_name)
        src, dst = assignment.src_host, assignment.dst_host
        if chain is None or not chain.hop_hosts or not {src, dst} <= hosts.keys():
            continue
        if flow is None:
            ingress = FlowMatch(
                eth_src=hosts[src].mac, vlan_vid=FlowMatch.NO_VLAN,
                ip_proto=assignment.ip_proto, dst_port=assignment.dst_port,
            )
        else:
            ingress = FlowMatch(
                vlan_vid=FlowMatch.NO_VLAN, ip_src=flow.src_ip,
                ip_dst=flow.dst_ip, ip_proto=flow.protocol,
                src_port=flow.src_port, dst_port=flow.dst_port,
            )
        # Segment k runs into hop k (the last one into *dst*) tagged c+k:
        # the ingress pushes c, the rule at hop k-1's egress rewrites c+k-1
        # to c+k, or pops it when it hands the packet to *dst*.
        waypoints = [src, *(replacement.get(h, h) for h in chain.hop_hosts), dst]
        tag = chain.chain.chain_id
        for k in range(len(waypoints) - 1):
            final = k == len(waypoints) - 2
            path = topology.shortest_path(waypoints[k], waypoints[k + 1])
            switch, in_port = path[1], port_toward(path[1], path[0])
            output = FlowAction.output(port_toward(switch, path[2]))
            if k == 0:
                push = FlowAction.push_vlan(tag)
                add(switch, priority, replace(ingress, in_port=in_port), push, output)
            else:
                match = FlowMatch(in_port=in_port, vlan_vid=tag + k - 1)
                bump = (FlowAction.pop_vlan() if final and path[2] == dst
                        else FlowAction.set_vlan_vid(tag + k))
                add(switch, CHAIN_PRIORITY, match, bump, output)
            for index in range(2, len(path) - 1):
                node, next_node = path[index], path[index + 1]
                if node not in topology.switches:
                    continue
                match = FlowMatch(
                    in_port=port_toward(node, path[index - 1]), vlan_vid=tag + k
                )
                pop = (FlowAction.pop_vlan(),) if final and next_node in hosts else ()
                output = FlowAction.output(port_toward(node, next_node))
                add(node, CHAIN_PRIORITY, match, *pop, output)
    return rules


class ChainListener(Protocol):
    """Called with the full chain map after every change: the channel
    through which the DPI controller receives the policy chains (§4.1)."""

    def policy_chains_changed(self, chains: "dict[str, PolicyChain]") -> None: ...


class TrafficSteeringApplication:
    """Keeps every switch's steering entries equal to the compiled rules."""

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
        self.pins: list[FlowPin] = []
        self._chain_listeners: list[ChainListener] = []

    def _telemetry_registry(self):
        """The attached telemetry hub's registry, or None."""
        hub = self.topology.simulator.telemetry
        return None if hub is None else hub.registry

    def _count(self, counter: str, amount: int = 1) -> None:
        registry = self._telemetry_registry()
        if registry is not None:
            registry.counter(counter).inc(amount)

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
        """*listener.policy_chains_changed(chains)* is called on updates."""
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

    def realize(self, validate: bool = True) -> None:
        """Resolve every assigned chain not yet realized, then :meth:`sync`.

        With ``validate=True`` (the default) the chains and assignments
        are statically checked first
        (:func:`repro.validation.validate_chains`); error-grade
        issues raise :class:`~repro.validation.ValidationError`
        *before* any rule is installed, so a misconfigured chain cannot
        leave a switch half-programmed.  Calling it again installs nothing
        unless a chain was rewritten or an assignment added since.
        """
        if validate:
            raise_on_errors(validate_chains(self))
        for assignment in self.assignments:
            chain = self.chains[assignment.chain_name]
            realized = self.realized.get(chain.name)
            if realized is None or realized.chain is not chain:
                self.realized[chain.name] = self.resolve_chain(chain)
        self.sync(self.compile())

    # --- compile and sync ----------------------------------------------------

    def compile(self) -> "dict[str, list[Rule]]":
        """:func:`compile_rules` over this TSA's current inputs."""
        return compile_rules(
            self.topology, self.realized, self.assignments, self.pins
        )

    def diff(
        self, wanted: "dict[str, list[Rule]]"
    ) -> "tuple[list[tuple[str, FlowEntry]], list[tuple[str, Rule]]]":
        """``(stale, missing)``: the ``(switch, entry)`` pairs installed at a
        steering priority that *wanted* lacks, and the ``(switch, rule)``
        pairs of *wanted* no entry provides, in order.  Both are multisets:
        two identical entries satisfy two identical rules, not one."""
        stale: list[tuple[str, FlowEntry]] = []
        missing: list[tuple[str, Rule]] = []
        for name, switch in self.topology.switches.items():
            rules = wanted.get(name, [])
            installed = [
                entry for entry in switch.table
                if entry.priority in STEERING_PRIORITIES
            ]
            if not installed:  # a first realize: skip hashing every rule
                missing.extend((name, rule) for rule in rules)
                continue
            unmatched = Counter(rules)
            for entry in installed:
                key = (entry.priority, entry.match, tuple(entry.actions))
                if unmatched[key] > 0:
                    unmatched[key] -= 1
                else:
                    stale.append((name, entry))
            for rule in rules:
                if unmatched[rule] > 0:
                    unmatched[rule] -= 1
                    missing.append((name, rule))
        return stale, missing

    def sync(self, wanted: "dict[str, list[Rule]]") -> "list[tuple[str, FlowEntry]]":
        """Make the steering entries equal *wanted*; returns the removed ones.

        Entries already in place stay (with their counters); missing rules
        are installed in *wanted*'s order through the SDN controller.
        """
        stale, missing = self.diff(wanted)
        for name, entry in stale:
            self.topology.switches[name].table.remove(entry.entry_id)
        for name, (priority, match, actions) in missing:
            self.controller.install(name, match, list(actions), priority=priority)
        if missing:
            self._count("tsa_rules_installed_total", len(missing))
        return stale

    # --- failover re-steering (fault recovery) ------------------------------

    def resteer_chain(
        self, chain_name: str, replacement_hops: "dict[str, str | None]"
    ) -> RealizedChain:
        """Re-steer a realized chain around failed hop hosts.

        ``replacement_hops`` maps a host currently on the chain's realized
        path to its substitute (e.g. a crashed DPI instance's host -> a
        surviving instance's host), or to ``None`` to drop the hop from the
        path entirely (graceful degradation: middleboxes scan locally, so
        the DPI hop is bypassed).  Returns the updated realization.
        """
        realized = self._realized(chain_name, replacement_hops)
        hops = (replacement_hops.get(hop, hop) for hop in realized.hop_hosts)
        return self.reinstall_chain(chain_name, tuple(filter(None, hops)))

    def reinstall_chain(
        self, chain_name: str, hop_hosts: "tuple[str, ...]"
    ) -> RealizedChain:
        """Replace a realized chain's hop hosts and :meth:`sync`.

        The low-level half of :meth:`resteer_chain`; also used directly to
        *reattach* a chain to its original path once a failed hop recovers
        (the original hop list cannot be expressed as a replacement map
        when degradation removed the hop entirely).  Rules the old and new
        paths share stay installed; flow pins on the chain are kept.
        """
        realized = self._realized(chain_name, {})
        updated = RealizedChain(chain=realized.chain, hop_hosts=tuple(hop_hosts))
        self.realized[chain_name] = updated
        self.sync(self.compile())
        self._count("tsa_resteers_total")
        return updated

    def _realized(self, chain_name: str, replacement_hops) -> RealizedChain:
        """The chain's realization; KeyError unless every key is a hop."""
        realized = self.realized.get(chain_name)
        if realized is None:
            raise KeyError(f"chain {chain_name!r} has not been realized")
        for original in replacement_hops:
            if original not in realized.hop_hosts:
                raise KeyError(
                    f"{original!r} is not a hop of chain {chain_name!r}"
                )
        return realized

    # --- per-flow repinning (DPI flow migration, Section 4.3) ----------------

    def pin_flow(
        self,
        chain_name: str,
        src_host: str,
        five_tuple,
        replacement_hops: dict[str, str],
    ) -> FlowPin:
        """Steer one flow of an assigned chain through substitute hops.

        ``replacement_hops`` maps a host name on the chain's realized path
        to the host that should serve this flow instead (e.g. the stressed
        DPI instance's host -> the dedicated instance's host).  The flow's
        ingress rule sits at :data:`FLOW_PIN_PRIORITY`, above the chain's,
        matching its 5-tuple; the tagged per-hop rules for the substitute
        hosts are shared with any other pinned flow of the same chain.

        Returns the pin, for :meth:`unpin_flow` when the migration is
        rolled back.
        """
        self._realized(chain_name, replacement_hops)
        for assignment in self.assignments:
            if (assignment.chain_name, assignment.src_host) == (chain_name, src_host):
                break
        else:
            raise KeyError(
                f"no assignment of chain {chain_name!r} from {src_host!r}"
            )
        self._count("tsa_flow_pins_total")
        pin = FlowPin(assignment, five_tuple, dict(replacement_hops))
        self.pins.append(pin)
        self.sync(self.compile())
        return pin

    def unpin_flow(self, pin: FlowPin) -> int:
        """Drop a pin from :meth:`pin_flow`; returns the ingress entries
        removed (0 if the pin is not active)."""
        if pin not in self.pins:
            return 0
        self.pins.remove(pin)
        removed = self.sync(self.compile())
        return sum(entry.priority == FLOW_PIN_PRIORITY for _, entry in removed)
