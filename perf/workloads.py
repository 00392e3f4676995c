"""The five benchmark workloads: seeded inputs, system build, one timed pass,
and the check of what the pass produced.

Every workload offers packets **closed-loop from one in-process caller**: the
next packet is offered when the outermost call for the previous one has
returned.  There is no real link or loopback; the only links are the
simulated ones of ``fig5-sim``.

A *sample* is what lies between two clock stamps of the timed loop: one
packet, or for ``load-autoscale`` one epoch.  ``inputs.sample_packets`` and
``inputs.sample_bytes`` give each sample's size, ``blocks`` says into how many
stretches of consecutive samples the harness cuts a pass.

A workload object has:

``generate(seed, quick)``  inputs from the seed alone (untimed, hashed)
``build(inputs)``          the system under test (timed as ``setup_s``)
``prepare(system, inputs, pass_index)``  fresh packets for one pass (untimed)
``offer(system, inputs, state, bind, cursor)``  the timed loop; leaves
                           ``state.stamps``, one clock stamp per sample end
``check(system, inputs, state)``  failed packet indices + first failure text
``finish(system, inputs, state)``  drop the pass's flow state (untimed)
``counts(system, inputs, state)``  exact counts the layer metrics need
"""

from __future__ import annotations

import gc
import hashlib
import random
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter_ns

from perf.oracle import Consumer, expected_matches, find_all, first_difference
from perf.trace import CORE, LOAD, NET

MTU = 1460
#: The pattern sets are the deployment's configuration and stay the same on
#: every run; ``--seed`` draws the traffic.  A table's memory moves in steps
#: with its exact state count (list and array over-allocation), so a pattern
#: set redrawn per seed would put a tenth of seed-to-seed spread on
#: ``peak_rss_mb`` that no change to the program causes.
PATTERN_SEED = 7
#: One flow (or, without flow state, one packet) in this many is compared in
#: full against the oracle; every injected occurrence is always checked.
SAMPLE_ONE_IN = 16


def _rng(*parts) -> random.Random:
    return random.Random(repr(parts))


class _Digest:
    """sha256 over length-prefixed fields, so field boundaries are hashed."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *fields) -> None:
        for value in fields:
            blob = value if isinstance(value, bytes) else repr(value).encode()
            self._hash.update(struct.pack(">I", len(blob)))
            self._hash.update(blob)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# --- service-path workloads (1-3) -----------------------------------------


@dataclass
class ServiceInputs:
    consumers: list  # oracle.Consumer, middlebox id = 1 + index
    chains: dict  # chain id -> consumer names in chain order
    kernel: str
    flows: list  # per flow: (chain id, [payload, ...])
    schedule: list  # flow index of each offered packet
    #: ground truth from the generator's own injection log:
    #: (flow, packet within flow, consumer name, pattern id, position)
    truth: list
    sample: list  # flow indices compared in full against the oracle
    sha256: str
    packets: int = 0
    payload_bytes: int = 0
    #: (consumer name, sampled unit) -> the oracle's answer; the inputs are
    #: the same on every pass, so each is computed once.
    oracle_cache: dict = field(default_factory=dict)
    #: per offered packet: (flow, packet within flow), and the way back
    where: list = field(default_factory=list)
    packet_at: dict = field(default_factory=dict)
    sample_packets: list = field(default_factory=list)
    sample_bytes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        cursor = [0] * len(self.flows)
        for flow in self.schedule:
            self.where.append((flow, cursor[flow]))
            cursor[flow] += 1
        self.packet_at = {where: index for index, where in enumerate(self.where)}
        self.sample_bytes = [len(self.flows[flow][1][within]) for flow, within in self.where]
        self.sample_packets = [1] * len(self.schedule)
        self.packets = len(self.schedule)
        self.payload_bytes = sum(self.sample_bytes)


class _Filler:
    """HTTP-style benign bytes, sliced from one seeded pool."""

    def __init__(self, seed: int, size: int) -> None:
        from repro.workloads.traffic import TrafficGenerator

        self._pool = TrafficGenerator(seed=seed, style="http").benign_payload(size)

    def take(self, rng: random.Random, size: int) -> bytes:
        start = rng.randrange(len(self._pool) - size)
        return self._pool[start : start + size]


def _injection_count(rng: random.Random) -> int:
    """Mostly one or two occurrences, a small match-heavy tail."""
    roll = rng.random()
    if roll > 0.98:
        return rng.randrange(6, 14)
    if roll > 0.85:
        return rng.randrange(2, 5)
    return 1


def _place(rng, stream: bytearray, blob: bytes, taken: list, low: int, high: int):
    """Write *blob* at a free offset in ``[low, high - len(blob)]``; returns
    the offset, or None when no free slot was found."""
    if high - low < len(blob):
        return None
    for _ in range(8):
        start = rng.randrange(low, high - len(blob) + 1)
        end = start + len(blob)
        if all(end <= a or start >= b for a, b in taken):
            stream[start:end] = blob
            taken.append((start, end))
            return start
    return None


def _gap_rules(rng: random.Random, count: int) -> list:
    """*count* rules ``first .{0,gap} second`` with two literal anchors."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    rules = []
    for index in range(count):
        first = ("login%02d" % index + "".join(rng.choices(alphabet, k=4))).encode()
        second = ("token%02d" % index + "".join(rng.choices(alphabet, k=4))).encode()
        rules.append((first, rng.randrange(4, 17), second))
    return rules


def _truth_of_flow(flow, sizes, stream, log, consumers, truth) -> None:
    """Turn one flow's injection log into expected alerts: an entry counts
    only if its bytes are still there in the final stream."""
    boundaries = []
    total = 0
    for size in sizes:
        total += size
        boundaries.append(total)
    for start, blob, rule in log:
        end = start + len(blob)
        if stream[start:end] != blob:
            continue  # overwritten by a later injection: not ground truth
        packet = bisect_left(boundaries, end)
        packet_start = boundaries[packet - 1] if packet else 0
        inside = start >= packet_start
        if rule is not None:
            payload = stream[packet_start : boundaries[packet]]
            if payload.count(rule[0]) != 1 or payload.count(rule[2]) != 1:
                continue  # an accidental second anchor would move the match
        for consumer, literal_ids, rule_ids in consumers:
            if rule is not None:
                pattern_id = rule_ids.get(rule)
                position = end - packet_start
            else:
                pattern_id = literal_ids.get(blob)
                position = end if consumer.stateful else end - packet_start
                if not consumer.stateful and not inside:
                    continue
            if pattern_id is None:
                continue
            if consumer.stop is not None and position > consumer.stop:
                continue
            truth.append((flow, packet, consumer.name, pattern_id, position))


def _finish_service_inputs(seed, consumers, chains, kernel, flows, schedule, logs):
    # Each consumer with its reverse maps: bytes -> pattern id, rule -> id.
    by_name = {
        consumer.name: (
            consumer,
            {literal: pid for pid, literal in consumer.literals.items()},
            {rule: pid for pid, rule in consumer.gap_rules.items()},
        )
        for consumer in consumers
    }
    truth: list = []
    digest = _Digest()
    digest.add(kernel, sorted(chains.items()))
    for consumer in consumers:
        digest.add(consumer.name, consumer.stateful, consumer.stop)
        for pattern_id, literal in consumer.literals.items():
            digest.add(pattern_id, literal)
        for pattern_id, rule in consumer.gap_rules.items():
            digest.add(pattern_id, *rule)
    packed = []
    for flow, ((chain_id, sizes, stream), log) in enumerate(zip(flows, logs)):
        on_chain = [by_name[name] for name in chains[chain_id]]
        _truth_of_flow(flow, sizes, stream, log, on_chain, truth)
        payloads = []
        offset = 0
        for size in sizes:
            payloads.append(bytes(stream[offset : offset + size]))
            offset += size
        digest.add(chain_id, *payloads)
        packed.append((chain_id, payloads))
    digest.add(schedule)
    # Stateless-only workloads have no flow state: sample single packets.
    flow_state = any(consumer.stateful for consumer in consumers)
    sampler = _rng("sample", seed)
    units = len(packed) if flow_state else len(schedule)
    sample = [unit for unit in range(units) if sampler.randrange(SAMPLE_ONE_IN) == 0]
    return ServiceInputs(
        consumers=consumers, chains=chains, kernel=kernel, flows=packed,
        schedule=schedule, truth=truth, sample=sample, sha256=digest.hexdigest(),
    )


def _split_consumers(literals, seed, stateful, stop=None, names=("snort1", "snort2")):
    """Two consumers over a Snort1/Snort2-style split with 10% shared."""
    from repro.workloads.patterns import random_split

    halves = random_split(literals, parts=2, seed=seed, shared_fraction=0.10)
    return [
        Consumer(name=name, stateful=stateful, stop=stop,
                    literals=dict(enumerate(half)))
        for name, half in zip(names, halves)
    ]


def _interleave(rng: random.Random, packets_per_flow: list) -> list:
    """A seeded arrival order that keeps each flow's packets in order."""
    schedule = [flow for flow, count in enumerate(packets_per_flow) for _ in range(count)]
    rng.shuffle(schedule)
    return schedule


@dataclass
class _ServiceSystem:
    instance: object
    dpi: object
    middleboxes: dict
    functions: dict


@dataclass
class _PassState:
    packets: list = field(default_factory=list)
    flow_keys: list = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    stamps: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)
    failure: str = ""


def _alerts_by_packet(middlebox, index_of: dict) -> dict:
    """What a consumer's alert log says, per offered packet:
    ``{packet index: [(pattern id, position), ...]}``."""
    per_packet: dict = {}
    for hit in middlebox.alert_log:
        index = index_of.get(hit.packet_id)
        if index is not None:  # logs are cleared every pass; be safe anyway
            row = per_packet.setdefault(index, [])
            row.extend((hit.rule_id, position) for position in hit.positions)
    return per_packet


class ServiceWorkload:
    """``DPIServiceFunction.process`` on a VLAN-tagged packet, then every
    chain consumer's ``MiddleboxChainFunction.process`` in chain order —
    scan once, serve many — with no network in between."""

    groups = (CORE,)  # what the traced run wraps (see perf/trace.py)
    blocks = 10

    def __init__(self, name: str, generate, sizes: dict, quick: dict) -> None:
        self.name = name
        self._generate = generate
        self._sizes = sizes
        self._quick = quick

    def generate(self, seed: int, quick: bool = False) -> ServiceInputs:
        return self._generate(seed, **(self._quick if quick else self._sizes))

    # --- set-up -----------------------------------------------------------

    def build(self, inputs: ServiceInputs, **_):
        from repro.core.controller import DPIController
        from repro.core.instance import DPIServiceFunction
        from repro.middleboxes.base import DPIServiceMiddlebox, MiddleboxChainFunction
        from repro.net.steering import PolicyChain

        controller = DPIController()
        middleboxes = {}
        for middlebox_id, consumer in enumerate(inputs.consumers, start=1):
            kind = type(
                "BenchConsumer",
                (DPIServiceMiddlebox,),
                {
                    "TYPE_NAME": consumer.name,
                    "STATEFUL": consumer.stateful,
                    "STOPPING_CONDITION": consumer.stop,
                },
            )
            middlebox = kind(middlebox_id, name=consumer.name)
            for pattern_id, literal in consumer.literals.items():
                middlebox.add_literal_rule(pattern_id, literal)
            for pattern_id, (first, gap, second) in consumer.gap_rules.items():
                middlebox.add_regex_rule(pattern_id, first + b".{0,%d}" % gap + second)
            middlebox.register_with(controller)  # the JSON control channel
            middleboxes[consumer.name] = middlebox
        controller.policy_chains_changed(
            {
                f"chain{chain_id}": PolicyChain(f"chain{chain_id}", names, chain_id=chain_id)
                for chain_id, names in inputs.chains.items()
            }
        )
        instance = controller.instances.provision(
            "dpi", kernel=inputs.kernel, scan_cache_size=0
        )
        return _ServiceSystem(
            instance=instance,
            dpi=DPIServiceFunction(instance, result_mode="result_packet"),
            middleboxes=middleboxes,
            functions={
                name: MiddleboxChainFunction(middlebox)
                for name, middlebox in middleboxes.items()
            },
        )

    # --- one pass ---------------------------------------------------------

    def prepare(self, system, inputs: ServiceInputs, pass_index: int):
        from repro.net.addresses import IPv4Address, MACAddress
        from repro.net.flows import FiveTuple
        from repro.net.packet import (
            EthernetHeader, IPv4Header, Packet, TCPHeader, VlanTag,
        )

        eth = EthernetHeader(src=MACAddress.from_index(1), dst=MACAddress.from_index(2))
        dst = IPv4Address("10.255.0.1")
        tags = {chain_id: VlanTag(vid=chain_id) for chain_id in inputs.chains}
        headers = []
        for flow in range(len(inputs.flows)):
            # Pass-unique five-tuples: no flow-table state crosses passes.
            src = IPv4Address(0x0A000000 + (pass_index % 250) * 65536 + flow // 60000)
            headers.append(
                (IPv4Header(src=src, dst=dst), TCPHeader(1024 + flow % 60000, 80))
            )
        packets = []
        for flow, within in inputs.where:
            chain_id, payloads = inputs.flows[flow]
            ip, tcp = headers[flow]
            packets.append(
                Packet(eth=eth, ip=ip, l4=tcp, payload=payloads[within],
                       vlan_stack=[tags[chain_id]])
            )
        flow_keys = [
            FiveTuple(ip.src, ip.dst, ip.protocol, tcp.src_port, tcp.dst_port)
            for ip, tcp in headers
        ]
        stats = system.instance.prefilter.stats
        return _PassState(
            packets=packets, flow_keys=flow_keys,
            extra={"confirm": (stats.confirmations_invoked, stats.confirmations_matched)},
        )

    def offer(self, system, inputs: ServiceInputs, state, bind, cursor) -> None:
        process = bind(system.dpi.process)
        consume = {
            chain_id: [bind(system.functions[name].process) for name in names]
            for chain_id, names in inputs.chains.items()
        }
        packets = state.packets
        consumers = [consume[inputs.flows[flow][0]] for flow in inputs.schedule]
        count = len(packets)
        outputs = [None] * count
        stamps = [0] * count
        clock = perf_counter_ns
        gc.collect()
        state.start_ns = clock()
        for index in range(count):
            cursor.packet_id = index
            out = process(packets[index])
            for consumer in consumers[index]:
                forwarded = []
                for packet in out:
                    forwarded += consumer(packet)
                out = forwarded
            outputs[index] = out
            stamps[index] = clock()
        state.end_ns = stamps[-1]
        state.stamps = stamps
        state.outputs = outputs

    def check(self, system, inputs: ServiceInputs, state):
        failed: dict = {}

        def fail(index: int, text: str) -> None:
            failed.setdefault(index, text)

        index_of = {}
        for index, (packet, out) in enumerate(zip(state.packets, state.outputs)):
            index_of[packet.packet_id] = index
            data = [p for p in out if not p.is_result_packet]
            if len(data) != 1 or data[0] is not packet:
                fail(index, f"packet {index}: forwarded {len(data)} times, expected once")
        alerts = {
            name: _alerts_by_packet(middlebox, index_of)
            for name, middlebox in system.middleboxes.items()
        }
        packet_at = inputs.packet_at
        for flow, within, name, pattern_id, position in inputs.truth:
            index = packet_at[(flow, within)]
            if (pattern_id, position) not in alerts[name].get(index, ()):
                fail(index, f"packet {index}: consumer {name} missed injected "
                            f"(pattern {pattern_id}, position {position})")
        by_name = {consumer.name: consumer for consumer in inputs.consumers}
        flow_state = any(consumer.stateful for consumer in inputs.consumers)
        for unit in inputs.sample:
            if flow_state:
                chain_id, payloads = inputs.flows[unit]
                indices = [packet_at[(unit, within)] for within in range(len(payloads))]
            else:
                flow, within = inputs.where[unit]
                chain_id = inputs.flows[flow][0]
                payloads = [inputs.flows[flow][1][within]]
                indices = [unit]
            for name in inputs.chains[chain_id]:
                key = (name, unit)
                if key not in inputs.oracle_cache:
                    inputs.oracle_cache[key] = expected_matches(by_name[name], payloads)
                expected = inputs.oracle_cache[key]
                for index, want in zip(indices, expected):
                    got = sorted(alerts[name].get(index, ()))
                    difference = first_difference(want, got)
                    if difference is not None:
                        side, (pattern_id, position) = difference
                        fail(index, f"packet {index}: consumer {name} {side} "
                                    f"(pattern {pattern_id}, position {position}) vs oracle")
        first = failed[min(failed)] if failed else ""
        return sorted(failed), first

    def finish(self, system, inputs, state) -> None:
        for key in state.flow_keys:
            system.instance.drop_flow(key)
        system.instance.reset_telemetry()
        for middlebox in system.middleboxes.values():
            middlebox.alert_log.clear()

    def counts(self, system, inputs: ServiceInputs, state) -> dict:
        telemetry = system.instance.telemetry
        stats = system.instance.prefilter.stats
        invoked, matched = state.extra["confirm"]
        return {
            "packets": inputs.packets,
            "payload_bytes": inputs.payload_bytes,
            "matches": telemetry.total_matches,
            "matched_packets": telemetry.packets_with_matches,
            "bytes_scanned": telemetry.bytes_scanned,
            "flow_entries_peak": len(system.instance.scanner.flow_table),
            "confirm_invoked": stats.confirmations_invoked - invoked,
            "confirm_matched": stats.confirmations_matched - matched,
            "buffered_peak": max(f.max_buffered for f in system.functions.values()),
            "num_states": system.instance.automaton.num_states,
        }


def _snort_stateless_mtu(seed: int, patterns: int, packets: int) -> ServiceInputs:
    from repro.workloads.patterns import generate_snort_like

    consumers = _split_consumers(
        generate_snort_like(patterns, seed=PATTERN_SEED), PATTERN_SEED, stateful=False
    )
    union = sorted({lit for c in consumers for lit in c.literals.values()})
    rng = _rng("snort-stateless-mtu", seed)
    filler = _Filler(seed, 1 << 21)
    flows, logs = [], []
    for _ in range(packets):
        size = max(64, min(MTU, int(rng.gauss(900, 350))))
        stream = bytearray(filler.take(rng, size))
        log, taken = [], []
        if rng.random() < 0.08:  # the paper's traces are >90% matchless
            for _ in range(_injection_count(rng)):
                blob = rng.choice(union)
                start = _place(rng, stream, blob, taken, 0, size)
                if start is not None:
                    log.append((start, blob, None))
        flows.append((100, [size], stream))
        logs.append(log)
    return _finish_service_inputs(
        seed, consumers, {100: ("snort1", "snort2")}, "flat", flows,
        list(range(packets)), logs,
    )


def _clamav_stateful_flows(seed: int, patterns: int, flows: int, per_flow: int):
    from repro.workloads.patterns import generate_clamav_like

    consumers = _split_consumers(
        generate_clamav_like(patterns, seed=PATTERN_SEED), PATTERN_SEED, stateful=True,
        names=("clam1", "clam2"),
    )
    union = sorted({lit for c in consumers for lit in c.literals.values()})
    rng = _rng("clamav-stateful-flows", seed)
    filler = _Filler(seed, 1 << 22)
    length = per_flow * MTU
    built, logs = [], []
    for _ in range(flows):
        stream = bytearray(filler.take(rng, length))
        log, taken = [], []
        for part in range(per_flow):
            if rng.random() >= 0.08:
                continue
            for _ in range(_injection_count(rng)):
                blob = rng.choice(union)
                if part and rng.random() < 0.25:
                    # Across the boundary into this packet: only a scan that
                    # resumes from the carried DFA state can see it.
                    low = part * MTU - len(blob) + 1
                    start = _place(rng, stream, blob, taken, low, part * MTU + len(blob) - 1)
                else:
                    start = _place(rng, stream, blob, taken, part * MTU, (part + 1) * MTU)
                if start is not None:
                    log.append((start, blob, None))
        built.append((200, [MTU] * per_flow, stream))
        logs.append(log)
    return _finish_service_inputs(
        seed, consumers, {200: ("clam1", "clam2")}, "regex", built,
        _interleave(rng, [per_flow] * flows), logs,
    )


def _small_matchdense(seed: int, patterns: int, rules: int, flows: int, per_flow: int):
    from repro.workloads.patterns import generate_snort_like, random_split

    literals = generate_snort_like(patterns, seed=PATTERN_SEED)
    halves = random_split(literals, parts=2, seed=PATTERN_SEED, shared_fraction=0.10)
    gap_rules = _gap_rules(_rng("gap-rules", PATTERN_SEED), rules)
    rng = _rng("small-matchdense", seed)
    rule_halves = (gap_rules[: rules // 2], gap_rules[rules // 2 :])

    def consumer(name, stateful, stop, half):
        lits = dict(enumerate(halves[half]))
        base = len(lits)
        return Consumer(
            name=name, stateful=stateful, stop=stop, literals=lits,
            gap_rules={base + i: rule for i, rule in enumerate(rule_halves[half])},
        )

    # Each chain mixes a stateless consumer that stops at 2048 bytes with a
    # stateful one; the two chains swap which half of the set each kind holds.
    consumers = [
        consumer("fw-a", False, 2048, 0), consumer("ids-a", True, None, 1),
        consumer("fw-b", False, 2048, 1), consumer("ids-b", True, None, 0),
    ]
    chains = {301: ("fw-a", "ids-a"), 302: ("ids-b", "fw-b")}
    filler = _Filler(seed, 1 << 20)
    built, logs = [], []
    for flow in range(flows):
        sizes = [rng.randrange(64, 257) for _ in range(per_flow)]
        stream = bytearray(filler.take(rng, sum(sizes)))
        log, taken = [], []
        offset = 0
        for size in sizes:
            if rng.random() < 0.60:
                for _ in range(rng.randrange(1, 5)):
                    if rng.random() < 0.25:
                        first, gap, second = rule = rng.choice(gap_rules)
                        between = bytes(rng.randrange(97, 123) for _ in range(rng.randrange(gap + 1)))
                        blob = first + between + second
                    else:
                        rule, blob = None, rng.choice(literals)
                    start = _place(rng, stream, blob, taken, offset, offset + size)
                    if start is not None:
                        log.append((start, blob, rule))
            offset += size
        built.append((301 + flow % 2, sizes, stream))
        logs.append(log)
    return _finish_service_inputs(
        seed, consumers, chains, "flat", built,
        _interleave(rng, [per_flow] * flows), logs,
    )


# --- fig5-sim (4) ---------------------------------------------------------


@dataclass
class SimInputs:
    packets_in: list  # (chain name, flow, payload)
    expected: dict  # consumer name -> {packet index: [(pattern id, position)]}
    delivered: list  # per packet: must it reach its destination host?
    sha256: str
    packets: int = 0
    payload_bytes: int = 0

    sample_packets: list = field(default_factory=list)
    sample_bytes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sample_bytes = [len(payload) for _, _, payload in self.packets_in]
        self.sample_packets = [1] * len(self.packets_in)
        self.packets = len(self.packets_in)
        self.payload_bytes = sum(self.sample_bytes)


class SimWorkload:
    """``build_figure5_system()`` with its defaults; each packet is
    ``src.send(packet); topology.run()``."""

    name = "fig5-sim"
    groups = (CORE, NET)
    blocks = 10
    FLOW_PACKETS = 8  # packets per five-tuple; the IDS and AV are stateful

    def __init__(self, packets: int, quick: int) -> None:
        self._packets = packets
        self._quick = quick

    def generate(self, seed: int, quick: bool = False) -> SimInputs:
        from repro.telemetry.scenario import AV_SIG, IDS1_SIG, IDS2_SIG

        count = self._quick if quick else self._packets
        rng = _rng("fig5-sim", seed)
        packets_in = []
        streams: dict = {}
        digest = _Digest()
        for index in range(count):
            chain = "chain1" if index % 2 == 0 else "chain2"
            flow = index // (2 * self.FLOW_PACKETS) * 2 + index % 2
            head = rng.randbytes(rng.randrange(100, 600))
            tail = rng.randbytes(rng.randrange(100, 600))
            middle = b""
            if rng.random() < 0.25:  # one in four carries a chain signature
                if chain == "chain1":
                    middle = IDS1_SIG
                else:
                    # A virus hit quarantines the rest of its flow; keep it
                    # rare so that most packets travel the whole chain.
                    middle = AV_SIG if rng.random() < 0.10 else IDS2_SIG
            payload = head + middle + tail
            packets_in.append((chain, flow, payload))
            streams.setdefault(flow, []).append(index)
            digest.add(chain, flow, payload)
        # Three signatures: the oracle checks every flow, not a sample.
        signatures = {
            "ids1": ("chain1", IDS1_SIG), "ids2": ("chain2", IDS2_SIG),
            "av1": ("chain2", AV_SIG),
        }
        expected = {name: {} for name in signatures}
        for flow, indices in streams.items():
            chain = packets_in[indices[0]][0]
            payloads = [packets_in[index][2] for index in indices]
            for name, (on_chain, signature) in signatures.items():
                if on_chain != chain:
                    continue
                consumer = Consumer(name=name, stateful=True, literals={0: signature})
                for index, matches in zip(indices, expected_matches(consumer, payloads)):
                    if matches:
                        expected[name][index] = matches
        # The antivirus drops the packet that completes a signature and
        # quarantines its flow: later packets of the flow never arrive.
        delivered = [True] * count
        for flow, indices in streams.items():
            hits = [index for index in indices if index in expected["av1"]]
            if hits:
                for index in indices:
                    if index >= hits[0]:
                        delivered[index] = False
        return SimInputs(packets_in, expected, delivered, digest.hexdigest())

    def build(self, inputs, telemetry: bool = True, tracing: bool = True):
        from repro.telemetry.scenario import build_figure5_system

        return build_figure5_system(telemetry=telemetry, tracing=tracing)

    def prepare(self, system, inputs: SimInputs, pass_index: int):
        from repro.net.flows import FiveTuple
        from repro.net.packet import make_tcp_packet

        hosts = system.topology.hosts
        ends = {
            "chain1": (hosts["src1"], hosts["dst1"]),
            "chain2": (hosts["src2"], hosts["dst2"]),
        }
        flows = 1 + max(flow for _, flow, _ in inputs.packets_in)
        packets = []
        keys = set()
        for chain, flow, payload in inputs.packets_in:
            src, dst = ends[chain]
            port = 1024 + (pass_index * flows + flow) % 60000
            packet = make_tcp_packet(src.mac, dst.mac, src.ip, dst.ip, port, 80, payload=payload)
            packets.append(packet)
            keys.add(FiveTuple.of(packet))
        return _PassState(packets=packets, flow_keys=sorted(keys))

    def offer(self, system, inputs: SimInputs, state, bind, cursor) -> None:
        hosts = system.topology.hosts
        send = {"chain1": bind(hosts["src1"].send), "chain2": bind(hosts["src2"].send)}
        senders = [send[chain] for chain, _, _ in inputs.packets_in]
        run = bind(system.topology.run)
        packets = state.packets
        count = len(packets)
        stamps = [0] * count
        clock = perf_counter_ns
        events_before = system.topology.simulator.events_processed
        gc.collect()
        state.start_ns = clock()
        for index in range(count):
            cursor.packet_id = index
            senders[index](packets[index])
            run()
            stamps[index] = clock()
        state.end_ns = stamps[-1]
        state.stamps = stamps
        state.extra["events"] = system.topology.simulator.events_processed - events_before

    def check(self, system, inputs: SimInputs, state):
        failed: dict = {}

        def fail(index: int, text: str) -> None:
            failed.setdefault(index, text)

        index_of = {packet.packet_id: index for index, packet in enumerate(state.packets)}
        hosts = system.topology.hosts
        arrivals: dict = {}
        for name in ("dst1", "dst2"):
            for packet in hosts[name].received_packets:
                if not packet.is_result_packet:
                    index = index_of.get(packet.packet_id)
                    arrivals[index] = arrivals.get(index, 0) + 1
        for index, must in enumerate(inputs.delivered):
            if arrivals.get(index, 0) != int(must):
                fail(index, f"packet {index}: delivered {arrivals.get(index, 0)} "
                            f"times, expected {int(must)}")
        for name in ("ids1", "ids2"):
            got = _alerts_by_packet(system.middleboxes[name], index_of)
            want = inputs.expected[name]
            for index in sorted(set(got) | set(want)):
                difference = first_difference(want.get(index, []), sorted(got.get(index, [])))
                if difference is not None:
                    side, (pattern_id, position) = difference
                    fail(index, f"packet {index}: consumer {name} {side} "
                                f"(pattern {pattern_id}, position {position}) vs oracle")
        # The antivirus logs one detection per quarantined flow, not an alert.
        hits = sorted(inputs.expected["av1"])
        quarantined = {inputs.packets_in[index][1] for index in hits}
        detections = len(system.middleboxes["av1"].detections)
        if detections != len(quarantined):
            fail(hits[0] if hits else 0,
                 f"consumer av1 logged {detections} detections, "
                 f"expected {len(quarantined)}")
        first = failed[min(failed)] if failed else ""
        return sorted(failed), first

    def finish(self, system, inputs, state) -> None:
        for key in state.flow_keys:
            system.instance.drop_flow(key)
        system.instance.reset_telemetry()
        for name in ("dst1", "dst2"):
            system.topology.hosts[name].received_packets.clear()
        for name in ("ids1", "ids2", "av1"):
            system.middleboxes[name].alert_log.clear()
        for name in ("ids1", "ids2"):
            system.middleboxes[name].alerts.clear()
        system.middleboxes["av1"].detections.clear()
        system.middleboxes["av1"].quarantined_flows.clear()

    def counts(self, system, inputs: SimInputs, state) -> dict:
        telemetry = system.instance.telemetry
        return {
            "packets": inputs.packets,
            "payload_bytes": inputs.payload_bytes,
            "matches": telemetry.total_matches,
            "matched_packets": telemetry.packets_with_matches,
            "bytes_scanned": telemetry.bytes_scanned,
            "flow_entries_peak": len(system.instance.scanner.flow_table),
            "buffered_peak": max(
                f.max_buffered for f in system.middlebox_functions.values()
            ),
            "num_states": system.instance.automaton.num_states,
            "events": state.extra["events"],
        }


# --- load-autoscale (5) ---------------------------------------------------


@dataclass
class LoadInputs:
    spec: object
    #: per epoch, from a second generator stream: (packets, suppressed, matches)
    epochs: list
    sha256: str
    sample_packets: list  # one sample per epoch
    sample_bytes: list
    packets: int = 0
    payload_bytes: int = 0
    matched_packets: int = 0
    #: (digest, autoscaler actions) of the first pass; every pass must repeat it
    reference: "tuple | None" = None


class _StampedBatches:
    """Stands in for ``driver.generator``: hands the real generator's batches
    on and stamps the clock at each hand-over.  ``run_load_scenario`` has no
    per-packet entry point; the epoch is the finest boundary it has."""

    def __init__(self, generator, stamps: list) -> None:
        self._generator = generator
        self._stamps = stamps

    def __getattr__(self, name):
        return getattr(self._generator, name)

    def batches(self):
        for batch in self._generator.batches():
            self._stamps.append(perf_counter_ns())
            yield batch


class LoadWorkload:
    """The load driver with the autoscaler closed around it: what
    ``repro-dpi load service --autoscale`` runs."""

    name = "load-autoscale"
    groups = (CORE, LOAD)
    blocks = 1  # an epoch is a sample; forty of them do not make ten blocks

    def __init__(self, flows: int, epochs: int, quick: tuple) -> None:
        self._flows = flows
        self._epochs = epochs
        self._quick = quick

    def generate(self, seed: int, quick: bool = False) -> LoadInputs:
        from repro.load import LoadGenerator, LoadSpec, RampSchedule
        from repro.load.driver import CHAIN_TYPES
        from repro.load.generator import SIGNATURES

        flows, epochs = self._quick if quick else (self._flows, self._epochs)
        spec = LoadSpec(
            profile_mix="mixed", flows=flows, epochs=epochs, seed=seed,
            ramp=RampSchedule(kind="linear"),
        )
        signatures = {
            chain_id: [s for kind in kinds for s in SIGNATURES[kind]]
            for chain_id, (_, kinds) in CHAIN_TYPES.items()
        }
        digest = _Digest()
        digest.add(sorted(spec.to_dict().items()))
        per_payload: dict = {}
        rows = []
        sample_bytes = []
        matched_packets = 0
        for batch in LoadGenerator(spec).batches():
            matches = epoch_bytes = 0
            for flow_id, chain_id, payload, _ in batch.items:
                key = (chain_id, payload)
                if key not in per_payload:
                    per_payload[key] = sum(
                        len(find_all(payload, s)) for s in signatures[chain_id]
                    )
                    digest.add(chain_id, payload)
                matches += per_payload[key]
                matched_packets += per_payload[key] > 0
                epoch_bytes += len(payload)
            digest.add(batch.epoch, [(f, c) for f, c, _, _ in batch.items], batch.suppressed)
            rows.append((len(batch.items), batch.suppressed, matches))
            sample_bytes.append(epoch_bytes)
        sample_packets = [row[0] for row in rows]
        return LoadInputs(
            spec, rows, digest.hexdigest(), sample_packets, sample_bytes,
            sum(sample_packets), sum(sample_bytes), matched_packets,
        )

    def build(self, inputs: LoadInputs, **_):
        from repro.load.driver import LoadDriver

        return LoadDriver(
            inputs.spec, autoscale=True, policy="isolation", max_instances=6
        )

    def prepare(self, system, inputs, pass_index: int):
        # A driver runs once: every pass gets its own, built outside the clock
        # (the *system* of the round only gave a ``setup_s`` sample).
        state = _PassState()
        driver = self.build(inputs)
        driver.generator = _StampedBatches(driver.generator, state.stamps)
        state.extra["driver"] = driver
        return state

    def offer(self, system, inputs, state, bind, cursor) -> None:
        run = bind(state.extra["driver"].run)
        gc.collect()
        state.start_ns = perf_counter_ns()
        cursor.packet_id = 0
        state.extra["result"] = run()
        state.end_ns = perf_counter_ns()
        # An epoch ends where the next batch is handed over, the last one
        # where run() returns; the first takes the time before its hand-over.
        state.stamps[:] = state.stamps[1:] + [state.end_ns]

    def check(self, system, inputs: LoadInputs, state):
        result = state.extra["result"]
        failed: list = []
        first = ""
        offset = 0
        for report, (packets, suppressed, matches) in zip(result.epochs, inputs.epochs):
            got = (report.offered_packets, report.suppressed, report.matches)
            if got != (packets, suppressed, matches):
                failed.extend(range(offset, offset + packets))
                first = first or (
                    f"epoch {report.epoch}: (packets, suppressed, matches) = {got}, "
                    f"second generator stream and oracle say {(packets, suppressed, matches)}"
                )
            offset += packets
        actions = [
            (event.epoch, event.action, event.instance)
            for event in result.autoscaler.events
        ]
        if inputs.reference is None:
            inputs.reference = (result.digest, actions)
        if len(result.epochs) != len(inputs.epochs) or inputs.reference != (result.digest, actions):
            failed = list(range(inputs.packets))
            first = first or "digest or autoscaler action list differs between passes"
        return failed, first

    def finish(self, system, inputs, state) -> None:
        driver = state.extra["driver"]
        for name in list(driver.controller.instances):
            driver.controller.instances.decommission(name)

    def counts(self, system, inputs: LoadInputs, state) -> dict:
        result = state.extra["result"]
        driver = state.extra["driver"]
        automaton = next(iter(driver.controller.instances.values())).automaton
        return {
            "packets": inputs.packets,
            "payload_bytes": inputs.payload_bytes,
            "matches": result.total_matches,
            # Checked against the oracle epoch by epoch, so its count stands.
            "matched_packets": inputs.matched_packets,
            "bytes_scanned": result.total_bytes,
            "epochs": len(result.epochs),
            "instances_peak": len(driver.controller.instances),
            "actions": len(result.autoscaler.events),
            "num_states": automaton.num_states,
        }


#: Why each workload exists is recorded once, in ``BENCHMARK.json`` and at
#: length in ``perf/README.md``.
WORKLOADS = {
    workload.name: workload
    for workload in (
        ServiceWorkload(
            "snort-stateless-mtu", _snort_stateless_mtu,
            {"patterns": 4356, "packets": 20000},
            {"patterns": 300, "packets": 1500},
        ),
        ServiceWorkload(
            "clamav-stateful-flows", _clamav_stateful_flows,
            {"patterns": 2000, "flows": 512, "per_flow": 40},
            {"patterns": 200, "flows": 32, "per_flow": 20},
        ),
        ServiceWorkload(
            "small-matchdense", _small_matchdense,
            {"patterns": 4356, "rules": 64, "flows": 2500, "per_flow": 8},
            {"patterns": 300, "rules": 16, "flows": 150, "per_flow": 8},
        ),
        SimWorkload(packets=6000, quick=600),
        LoadWorkload(flows=2000, epochs=40, quick=(300, 12)),
    )
}
