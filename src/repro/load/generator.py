"""Seeded streaming load generator with compact per-flow state.

Scales to ~10^6 concurrent flows by never holding per-flow objects: flow
state is two parallel ``array`` columns (profile index, packets remaining)
plus an ``array('q')`` of the currently-active flow ids.  All per-packet
randomness is derived on the fly from a 64-bit integer mixer over
``(seed, flow_id, epoch, k)``, so two generators built from the same spec
produce byte-identical batches without storing a single RNG per flow.

Payloads are drawn from small per-profile pools built once at startup from
seeded RNGs; a heavy-hitter pool (match-dense, oversized) serves the flows
a profile marks via ``heavy_every``.  :meth:`LoadGenerator.batches` is a
lazy iterator — the driver consumes one epoch at a time and whole traces
are never materialized.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Iterator

from repro.load.profiles import PROFILES, LoadSpec, TrafficProfile, resolve_mix
from repro.workloads.attacks import match_flood_payload

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Payload variants per profile pool; small enough to build instantly,
#: large enough that scans do not degenerate to one cached payload.
POOL_SIZE = 32
HEAVY_POOL_SIZE = 8
HEAVY_PAYLOAD_BYTES = 1400

#: The signature corpus the load scenario registers with its middleboxes.
#: Generator payload pools inject these at each profile's ``match_rate``.
SIGNATURES: dict[str, list[bytes]] = {
    "ids": [
        b"/bin/busybox MIRAI",
        b"GET /cgi-bin/;rm+-rf",
        b"default-telnet-pass",
        b"mirai-scan-botnet",
    ],
    "av": [
        b"exfil-marker-xyz",
        b"quic-c2-beacon!!",
        b"tracking-pixel.gif",
    ],
}

_BENIGN_SNIPPETS = [
    b"GET /index.html HTTP/1.1\r\nHost: example.net\r\n",
    b"Content-Type: text/html; charset=utf-8\r\n\r\n<html><body>",
    b"<p>lorem ipsum dolor sit amet, consectetur adipiscing elit</p>",
    b"Cache-Control: max-age=3600\r\nAccept-Encoding: gzip\r\n",
    b"POST /api/v2/session HTTP/1.1\r\n{\"user\": \"anon\", \"ok\": true}",
]


def _mix(*parts: int) -> int:
    """A splitmix64-style mixer: deterministic, order-sensitive, cheap."""
    state = _GOLDEN
    for part in parts:
        state = (state ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        state ^= state >> 31
        state = state * 0x94D049BB133111EB & _MASK64
        state ^= state >> 29
    return state


def all_signatures() -> list[bytes]:
    """Every registered signature, sorted (determinism helper)."""
    merged: list[bytes] = []
    for middlebox in sorted(SIGNATURES):
        merged.extend(SIGNATURES[middlebox])
    return sorted(merged)


def _build_pool(profile: TrafficProfile, seed: int) -> list[bytes]:
    """POOL_SIZE seeded payload variants for one profile."""
    rng = random.Random(("load-pool", profile.name, seed).__repr__())
    signatures = all_signatures()
    low, high = profile.payload_bytes
    pool: list[bytes] = []
    for _ in range(POOL_SIZE):
        size = rng.randint(low, high)
        chunks: list[bytes] = []
        total = 0
        while total < size:
            snippet = rng.choice(_BENIGN_SNIPPETS)
            chunks.append(snippet)
            total += len(snippet)
        payload = bytearray(b"".join(chunks)[:size])
        # Scramble a slice so pool entries differ beyond snippet order.
        for index in range(0, size, 7):
            payload[index] = rng.randrange(32, 127)
        if profile.match_rate > 0 and rng.random() < profile.match_rate:
            signature = rng.choice(signatures)
            if len(signature) <= size:
                offset = rng.randrange(0, size - len(signature) + 1)
                payload[offset : offset + len(signature)] = signature
        pool.append(bytes(payload))
    return pool


def _build_heavy_pool(seed: int) -> list[bytes]:
    """Match-dense oversized payloads for flagged heavy-hitter flows."""
    return [
        match_flood_payload(
            all_signatures(), HEAVY_PAYLOAD_BYTES, seed=seed * 101 + variant
        )
        for variant in range(HEAVY_POOL_SIZE)
    ]


@dataclass
class LoadBatch:
    """One epoch's worth of packets plus generator accounting."""

    epoch: int
    #: ``(flow_id, chain_id, payload, heavy)`` per packet, arrival order.
    items: list[tuple[int, int, bytes, bool]]
    concurrent_flows: int
    spawned: int
    completed: int
    #: Packets over ``max_packets_per_epoch`` dropped by the harness cap.
    suppressed: int

    @property
    def offered_bytes(self) -> int:
        return sum(len(payload) for _, _, payload, _ in self.items)


@dataclass
class GeneratorStats:
    flows_started: int = 0
    flows_completed: int = 0
    packets_emitted: int = 0
    packets_suppressed: int = 0
    heavy_flows: int = 0
    spawned_by_profile: dict[str, int] = field(default_factory=dict)


class LoadGenerator:
    """Streams :class:`LoadBatch` epochs for a :class:`LoadSpec`."""

    _HEAVY_BIT = 0x80

    def __init__(self, spec: LoadSpec) -> None:
        self.spec = spec
        self.mix = resolve_mix(spec.profile_mix)
        self.profiles: list[TrafficProfile] = [profile for profile, _ in self.mix]
        if len(self.profiles) >= self._HEAVY_BIT:
            raise ValueError("too many profiles for packed flow state")
        self._weights = [weight for _, weight in self.mix]
        self._pools = [
            _build_pool(profile, spec.seed) for profile in self.profiles
        ]
        self._heavy_pool = _build_heavy_pool(spec.seed)
        # Parallel columns indexed by flow id: packed profile index (heavy
        # bit folded in) and remaining packet budget.  Append-only.
        self._profile_of = array("B")
        self._packets_left = array("i")
        self._active = array("q")
        self._spawn_counts = [0] * len(self.profiles)
        self._next_flow_id = 0
        self.stats = GeneratorStats()

    # -- spawning ---------------------------------------------------------

    def _pick_profile(self, flow_id: int) -> int:
        point = _mix(self.spec.seed, flow_id, 0xA11CE) / 2.0**64
        cumulative = 0.0
        for index, weight in enumerate(self._weights):
            cumulative += weight
            if point < cumulative:
                return index
        return len(self._weights) - 1

    def _spawn(self, count: int) -> int:
        spawned = 0
        seed = self.spec.seed
        for _ in range(count):
            flow_id = self._next_flow_id
            self._next_flow_id += 1
            index = self._pick_profile(flow_id)
            profile = self.profiles[index]
            low, high = profile.packets_per_flow
            budget = low + _mix(seed, flow_id, 0xB0D6E7) % (high - low + 1)
            packed = index
            self._spawn_counts[index] += 1
            if (
                profile.heavy_every
                and self._spawn_counts[index] % profile.heavy_every == 0
            ):
                packed |= self._HEAVY_BIT
                self.stats.heavy_flows += 1
            self._profile_of.append(packed)
            self._packets_left.append(budget)
            self._active.append(flow_id)
            spawned += 1
            name = profile.name
            by_profile = self.stats.spawned_by_profile
            by_profile[name] = by_profile.get(name, 0) + 1
        self.stats.flows_started += spawned
        return spawned

    # -- emission ---------------------------------------------------------

    def batches(self) -> Iterator[LoadBatch]:
        """Yield one :class:`LoadBatch` per epoch, lazily."""
        spec = self.spec
        seed = spec.seed
        cap = spec.max_packets_per_epoch
        profile_of = self._profile_of
        packets_left = self._packets_left
        for epoch in range(spec.epochs):
            target = spec.target_flows(epoch)
            spawned = self._spawn(max(0, target - len(self._active)))
            items: list[tuple[int, int, bytes, bool]] = []
            suppressed = 0
            completed = 0
            survivors = array("q")
            for flow_id in self._active:
                packed = profile_of[flow_id]
                profile = self.profiles[packed & (self._HEAVY_BIT - 1)]
                heavy = bool(packed & self._HEAVY_BIT)
                roll = _mix(seed, flow_id, epoch)
                emits = (roll & 0xFFFFFFFF) / 2.0**32 < profile.emit_probability
                if emits:
                    low, high = profile.burst
                    burst = low + (roll >> 32) % (high - low + 1)
                    burst = min(burst, packets_left[flow_id])
                    pool = self._heavy_pool if heavy else (
                        self._pools[packed & (self._HEAVY_BIT - 1)]
                    )
                    chain_id = profile.chain_id
                    for k in range(burst):
                        if len(items) < cap:
                            payload = pool[_mix(seed, flow_id, epoch, k) % len(pool)]
                            items.append((flow_id, chain_id, payload, heavy))
                        else:
                            suppressed += 1
                    packets_left[flow_id] -= burst
                if packets_left[flow_id] <= 0:
                    completed += 1
                else:
                    survivors.append(flow_id)
            self._active = survivors
            self.stats.flows_completed += completed
            self.stats.packets_emitted += len(items)
            self.stats.packets_suppressed += suppressed
            yield LoadBatch(
                epoch=epoch,
                items=items,
                concurrent_flows=len(survivors),
                spawned=spawned,
                completed=completed,
                suppressed=suppressed,
            )

    @property
    def active_flows(self) -> int:
        return len(self._active)

    def profile_name_of(self, flow_id: int) -> str:
        """The profile a spawned flow belongs to (bench ground truth)."""
        if not 0 <= flow_id < len(self._profile_of):
            raise KeyError(f"flow {flow_id} was never spawned")
        packed = self._profile_of[flow_id]
        return self.profiles[packed & (self._HEAVY_BIT - 1)].name


def profile_of_chain(chain_id: int) -> str:
    """Reverse lookup: chain id -> profile name (driver/report helper)."""
    for name in sorted(PROFILES):
        if PROFILES[name].chain_id == chain_id:
            return name
    raise KeyError(f"no profile rides chain {chain_id}")
