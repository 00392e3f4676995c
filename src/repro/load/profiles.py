"""Traffic profiles, ramp schedules and the serializable LoadSpec.

A *profile* describes one population of flows (packet sizes, lifetime,
burstiness, how often its payloads carry a signature).  A *mix* is a named
weighting over profiles — ``repro-dpi load --profile mixed`` resolves the
mix name here.  A :class:`LoadSpec` bundles everything a run needs (mix,
peak flow count, ramp schedule, seed, SLO, modeled per-instance service
rate) and round-trips through JSON so scenarios can live in files and be
validated by the ``LOAD0xx`` codes in :mod:`repro.validation`.

Everything is deterministic given the spec's seed: payload pools are built
from seeded RNGs and per-packet choices use a cheap integer mixer over
``(seed, flow_id, epoch, k)`` so the generator never stores per-flow RNG
state (that is what lets it hold ~10^6 concurrent flows).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

#: Policy-chain ids the load scenario steers each profile through.  They are
#: arbitrary but stable: the driver installs chains with exactly these ids.
CHAIN_WEB = 100
CHAIN_FLOOD = 200
CHAIN_LONG = 300


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of one flow population.

    ``emit_probability`` is the per-epoch chance an active flow sends at
    all; ``burst`` bounds how many packets it sends when it does.  A
    ``heavy_every`` of N marks every Nth flow of this profile as a heavy
    hitter (match-dense, oversized payloads) — 0 disables heavy hitters.
    """

    name: str
    chain_id: int
    payload_bytes: tuple[int, int]
    packets_per_flow: tuple[int, int]
    emit_probability: float
    burst: tuple[int, int]
    match_rate: float
    heavy_every: int = 0


#: The three populations the ISSUE calls for: short benign web flows,
#: mirai-style floods (small bursty signature-bearing packets, sparse heavy
#: hitters), and long-lived QUIC-like flows that are mostly idle.
PROFILES: dict[str, TrafficProfile] = {
    "benign-http": TrafficProfile(
        name="benign-http",
        chain_id=CHAIN_WEB,
        payload_bytes=(200, 1200),
        packets_per_flow=(2, 8),
        emit_probability=0.6,
        burst=(1, 2),
        match_rate=0.02,
    ),
    "mirai-burst": TrafficProfile(
        name="mirai-burst",
        chain_id=CHAIN_FLOOD,
        payload_bytes=(60, 220),
        packets_per_flow=(20, 80),
        emit_probability=0.9,
        burst=(4, 10),
        match_rate=0.5,
        heavy_every=97,
    ),
    "quic-long": TrafficProfile(
        name="quic-long",
        chain_id=CHAIN_LONG,
        payload_bytes=(500, 1300),
        packets_per_flow=(200, 100_000),
        emit_probability=0.15,
        burst=(1, 2),
        match_rate=0.0,
    ),
}

#: Named mixes; weights need not sum to 1 (they are normalized).
MIXES: dict[str, dict[str, float]] = {
    "mixed": {"benign-http": 0.7, "mirai-burst": 0.2, "quic-long": 0.1},
    "benign": {"benign-http": 1.0},
    "flood": {"mirai-burst": 1.0},
    "long": {"quic-long": 1.0},
    # The anomaly-detection benchmark mix: mostly benign web traffic with
    # a mirai-burst minority to detect (labels come from the generator).
    "web-flood": {"benign-http": 0.75, "mirai-burst": 0.25},
}

RAMP_KINDS = ("constant", "linear", "step", "burst")

#: Load scenarios the driver knows how to build (CLI positional choices).
SCENARIOS = ("service",)


def profile_vocabulary() -> tuple[str, ...]:
    """Every name ``LoadSpec.profile_mix`` may legally use (mixes first)."""
    return tuple(sorted(MIXES)) + tuple(sorted(PROFILES))


def resolve_mix(name: str) -> list[tuple[TrafficProfile, float]]:
    """A mix or single-profile name -> normalized (profile, weight) list."""
    if name in MIXES:
        weights = MIXES[name]
    elif name in PROFILES:
        weights = {name: 1.0}
    else:
        raise KeyError(
            f"unknown profile or mix: {name!r} "
            f"(known: {', '.join(profile_vocabulary())})"
        )
    total = sum(weights.values())
    return [
        (PROFILES[profile_name], weight / total)
        for profile_name, weight in sorted(weights.items())
    ]


@dataclass(frozen=True)
class RampSchedule:
    """Target concurrent-flow fraction per epoch.

    * ``constant`` — full target from epoch 0.
    * ``linear`` — ramps from ``floor_fraction`` to 1.0 over the run.
    * ``step`` — ``floor_fraction`` until ``step_epoch``, then 1.0.
    * ``burst`` — alternates ``period`` epochs at 1.0 with ``period``
      epochs back at ``floor_fraction``.
    """

    kind: str = "constant"
    floor_fraction: float = 0.1
    step_epoch: int = 0
    period: int = 4

    def fraction(self, epoch: int, epochs: int) -> float:
        """Fraction of the peak flow count that should be live at *epoch*."""
        if self.kind == "constant":
            return 1.0
        if self.kind == "linear":
            if epochs <= 1:
                return 1.0
            span = 1.0 - self.floor_fraction
            return self.floor_fraction + span * (epoch / (epochs - 1))
        if self.kind == "step":
            return 1.0 if epoch >= self.step_epoch else self.floor_fraction
        if self.kind == "burst":
            on = (epoch // max(1, self.period)) % 2 == 0
            return 1.0 if on else self.floor_fraction
        raise ValueError(f"unknown ramp kind: {self.kind!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "floor_fraction": self.floor_fraction,
            "step_epoch": self.step_epoch,
            "period": self.period,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RampSchedule":
        return cls(
            kind=str(payload.get("kind", "constant")),
            floor_fraction=float(payload.get("floor_fraction", 0.1)),
            step_epoch=int(payload.get("step_epoch", 0)),
            period=int(payload.get("period", 4)),
        )


@dataclass(frozen=True)
class LoadSpec:
    """Everything one load run needs; JSON round-trips via to/from_dict.

    ``rate_mbps`` is the *modeled* per-instance scan service rate used by
    the deterministic queueing model (see :mod:`repro.load.driver`) — the
    real kernels still scan every payload, but latency/SLO accounting is
    derived from this rate so digests do not depend on wall-clock timing.
    """

    profile_mix: str = "mixed"
    flows: int = 2000
    epochs: int = 20
    epoch_seconds: float = 0.1
    seed: int = 7
    slo_ms: float = 50.0
    rate_mbps: float = 40.0
    initial_instances: int = 1
    max_packets_per_epoch: int = 5000
    ramp: RampSchedule = field(default_factory=RampSchedule)

    @property
    def slo_seconds(self) -> float:
        return self.slo_ms / 1e3

    @property
    def rate_bytes_per_second(self) -> float:
        return self.rate_mbps * 1e6 / 8.0

    def target_flows(self, epoch: int) -> int:
        """Concurrent-flow target at *epoch* under the ramp schedule."""
        fraction = self.ramp.fraction(epoch, self.epochs)
        return max(1, int(math.ceil(self.flows * fraction)))

    def with_overrides(self, **overrides: Any) -> "LoadSpec":
        """A copy with the given fields replaced (CLI flag overlay)."""
        return replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        return {
            "profile_mix": self.profile_mix,
            "flows": self.flows,
            "epochs": self.epochs,
            "epoch_seconds": self.epoch_seconds,
            "seed": self.seed,
            "slo_ms": self.slo_ms,
            "rate_mbps": self.rate_mbps,
            "initial_instances": self.initial_instances,
            "max_packets_per_epoch": self.max_packets_per_epoch,
            "ramp": self.ramp.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LoadSpec":
        if not isinstance(payload, Mapping):
            raise TypeError(f"load spec must be an object: {payload!r}")
        ramp_payload = payload.get("ramp", {})
        if not isinstance(ramp_payload, Mapping):
            raise TypeError(f"ramp must be an object: {ramp_payload!r}")
        known = {
            "profile_mix": str,
            "flows": int,
            "epochs": int,
            "epoch_seconds": float,
            "seed": int,
            "slo_ms": float,
            "rate_mbps": float,
            "initial_instances": int,
            "max_packets_per_epoch": int,
        }
        kwargs: dict[str, Any] = {}
        for key, cast in known.items():
            if key in payload:
                kwargs[key] = cast(payload[key])
        return cls(ramp=RampSchedule.from_dict(ramp_payload), **kwargs)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "LoadSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
