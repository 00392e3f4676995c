"""Streaming per-flow feature extraction from DPI match metadata.

The extractor never sees payload bytes — only the per-packet facts the DPI
service already produces while scanning once: payload size, match count,
chain id and the (simulated) observation time.  ``observe`` sits on the
inspect hot path, so it does the minimum possible work: append one record
to a pending buffer.  Folding records into per-flow accumulators is
deferred to the first read (``features``/``flow_keys``/…), which in the
load driver means the epoch boundary — the same place the rest of the
epoch accounting runs.  Every accumulator update is O(1) and applied in
arrival order, so features are *by construction* invariant to how packets
are batched and to how flows interleave: the only state is per-flow sums
updated in that flow's own arrival order, regardless of when draining
happens.

``features()`` freezes the accumulators into a :class:`FlowFeatures` row
whose :meth:`~FlowFeatures.vector` is the canonical input to
:class:`~repro.anomaly.classifier.AnomalyClassifier`.  All arithmetic is
plain floats over identical operand sequences, so two extractors fed the
same per-flow observation streams produce bit-identical vectors — that is
what the cross-leg ``features_digest`` in the differential harness pins.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Mapping

#: Upper bounds of the payload-size histogram bins (bytes); one extra
#: overflow bin catches everything above the last bound.
SIZE_BIN_BOUNDS = (64, 128, 256, 512, 1024)

_HIST_NAMES = tuple(
    f"hist_le{bound}" for bound in SIZE_BIN_BOUNDS
) + (f"hist_gt{SIZE_BIN_BOUNDS[-1]}",)

#: Canonical feature order; ``FlowFeatures.vector()`` follows it exactly.
FEATURE_NAMES = (
    "pkt_rate",
    "byte_rate",
    "mean_size",
    "size_cv",
    "iat_mean",
    "iat_cv",
    "match_density",
    "matches_per_kb",
) + _HIST_NAMES


@dataclass(frozen=True)
class FlowFeatures:
    """One flow's frozen feature row (raw aggregates + derived vector).

    Rates are per observed second of flow lifetime; a single-observation
    flow has zero lifetime, so its rates degrade to the raw counts (the
    deterministic convention the unit fixtures pin).
    """

    flow_key: Hashable
    chain_id: int
    packets: int
    bytes: int
    matches: int
    first_seen: float
    last_seen: float
    pkt_rate: float
    byte_rate: float
    mean_size: float
    size_cv: float
    iat_mean: float
    iat_cv: float
    match_density: float
    matches_per_kb: float
    size_hist: tuple[float, ...]

    @property
    def duration(self) -> float:
        return self.last_seen - self.first_seen

    def vector(self) -> tuple[float, ...]:
        """The classifier input, ordered exactly as :data:`FEATURE_NAMES`."""
        return (
            self.pkt_rate,
            self.byte_rate,
            self.mean_size,
            self.size_cv,
            self.iat_mean,
            self.iat_cv,
            self.match_density,
            self.matches_per_kb,
        ) + self.size_hist

    def to_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "flow_key": repr(self.flow_key),
            "chain_id": self.chain_id,
            "packets": self.packets,
            "bytes": self.bytes,
            "matches": self.matches,
        }
        for name, value in zip(FEATURE_NAMES, self.vector()):
            row[name] = value
        return row


# Per-flow accumulators are flat lists, not objects: ``observe`` sits on
# the inspect hot path and a list literal allocates ~5x faster than a
# slotted instance, while integer indexing beats attribute access.  The
# histogram buckets live inline at the tail (``_HIST`` onward).
_CHAIN, _PACKETS, _BYTES, _MATCHES, _FIRST, _LAST = range(6)
_IAT_SUM, _IAT_SQ, _SIZE_SQ, _HIST = 6, 7, 8, 9
_ACC_LEN = _HIST + len(SIZE_BIN_BOUNDS) + 1
# The observe() fast path spells the accumulator out as a literal; keep it
# in sync with the layout above.
assert _ACC_LEN == 15


def _std(sq_sum: float, total: float, count: int) -> float:
    if count <= 0:
        return 0.0
    mean = total / count
    variance = sq_sum / count - mean * mean
    return math.sqrt(variance) if variance > 0.0 else 0.0


class FeatureExtractor:
    """Streaming extractor over (flow, size, matches, time) observations.

    ``observe`` only appends to a pending buffer; records are folded into
    per-flow accumulators lazily, on the first read.  ``max_flows`` bounds
    memory: once the table is full, observations for *new* flows are
    counted in :attr:`evicted_observations` and dropped — deterministically,
    since admission depends only on arrival order.
    """

    def __init__(self, *, max_flows: int = 1_000_000) -> None:
        if max_flows < 1:
            raise ValueError(f"max_flows must be positive: {max_flows}")
        self.max_flows = max_flows
        self._flows: dict[Hashable, list[Any]] = {}
        self._pending: list[tuple[Hashable, int, int, int, float]] = []
        self._observations = 0
        self._evicted = 0

    @property
    def observations(self) -> int:
        """Observations folded into flow accumulators so far."""
        self._drain()
        return self._observations

    @property
    def evicted_observations(self) -> int:
        """Observations dropped because the flow table was full."""
        self._drain()
        return self._evicted

    def __len__(self) -> int:
        self._drain()
        return len(self._flows)

    def __contains__(self, flow_key: Hashable) -> bool:
        self._drain()
        return flow_key in self._flows

    def observe(
        self,
        flow_key: Hashable,
        *,
        chain_id: int,
        size: int,
        matches: int,
        now: float,
    ) -> None:
        """Record one packet's scan metadata (hot path: one append)."""
        self._pending.append((flow_key, chain_id, size, matches, now))

    def observe_batch(
        self,
        observations: Iterable[tuple[Hashable, int, int, int, float]],
    ) -> None:
        """Convenience: ``(flow_key, chain_id, size, matches, now)`` rows."""
        self._pending.extend(observations)

    def _drain(self) -> None:
        """Fold pending records into accumulators, in arrival order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        flows = self._flows
        max_flows = self.max_flows
        folded = evicted = 0
        for flow_key, chain_id, size, matches, now in pending:
            acc = flows.get(flow_key)
            if acc is not None:
                gap = now - acc[_LAST]
                acc[_IAT_SUM] += gap
                acc[_IAT_SQ] += gap * gap
                acc[_PACKETS] += 1
                acc[_BYTES] += size
                acc[_MATCHES] += matches
                acc[_LAST] = now
                fsize = float(size)
                acc[_SIZE_SQ] += fsize * fsize
                acc[_HIST + bisect_left(SIZE_BIN_BOUNDS, size)] += 1
            else:
                if len(flows) >= max_flows:
                    evicted += 1
                    continue
                fsize = float(size)
                acc = [chain_id, 1, size, matches, now, now,
                       0.0, 0.0, fsize * fsize, 0, 0, 0, 0, 0, 0]
                acc[_HIST + bisect_left(SIZE_BIN_BOUNDS, size)] = 1
                flows[flow_key] = acc
            folded += 1
        self._observations += folded
        self._evicted += evicted

    def flow_keys(self) -> list[Hashable]:
        """Tracked flow keys, sorted by repr (mixed key types stay stable)."""
        self._drain()
        return sorted(self._flows, key=repr)

    def features(self, flow_key: Hashable) -> FlowFeatures:
        """Freeze one flow's accumulators into a :class:`FlowFeatures`."""
        self._drain()
        acc = self._flows.get(flow_key)
        if acc is None:
            raise KeyError(f"unknown flow: {flow_key!r}")
        duration = acc[_LAST] - acc[_FIRST]
        packets = acc[_PACKETS]
        total = acc[_BYTES]
        if duration > 0.0:
            pkt_rate = packets / duration
            byte_rate = total / duration
        else:
            # Zero observed lifetime: rates degrade to the raw counts.
            pkt_rate = float(packets)
            byte_rate = float(total)
        mean_size = total / packets
        size_std = _std(acc[_SIZE_SQ], float(total), packets)
        size_cv = size_std / mean_size if mean_size > 0.0 else 0.0
        intervals = packets - 1
        if intervals > 0:
            iat_mean = acc[_IAT_SUM] / intervals
            iat_std = _std(acc[_IAT_SQ], acc[_IAT_SUM], intervals)
            iat_cv = iat_std / iat_mean if iat_mean > 0.0 else 0.0
        else:
            iat_mean = 0.0
            iat_cv = 0.0
        return FlowFeatures(
            flow_key=flow_key,
            chain_id=acc[_CHAIN],
            packets=packets,
            bytes=total,
            matches=acc[_MATCHES],
            first_seen=acc[_FIRST],
            last_seen=acc[_LAST],
            pkt_rate=pkt_rate,
            byte_rate=byte_rate,
            mean_size=mean_size,
            size_cv=size_cv,
            iat_mean=iat_mean,
            iat_cv=iat_cv,
            match_density=acc[_MATCHES] / packets,
            matches_per_kb=acc[_MATCHES] / (total / 1024.0) if total else 0.0,
            size_hist=tuple(count / packets for count in acc[_HIST:]),
        )

    def features_map(self) -> dict[Hashable, FlowFeatures]:
        """Every tracked flow's features, in sorted-key order."""
        return {key: self.features(key) for key in self.flow_keys()}

    def iter_features(self) -> Iterator[FlowFeatures]:
        for key in self.flow_keys():
            yield self.features(key)


def features_digest(features: Mapping[Hashable, FlowFeatures]) -> str:
    """A canonical digest over a feature map (bit-exact float reprs).

    Two extractors that observed the same per-flow metadata — regardless
    of kernel — produce the same digest; the differential harness compares
    it across its legs.
    """
    canonical = []
    for key in sorted(features, key=repr):
        row = features[key]
        canonical.append(
            {
                "flow": repr(key),
                "chain": row.chain_id,
                "packets": row.packets,
                "bytes": row.bytes,
                "matches": row.matches,
                "vector": [repr(value) for value in row.vector()],
            }
        )
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


__all__ = [
    "FEATURE_NAMES",
    "SIZE_BIN_BOUNDS",
    "FeatureExtractor",
    "FlowFeatures",
    "features_digest",
]
