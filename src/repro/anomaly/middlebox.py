"""The anomaly detector as a DPI-service chain consumer.

:class:`AnomalyDetectorMiddlebox` is a read-only
:class:`~repro.middleboxes.base.DPIServiceMiddlebox` with an *empty*
pattern set: it registers over the same JSON control channel as the IDS
and AV middleboxes, rides chains through the same adapters, and consumes
the same match reports — but what it extracts from them is statistics,
not rule verdicts.  Every observation is one packet's scan metadata
(payload size, match count, time); payload bytes are never re-read, which
is the whole "scan once, serve many consumers" point.

Telemetry is aggregate-only by design: observation/flag counters and a
tracked-flows gauge, never per-flow labels (a million-flow label space
would grow the registry with traffic, which the cardinality tests forbid).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.anomaly.classifier import (
    AnomalyClassifier,
    AnomalyVerdict,
    verdict_digest,
)
from repro.anomaly.features import (
    FeatureExtractor,
    FlowFeatures,
    features_digest,
)
from repro.middleboxes.base import Action, DPIServiceMiddlebox
from repro.net.packet import Packet

#: Metric names this consumer publishes (aggregates only — no per-flow labels).
ANOMALY_OBSERVATIONS = "anomaly_observations_total"
ANOMALY_FLAGGED = "anomaly_flows_flagged_total"
ANOMALY_TRACKED = "anomaly_flows_tracked"


class AnomalyDetectorMiddlebox(DPIServiceMiddlebox):
    """A read-only middlebox that turns match reports into flow features.

    Two feed paths converge on the same extractor:

    * the *chain* path — :meth:`consume_report` / :meth:`consume_unmarked`
      overrides observe each packet as it flows through a policy chain
      adapter, exactly like any other middlebox consumer;
    * the *direct* path — :meth:`observe` / :meth:`observe_output` let an
      owner that already holds the :class:`~repro.core.instance.
      InspectionOutput` (the load driver, the differential harness) feed
      scan metadata without building packets.

    ``clock`` supplies observation times on the chain path; without one, a
    deterministic internal tick is used so features never depend on wall
    time.
    """

    TYPE_NAME = "anomaly"
    READ_ONLY = True

    def __init__(
        self,
        middlebox_id: int,
        name: "str | None" = None,
        *,
        classifier: "AnomalyClassifier | None" = None,
        extractor: "FeatureExtractor | None" = None,
        registry: Any = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        super().__init__(middlebox_id, name)
        self.extractor = extractor if extractor is not None else FeatureExtractor()
        self.classifier = (
            classifier if classifier is not None else AnomalyClassifier()
        )
        self._clock = clock
        self._tick = 0.0
        self._flagged: set[Hashable] = set()
        self._observations_counter = None
        self._flagged_counter = None
        self._tracked_gauge = None
        if registry is not None:
            self._observations_counter = registry.counter(ANOMALY_OBSERVATIONS)
            self._flagged_counter = registry.counter(ANOMALY_FLAGGED)
            self._tracked_gauge = registry.gauge(ANOMALY_TRACKED)

    # -- observation ------------------------------------------------------

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        self._tick += 1.0
        return self._tick

    def observe(
        self,
        flow_key: Hashable,
        *,
        chain_id: int,
        size: int,
        matches: int,
        now: "float | None" = None,
    ) -> None:
        """Record one packet's scan metadata (hot path: one append).

        The tracked-flows gauge is refreshed on the read path
        (:meth:`features_map`), not here — counting tracked flows would
        force the extractor to fold its pending buffer per packet.
        """
        self.extractor.observe(
            flow_key,
            chain_id=chain_id,
            size=size,
            matches=matches,
            now=self._now() if now is None else now,
        )
        if self._observations_counter is not None:
            self._observations_counter.inc()

    def observe_output(
        self,
        flow_key: Hashable,
        *,
        chain_id: int,
        size: int,
        output: Any,
        now: "float | None" = None,
    ) -> None:
        """Direct path: observe straight from an ``InspectionOutput``."""
        matches = sum(len(hits) for hits in output.matches.values())
        self.observe(
            flow_key, chain_id=chain_id, size=size, matches=matches, now=now
        )

    def register_with(self, controller: Any) -> None:
        """Register over the control channel; no patterns to upload."""
        ack = controller.handle_message(self.registration_message().to_json())
        if not ack.ok:
            raise RuntimeError(f"registration rejected: {ack.detail}")
        if self.patterns:
            ack = controller.handle_message(self.patterns_message().to_json())
            if not ack.ok:
                raise RuntimeError(f"pattern upload rejected: {ack.detail}")

    # -- chain-consumer path ---------------------------------------------

    def _observe_packet(self, packet: Packet, matches: int) -> None:
        from repro.net.flows import FiveTuple

        self.observe(
            FiveTuple.of(packet),
            chain_id=0,  # chain identity is not carried on the packet
            size=len(packet.payload),
            matches=matches,
        )

    def consume_report(self, packet: Packet, report: Any) -> Action:
        self._observe_packet(packet, report.total_records())
        return super().consume_report(packet, report)

    def consume_unmarked(self, packet: Packet) -> Action:
        self._observe_packet(packet, 0)
        return super().consume_unmarked(packet)

    # -- verdicts ---------------------------------------------------------

    def features_map(self) -> dict[Hashable, FlowFeatures]:
        features = self.extractor.features_map()
        if self._tracked_gauge is not None:
            self._tracked_gauge.set(len(features))
        return features

    def verdicts(self) -> list[AnomalyVerdict]:
        """Classify every tracked flow (sorted-key order, deterministic).

        An unfitted classifier scores flows against the current population
        (self-calibration); a fitted one uses its frozen baseline.  The
        flagged counter counts each flow at most once across calls.
        """
        verdicts = self.classifier.classify_all(
            self.features_map(), self_calibrate=True
        )
        if self._flagged_counter is not None:
            fresh = [
                verdict.flow_key
                for verdict in verdicts
                if verdict.anomalous and verdict.flow_key not in self._flagged
            ]
            if fresh:
                self._flagged_counter.inc(len(fresh))
        self._flagged.update(
            verdict.flow_key for verdict in verdicts if verdict.anomalous
        )
        return verdicts

    def anomalous_flows(self) -> list[tuple[Hashable, int]]:
        """Flagged ``(flow_key, chain_id)`` pairs, sorted-key order."""
        return [
            (verdict.flow_key, verdict.chain_id)
            for verdict in self.verdicts()
            if verdict.anomalous
        ]

    def digest(self) -> str:
        """Canonical digest over features + verdicts (bit-reproducible)."""
        import hashlib

        combined = features_digest(self.features_map()) + verdict_digest(
            self.verdicts()
        )
        return hashlib.sha256(combined.encode()).hexdigest()


__all__ = [
    "ANOMALY_FLAGGED",
    "ANOMALY_OBSERVATIONS",
    "ANOMALY_TRACKED",
    "AnomalyDetectorMiddlebox",
]
