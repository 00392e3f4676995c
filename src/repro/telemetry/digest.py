"""A deterministic fingerprint of a telemetry hub's observable state.

``deterministic_digest`` hashes everything a run records that is a pure
function of the workload — metric values, trace spans, the fault timeline —
while excluding the few quantities that depend on the wall clock rather
than the simulator clock: any metric whose name carries a ``seconds`` or
``latency`` component (scan-time counters, latency histograms) and span
attributes with a ``_seconds`` suffix (``elapsed_seconds`` on inspect
spans).  Two same-seed runs of a scenario must produce identical digests;
the determinism regression tests are written against exactly this
function.
"""

from __future__ import annotations

import hashlib
import json

#: A metric name containing any of these tokens is wall-clock-derived and
#: excluded from the digest (token match on ``_``-separated name parts).
TIMING_TOKENS = frozenset({"seconds", "latency"})


def _is_excluded_metric(name: str) -> bool:
    return not TIMING_TOKENS.isdisjoint(name.split("_"))


def _clean_attributes(attributes: dict) -> dict:
    return {
        key: value
        for key, value in attributes.items()
        if not key.endswith("_seconds")
    }


def digest_material(hub) -> dict:
    """The JSON-friendly material the digest is computed over."""
    metrics = []
    for metric in hub.registry.collect():
        payload = dict(metric.as_dict())
        if _is_excluded_metric(payload["name"]):
            continue
        metrics.append(payload)
    spans = []
    if hub.tracer is not None:
        # Packet ids are process-global counters, so two same-seed runs in
        # one process see different absolute values; renumber them by first
        # appearance (identity across spans is what matters, not the value).
        packet_index: dict = {}
        for span in hub.tracer.spans:
            payload = span.as_dict()
            attributes = _clean_attributes(payload["attributes"])
            packet_id = attributes.get("packet_id")
            if packet_id is not None:
                attributes["packet_id"] = packet_index.setdefault(
                    packet_id, len(packet_index)
                )
            payload["attributes"] = attributes
            spans.append(payload)
    faults = [event.as_dict() for event in hub.faults]
    return {"metrics": metrics, "spans": spans, "faults": faults}


def deterministic_digest(hub) -> str:
    """SHA-256 over the hub's workload-determined telemetry."""
    payload = json.dumps(
        digest_material(hub), sort_keys=True, default=str
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
