"""Elastic autoscaling for DPI service instances.

Watches the telemetry registry (PR 2) and drives the
:class:`~repro.core.lifecycle.InstanceManager` facade (PR 4) against a
p99-latency SLO.  See :mod:`repro.autoscale.controller` for the loop and
:mod:`repro.autoscale.policies` for the pluggable decision functions.
"""

from repro.autoscale.controller import (
    FAULT_EVENTS,
    LOAD_OFFERED_BYTES,
    LOAD_PACKETS,
    LOAD_QUEUE_DEPTH,
    LOAD_QUEUE_LATENCY,
    LOAD_SERVED_BYTES,
    LOAD_SLO_VIOLATIONS,
    LOAD_SUPPRESSED,
    QUEUE_LATENCY_BUCKETS,
    AutoscaleEvent,
    Autoscaler,
)
from repro.autoscale.policies import (
    POLICY_NAMES,
    HysteresisPolicy,
    IsolationPolicy,
    LoadSignals,
    ScalingDecision,
    ScalingPolicy,
    StressPolicy,
    ThresholdPolicy,
    build_policies,
)

__all__ = [
    "AutoscaleEvent",
    "Autoscaler",
    "HysteresisPolicy",
    "IsolationPolicy",
    "LoadSignals",
    "POLICY_NAMES",
    "QUEUE_LATENCY_BUCKETS",
    "ScalingDecision",
    "ScalingPolicy",
    "StressPolicy",
    "ThresholdPolicy",
    "build_policies",
    "FAULT_EVENTS",
    "LOAD_OFFERED_BYTES",
    "LOAD_PACKETS",
    "LOAD_QUEUE_DEPTH",
    "LOAD_QUEUE_LATENCY",
    "LOAD_SERVED_BYTES",
    "LOAD_SLO_VIOLATIONS",
    "LOAD_SUPPRESSED",
]
