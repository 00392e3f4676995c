"""The one typed telemetry accessor: :class:`TelemetrySnapshot`.

``build_snapshot(controller)`` folds the per-instance scan counters, the
whole ``MetricsRegistry.snapshot()`` and the fault-event history into one
frozen :class:`TelemetrySnapshot`, reachable as
``controller.telemetry_snapshot()``.

:class:`FaultEvent` also lives here: it is the record type
:meth:`~repro.telemetry.TelemetryHub.record_fault` appends for every
injected fault and every detection/recovery transition, so a snapshot
carries the full fault history alongside the metrics it explains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.telemetry.registry import RegistrySnapshot

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.controller import DPIController
    from repro.core.instance import InstanceTelemetrySnapshot

__all__ = ["FaultEvent", "TelemetrySnapshot", "build_snapshot"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault-related transition on the telemetry timeline.

    ``phase`` distinguishes the lifecycle of a fault: ``inject`` (the
    fault plan fired), ``detect`` (heartbeat monitor noticed), ``recover``
    (failover / degradation / reattach completed).  ``kind`` names the
    fault or recovery action (``instance_crash``, ``link_down``,
    ``failover``, ``degrade``, ``reattach``, ...) and ``target`` the
    instance, link or chain affected.
    """

    time: float
    kind: str
    target: str
    phase: str = "inject"
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly copy (the JSONL exporter's event body)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "target": self.target,
            "phase": self.phase,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Everything the controller knows about the system at one instant."""

    #: hub-clock timestamp the snapshot was taken at
    ts: float
    #: per-instance scan counters (``DPIServiceInstance.telemetry_snapshot``)
    instances: Mapping[str, "InstanceTelemetrySnapshot"]
    #: per-instance liveness (False while crashed)
    alive: Mapping[str, bool]
    #: the full metrics registry (``MetricsRegistry.snapshot()``'s payload)
    metrics: RegistrySnapshot
    #: every fault event recorded so far, in injection order
    faults: tuple[FaultEvent, ...] = field(default_factory=tuple)


def build_snapshot(controller: "DPIController") -> TelemetrySnapshot:
    """The controller's unified telemetry view, frozen at the hub clock."""
    hub = controller.telemetry
    return TelemetrySnapshot(
        ts=hub.now(),
        instances={
            name: instance.telemetry_snapshot()
            for name, instance in controller.instances.items()
        },
        alive={
            name: instance.alive
            for name, instance in controller.instances.items()
        },
        metrics=hub.registry.snapshot(),
        faults=tuple(hub.faults),
    )
