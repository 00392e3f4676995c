"""The active-flow table of a DPI service instance.

For stateful middleboxes the scan must continue across packet boundaries, so
the instance keeps, per flow, the DFA state at the end of the last scanned
packet and the byte offset within the flow (paper Sections 5.1-5.2).  The
paper notes this is *all* the per-flow state a DPI instance holds — which is
what makes instance migration cheap compared to migrating a middlebox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, TypedDict


class ExportedFlow(TypedDict):
    """Wire form of one flow's scan state (Section 4.3 flow migration)."""

    state: int
    offset: int
    last_seen: float
    packets: int


@dataclass
class FlowScanState:
    """Scan state carried between packets of one flow."""

    state: int
    offset: int
    last_seen: float = 0.0
    packets: int = 0


class FlowTable:
    """Flow-keyed store of :class:`FlowScanState` with idle eviction."""

    def __init__(self, initial_state: int = 0) -> None:
        self._initial_state = initial_state
        self._flows: dict[Hashable, FlowScanState] = {}

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_key) -> bool:
        return flow_key in self._flows

    def lookup(self, flow_key) -> FlowScanState | None:
        """The stored state for *flow_key*, or None for a new flow."""
        return self._flows.get(flow_key)

    def lookup_or_create(self, flow_key, now: float = 0.0) -> FlowScanState:
        """The flow's state, creating a fresh entry when new."""
        state = self._flows.get(flow_key)
        if state is None:
            state = FlowScanState(
                state=self._initial_state, offset=0, last_seen=now
            )
            self._flows[flow_key] = state
        return state

    def update(
        self, flow_key, state: int, offset: int, now: float = 0.0
    ) -> FlowScanState:
        """Store a flow's state after scanning one packet."""
        entry = self.lookup_or_create(flow_key, now)
        entry.state = state
        entry.offset = offset
        entry.last_seen = now
        entry.packets += 1
        return entry

    def remove(self, flow_key) -> FlowScanState | None:
        """Remove and return one entry; ``None`` if absent."""
        return self._flows.pop(flow_key, None)

    def evict_idle(self, now: float, max_idle: float) -> int:
        """Drop flows idle for longer than *max_idle*; returns evictions."""
        stale = [
            key
            for key, entry in self._flows.items()
            if now - entry.last_seen > max_idle
        ]
        for key in stale:
            del self._flows[key]
        return len(stale)

    def export_flow(self, flow_key) -> ExportedFlow | None:
        """Serialize one flow's state for migration to another instance."""
        entry = self._flows.get(flow_key)
        if entry is None:
            return None
        return {
            "state": entry.state,
            "offset": entry.offset,
            "last_seen": entry.last_seen,
            "packets": entry.packets,
        }

    def import_flow(self, flow_key, exported: ExportedFlow) -> None:
        """Install state exported from another instance."""
        self._flows[flow_key] = FlowScanState(
            state=exported["state"],
            offset=exported["offset"],
            last_seen=exported["last_seen"],
            packets=exported["packets"],
        )

    def flow_keys(self) -> list[Hashable]:
        """Keys of every tracked flow."""
        return list(self._flows)
