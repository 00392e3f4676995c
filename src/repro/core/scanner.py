"""Per-packet inspection against the combined automaton (paper Section 5.2).

The :class:`VirtualScanner` ties together:

* the policy-chain tag -> active-middlebox mapping received from the DPI
  controller at initialization;
* per-middlebox properties (stateful vs stateless, stopping condition,
  read-only) — :class:`MiddleboxProfile`;
* the active-flow table for stateful scans;
* the post-scan pruning rules: stopping conditions for everyone, plus the
  stateless rule that a match whose pattern began in a previous packet (its
  length exceeds ``cnt``) must be discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.combined import CombinedAutomaton
from repro.core.flow_table import FlowTable


@dataclass(frozen=True)
class MiddleboxProfile:
    """The properties a middlebox declares at registration (Section 4.1).

    ``stopping_condition`` bounds how deep the scan must look: into the
    *flow* for stateful middleboxes, into each *packet* for stateless ones.
    ``None`` means unbounded.  ``read_only`` middleboxes need only the match
    results, not the packet itself (e.g. an IDS, as opposed to an IPS).
    """

    middlebox_id: int
    name: str = ""
    stateful: bool = False
    stopping_condition: int | None = None
    read_only: bool = False

    def __post_init__(self) -> None:
        if self.middlebox_id < 0:
            raise ValueError(f"negative middlebox id: {self.middlebox_id}")
        if self.stopping_condition is not None and self.stopping_condition <= 0:
            raise ValueError(
                f"stopping condition must be positive: {self.stopping_condition}"
            )


@dataclass
class ScanResult:
    """Per-middlebox match lists for one packet.

    ``matches`` maps middlebox id to ``(pattern id, position)`` pairs, where
    position is the end offset of the match — within the packet for stateless
    middleboxes (``cnt``) and within the flow for stateful ones
    (``cnt + offset``), exactly as the paper specifies for what is sent along
    with the pattern identifier.  Each list is in (position, pattern id)
    order: every kernel emits one accepting state per position, in position
    order, and a state's match entry is pattern-sorted.
    """

    matches: dict = field(default_factory=dict)
    bytes_scanned: int = 0
    flow_offset_before: int = 0
    started_from_root: bool = True

    @property
    def has_matches(self) -> bool:
        """True when any middlebox got a match."""
        return any(self.matches.values())

    def matches_for(self, middlebox_id: int) -> list:
        """The ``(pattern id, position)`` pairs for one middlebox."""
        return self.matches.get(middlebox_id, [])

    def total_matches(self) -> int:
        """Total number of matches across all middleboxes."""
        return sum(len(entries) for entries in self.matches.values())


class VirtualScanner:
    """Scans packets once for all middleboxes on their policy chain."""

    def __init__(
        self,
        automaton: CombinedAutomaton,
        profiles: dict,
        chain_map: dict,
    ) -> None:
        """``profiles`` maps middlebox id -> :class:`MiddleboxProfile`;
        ``chain_map`` maps policy-chain id -> tuple of middlebox ids."""
        self.automaton = automaton
        self.profiles = dict(profiles)
        self.chain_map = {
            chain_id: tuple(middleboxes)
            for chain_id, middleboxes in chain_map.items()
        }
        for chain_id, middleboxes in self.chain_map.items():
            for middlebox_id in middleboxes:
                if middlebox_id not in self.profiles:
                    raise KeyError(
                        f"chain {chain_id} references middlebox {middlebox_id} "
                        "with no profile"
                    )
        self.flow_table = FlowTable(initial_state=automaton.root)
        # chain id -> (bitmap, profiles, any stateful, limit is fixed, limit)
        self._chain_plans: dict = {}
        # Telemetry (optional): per-chain (packets, bytes) counter pairs.
        self._registry = None
        self._instance_label = ""
        self._chain_metrics: dict = {}
        for chain_id, middleboxes in self.chain_map.items():
            self._install_chain(chain_id, middleboxes)

    def _install_chain(self, chain_id: int, middlebox_ids) -> None:
        """Precompute everything ``scan_packet`` needs per chain."""
        bitmap = 0
        for middlebox_id in middlebox_ids:
            bitmap |= 1 << middlebox_id
        profiles = tuple(self.profiles[m] for m in middlebox_ids)
        any_stateful = any(p.stateful for p in profiles)
        # The scan limit moves with the flow offset only when every profile
        # is bounded and a stateful one is among them.
        limit_fixed = not any_stateful or any(
            p.stopping_condition is None for p in profiles
        )
        self._chain_plans[chain_id] = (
            bitmap,
            profiles,
            any_stateful,
            limit_fixed,
            self.scan_limit(profiles, 0) if limit_fixed else None,
        )
        if self._registry is not None:
            self._bind_chain_metrics(chain_id)

    # --- telemetry --------------------------------------------------------

    def bind_metrics(self, registry, instance_name: str) -> None:
        """Publish per-chain scan counters into *registry*, labeled with
        the owning instance's name."""
        self._registry = registry
        self._instance_label = instance_name
        for chain_id in self.chain_map:
            self._bind_chain_metrics(chain_id)

    def _bind_chain_metrics(self, chain_id: int) -> None:
        registry = self._registry
        labels = {"instance": self._instance_label, "chain": chain_id}
        self._chain_metrics[chain_id] = (
            registry.counter("dpi_chain_packets_total", **labels),
            registry.counter("dpi_chain_bytes_total", **labels),
        )

    # --- configuration updates --------------------------------------------

    def set_chain(self, chain_id: int, middlebox_ids) -> None:
        """Install or replace a policy chain's middlebox list."""
        for middlebox_id in middlebox_ids:
            if middlebox_id not in self.profiles:
                raise KeyError(f"no profile for middlebox {middlebox_id}")
        self.chain_map[chain_id] = tuple(middlebox_ids)
        self._install_chain(chain_id, self.chain_map[chain_id])

    def remove_chain(self, chain_id: int) -> None:
        """Forget a policy chain (packets for it will raise)."""
        self.chain_map.pop(chain_id, None)
        self._chain_plans.pop(chain_id, None)

    # --- scanning ------------------------------------------------------------

    def select_kernel(self, kernel: str) -> None:
        """Switch the automaton's scan kernel (see :mod:`repro.core.kernels`)."""
        self.automaton.select_kernel(kernel)

    def scan_limit(self, active_profiles, flow_offset: int) -> int | None:
        """The most conservative stopping condition (paper Section 5.2):
        scan as deep as the *deepest* interested middlebox requires."""
        limit = 0
        for profile in active_profiles:
            if profile.stopping_condition is None:
                return None
            if profile.stateful:
                remaining = profile.stopping_condition - flow_offset
            else:
                remaining = profile.stopping_condition
            limit = max(limit, remaining)
        return max(limit, 0)

    def scan_packet(
        self,
        payload: bytes,
        chain_id: int,
        flow_key=None,
        now: float = 0.0,
    ) -> ScanResult:
        """Inspect one packet payload for every middlebox on its chain."""
        try:
            active_ids = self.chain_map[chain_id]
        except KeyError:
            raise KeyError(f"unknown policy chain id: {chain_id}") from None
        active_bitmap, active_profiles, any_stateful, limit_fixed, limit = (
            self._chain_plans[chain_id]
        )
        automaton = self.automaton
        root = automaton.root

        # Restore per-flow state when a stateful middlebox is on the chain.
        start_state = root
        offset = 0
        if any_stateful and flow_key is not None:
            flow_state = self.flow_table.lookup(flow_key)
            if flow_state is not None:
                start_state = flow_state.state
                offset = flow_state.offset

        if not limit_fixed:
            limit = self.scan_limit(active_profiles, offset)
        scan = automaton.scan(
            payload, active_bitmap=active_bitmap, state=start_state, limit=limit
        )

        started_from_root = start_state == root
        matches: dict = {middlebox_id: [] for middlebox_id in active_ids}
        result = ScanResult(
            matches=matches,
            bytes_scanned=scan.bytes_scanned,
            flow_offset_before=offset,
            started_from_root=started_from_root,
        )
        if scan.raw_matches:
            profiles = self.profiles
            resolve = automaton.resolve
            for accept_state, cnt in scan.raw_matches:
                for (middlebox_id, pattern_id), length in resolve(
                    accept_state, active_bitmap
                ):
                    profile = profiles[middlebox_id]
                    if profile.stateful:
                        position = cnt + offset
                        if (
                            profile.stopping_condition is not None
                            and position > profile.stopping_condition
                        ):
                            continue
                    else:
                        # Stateless: discard matches that began in a previous
                        # packet (the scan only started mid-DFA because some
                        # *other* middlebox on the chain is stateful).
                        if not started_from_root and length > cnt:
                            continue
                        if (
                            profile.stopping_condition is not None
                            and cnt > profile.stopping_condition
                        ):
                            continue
                        position = cnt
                    matches[middlebox_id].append((pattern_id, position))

        if any_stateful and flow_key is not None:
            self.flow_table.update(
                flow_key, scan.end_state, offset + scan.bytes_scanned, now
            )
        if self._registry is not None:
            pair = self._chain_metrics.get(chain_id)
            if pair is not None:
                pair[0].inc()
                pair[1].inc(scan.bytes_scanned)
        return result

    def scan_flow(
        self, packets, chain_id: int, flow_key, now: float = 0.0
    ) -> list:
        """Scan a sequence of packet payloads of one flow, in order."""
        return [
            self.scan_packet(payload, chain_id, flow_key=flow_key, now=now)
            for payload in packets
        ]
