"""A DPI service instance (paper Section 5).

An instance is initialized by the DPI controller with an
:class:`InstanceConfig` — the pattern sets and properties of every middlebox
it serves plus the policy-chain -> middlebox mapping.  It builds the combined
automaton (literal patterns plus regex anchors), scans packets once for all
active middleboxes, resolves regex confirmations, and produces the
:class:`~repro.core.reports.MatchReport` that travels to the middleboxes.

:class:`DPIServiceFunction` adapts an instance to the simulated network: it
reads the policy-chain tag off arriving packets, marks matched packets via
the ECN bit, and emits the results in one of the three Section 4.2 modes
(dedicated result packet by default, like the paper's prototype).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, TypedDict

from repro.core.combined import CombinedAutomaton
from repro.core.flow_table import ExportedFlow
from repro.core.kernels import KERNEL_NAMES, EngineConfigError
from repro.core.patterns import Pattern, PatternKind
from repro.core.regex import RegexPreFilter, split_matches
from repro.core.reports import MatchReport
from repro.core.scanner import MiddleboxProfile, VirtualScanner
from repro.net.flows import FiveTuple
from repro.net.host import NetworkFunction
from repro.net.nsh import (
    attach_nsh_results,
    build_directed_result_packet,
    build_result_packet,
    encode_tag_results,
)
from repro.net.packet import Packet

RESULT_MODES = ("result_packet", "nsh", "tags")

#: Scan work one match costs, in scanned-byte equivalents.  Measured with
#: the flat kernel under CPython 3.11 on Snort-like sets of 150 and 400
#: patterns: benign ``TrafficGenerator`` payloads carry 0.0 matches/KB and
#: scan at ~85 ns/B; ``match_flood_payload`` carries 94-100 matches/KB and
#: scans at 391-441 ns/B (x4.6-5.2), so one match costs about as much as
#: 40 scanned bytes (a second run read x3.4-3.8, 25-31 bytes).  A flow's
#: or an instance's work is ``bytes + MATCH_WORK_BYTES * matches``: a
#: count, not a duration, so every decision made from it is reproducible.
MATCH_WORK_BYTES = 40


class InstanceUnavailableError(RuntimeError):
    """Raised when an operation reaches a crashed DPI service instance.

    Distinct from ``KeyError`` (unknown instance name) so control-plane
    callers can tell "gone" from "down": a crashed instance still occupies
    its name and may be restarted by the recovery layer.
    """


@dataclass
class InstanceConfig:
    """What the controller passes to an instance at initialization
    (Section 5.1): pattern sets, middlebox properties, chain mapping."""

    pattern_sets: dict[int, list[Pattern]]
    profiles: dict[int, MiddleboxProfile]
    chain_map: dict[int, tuple[int, ...]]
    #: Scan kernel (see repro.core.kernels).  Instances default to the
    #: flat-table kernel; the reference loops remain selectable.
    kernel: str = "flat"

    def __post_init__(self) -> None:
        for middlebox_id in self.pattern_sets:
            if middlebox_id not in self.profiles:
                raise KeyError(f"pattern set without profile: {middlebox_id}")
        if self.kernel not in KERNEL_NAMES:
            raise EngineConfigError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNEL_NAMES}"
            )


class InstanceTelemetrySnapshot(TypedDict):
    """The shape of :meth:`DPIServiceInstance.telemetry_snapshot`."""

    packets_scanned: int
    bytes_scanned: int
    packets_with_matches: int
    total_matches: int
    scan_seconds: float
    regex_confirmations: int
    active_flows: int


@dataclass
class InstanceTelemetry:
    """Counters exported to the controller (the MCA^2 telemetry feed)."""

    packets_scanned: int = 0
    bytes_scanned: int = 0
    packets_with_matches: int = 0
    total_matches: int = 0
    scan_seconds: float = 0.0
    regex_confirmations: int = 0
    #: Scan work per flow (bytes + MATCH_WORK_BYTES x matches), for MCA²
    #: migration of the heaviest flows.
    flow_work: dict[Hashable, int] = field(default_factory=dict)


@dataclass
class InspectionOutput:
    """The outcome of inspecting one packet."""

    #: middlebox id -> [(pattern id, position)], regexes resolved
    matches: dict[int, list[tuple[int, int]]]
    report: MatchReport
    bytes_scanned: int

    @property
    def has_matches(self) -> bool:
        """True when at least one match was found."""
        return not self.report.is_empty


class DPIServiceInstance:
    """The virtual DPI engine serving many middleboxes at once.

    ``telemetry`` is an optional :class:`~repro.telemetry.TelemetryHub`;
    when present, the instance publishes registry counters, a scan-latency
    histogram and per-chain counters, and records ``inspect`` spans for
    packets that carry a trace context.  Without a hub, the scan path pays
    a single attribute check and produces byte-identical results.
    """

    def __init__(
        self, config: InstanceConfig, name: str = "dpi", telemetry=None
    ) -> None:
        self.name = name
        self.telemetry = InstanceTelemetry()
        self.hub = telemetry
        #: False between :meth:`crash` and :meth:`restart`.  A crashed
        #: instance rejects every scan and migration operation with
        #: :class:`InstanceUnavailableError`.
        self.alive = True
        self.crashes = 0
        self.restarts = 0
        self._configure(config)

    def _configure(self, config: InstanceConfig) -> None:
        self.config = config
        self.prefilter = RegexPreFilter()
        literal_sets: dict[int, list[Pattern]] = {}
        for middlebox_id, patterns in config.pattern_sets.items():
            literals = []
            for pattern in patterns:
                if pattern.kind is PatternKind.LITERAL:
                    literals.append(pattern)
                else:
                    literals.extend(self.prefilter.add_regex(middlebox_id, pattern))
            literal_sets[middlebox_id] = literals
        self.automaton = CombinedAutomaton(literal_sets, kernel=config.kernel)
        self.scanner = VirtualScanner(
            self.automaton, config.profiles, config.chain_map
        )
        self._bind_metrics()

    def attach_telemetry(self, hub) -> None:
        """Adopt a telemetry hub after construction and bind the metrics."""
        self.hub = hub
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """(Re)bind the registry metrics; reconfigure rebuilds the scanner
        and the automaton, so the gauges must be rebound to the new
        objects."""
        hub = self.hub
        if hub is None:
            self._m_packets = None
            self._m_bytes = None
            self._m_matches = None
            self._m_seconds = None
            self._h_latency = None
            self._tracer = None
            return
        registry = hub.registry
        name = self.name
        self._m_packets = registry.counter("dpi_packets_scanned_total", instance=name)
        self._m_bytes = registry.counter("dpi_bytes_scanned_total", instance=name)
        self._m_matches = registry.counter("dpi_matches_total", instance=name)
        self._m_seconds = registry.counter("dpi_scan_seconds_total", instance=name)
        self._h_latency = registry.histogram(
            "dpi_scan_latency_seconds", instance=name
        )
        scanner = self.scanner
        registry.gauge_callback(
            "dpi_active_flows", lambda: len(scanner.flow_table), instance=name
        )
        scanner.bind_metrics(registry, name)
        self._tracer = hub.tracer

    def reconfigure(self, config: InstanceConfig) -> None:
        """Adopt a new configuration.

        The combined DFA is rebuilt, so per-flow DFA states from the old
        automaton are meaningless and the flow table starts empty — the same
        consequence a pattern update has on any AC-based engine.
        """
        self._configure(config)

    # --- failure model (fault injection / recovery) ------------------------

    def _require_alive(self) -> None:
        if not self.alive:
            raise InstanceUnavailableError(
                f"instance {self.name} has crashed and was not restarted"
            )

    def crash(self) -> None:
        """Simulate a process crash: the instance stops serving.

        All in-memory per-flow DFA state is lost; every scan or migration
        operation raises :class:`InstanceUnavailableError` until
        :meth:`restart`.  Idempotent — crashing a crashed instance is a
        no-op (matching a double SIGKILL).
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        if self.hub is not None:
            self.hub.registry.counter(
                "dpi_instance_crashes_total", instance=self.name
            ).inc()

    def restart(self) -> None:
        """Bring a crashed instance back with a cold start.

        The automaton is rebuilt from the last pushed configuration; the
        flow table and the local telemetry counters start empty, exactly as
        a freshly spawned process would (registry counters are cumulative
        and keep their history).
        """
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self.telemetry = InstanceTelemetry()
        self._configure(self.config)
        if self.hub is not None:
            self.hub.registry.counter(
                "dpi_instance_restarts_total", instance=self.name
            ).inc()

    # --- inspection -------------------------------------------------------------

    def inspect(
        self,
        payload: bytes,
        *,
        chain_id: int,
        flow_key=None,
        now: float = 0.0,
        trace_parent=None,
    ) -> InspectionOutput:
        """Scan one packet payload for its policy chain and build the report.

        Everything but the payload is keyword-only, and ``chain_id`` is
        required.

        ``trace_parent`` is an optional ``(trace id, span id)`` context; when
        the instance has a tracing telemetry hub, the scan is recorded as an
        ``inspect`` span under it.
        """
        if not self.alive:
            self._require_alive()
        telemetry_on = self._m_packets is not None
        started = time.perf_counter()
        scan = self.scanner.scan_packet(payload, chain_id, flow_key=flow_key, now=now)
        prefilter = self.prefilter
        telemetry = self.telemetry
        final_matches: dict[int, list[tuple[int, int]]] = {}
        total = 0
        for middlebox_id, raw in scan.matches.items():
            # No raw match, no anchor: nothing to split or confirm.
            reportable, anchor_ids = split_matches(raw) if raw else (raw, None)
            found = prefilter.scan_fallback(middlebox_id, payload)
            if anchor_ids:
                confirmed = prefilter.confirm(middlebox_id, payload, anchor_ids)
                telemetry.regex_confirmations += len(confirmed)
                found = confirmed + found
            if found:
                reportable.extend(found)
                # confirm and scan_fallback can both report the same
                # (pattern id, position) when a regex has anchors *and* a
                # fallback expression; report each match once.
                if len(reportable) > 1:
                    reportable = list(dict.fromkeys(reportable))
            final_matches[middlebox_id] = reportable
            total += len(reportable)
        report = MatchReport.from_matches(final_matches) if total else MatchReport()
        elapsed = time.perf_counter() - started

        telemetry.packets_scanned += 1
        telemetry.bytes_scanned += scan.bytes_scanned
        telemetry.scan_seconds += elapsed
        telemetry.total_matches += total
        if total:
            telemetry.packets_with_matches += 1
        if flow_key is not None:
            telemetry.flow_work[flow_key] = (
                telemetry.flow_work.get(flow_key, 0)
                + scan.bytes_scanned
                + MATCH_WORK_BYTES * total
            )
        if telemetry_on:
            self._m_packets.inc()
            self._m_bytes.inc(scan.bytes_scanned)
            self._m_seconds.inc(elapsed)
            self._h_latency.observe(elapsed)
            if total:
                self._m_matches.inc(total)
            tracer = self._tracer
            if tracer is not None and trace_parent is not None and trace_parent[0]:
                tracer.start_span("inspect", trace_parent, {
                    "instance": self.name,
                    "chain": chain_id,
                    "kernel": self.config.kernel,
                    "bytes": scan.bytes_scanned,
                    "matches": total,
                    "elapsed_seconds": elapsed,
                })
        return InspectionOutput(
            matches=final_matches, report=report, bytes_scanned=scan.bytes_scanned
        )

    # --- flow migration (Section 4.3) -----------------------------------------

    def export_flow(self, flow_key) -> "ExportedFlow | None":
        """Hand a flow's scan state to the controller for migration."""
        self._require_alive()
        return self.scanner.flow_table.export_flow(flow_key)

    def import_flow(self, flow_key, exported: ExportedFlow) -> None:
        """Install migrated flow scan state."""
        self._require_alive()
        self.scanner.flow_table.import_flow(flow_key, exported)

    def drop_flow(self, flow_key) -> None:
        """Forget one flow: its scan state and its accumulated work (a
        stateless chain's flows have the second without the first)."""
        self.scanner.flow_table.remove(flow_key)
        self.telemetry.flow_work.pop(flow_key, None)

    def heavy_flows(self, top: int = 5) -> list[tuple[Hashable, int]]:
        """Flows ranked by accumulated scan work, heaviest first."""
        ranked = sorted(
            self.telemetry.flow_work.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:top]

    def telemetry_snapshot(self) -> InstanceTelemetrySnapshot:
        """A plain-dict copy of the counters.  ``active_flows`` is the flow
        table's size *now* (what the ``dpi_active_flows`` gauge reads), so
        drops, evictions, migrations and restarts all show."""
        telemetry = self.telemetry
        return {
            "packets_scanned": telemetry.packets_scanned,
            "bytes_scanned": telemetry.bytes_scanned,
            "packets_with_matches": telemetry.packets_with_matches,
            "total_matches": telemetry.total_matches,
            "scan_seconds": telemetry.scan_seconds,
            "regex_confirmations": telemetry.regex_confirmations,
            "active_flows": len(self.scanner.flow_table),
        }

    def reset_telemetry(self) -> None:
        """Zero every counter (start a fresh observation window)."""
        self.telemetry = InstanceTelemetry()


class DPIServiceFunction(NetworkFunction):
    """Adapter: runs a :class:`DPIServiceInstance` on a simulated host.

    ``direct_chains`` activates the read-only optimization (Section 4.2,
    option 3) for the listed policy-chain ids: those chains' middleboxes
    are *off* the data path, so matched packets trigger result packets
    addressed straight to the middlebox hosts (``middlebox_addresses``
    maps middlebox id to ``(mac, ip)``), and matchless packets generate no
    middlebox traffic at all.
    """

    def __init__(
        self,
        instance: DPIServiceInstance,
        result_mode: str = "result_packet",
        direct_chains=None,
        middlebox_addresses=None,
    ) -> None:
        if result_mode not in RESULT_MODES:
            raise ValueError(
                f"unknown result mode {result_mode!r}; expected one of {RESULT_MODES}"
            )
        self.instance = instance
        self.result_mode = result_mode
        self.direct_chains = set(direct_chains or ())
        self.middlebox_addresses = dict(middlebox_addresses or {})
        if self.direct_chains:
            # Sorted: which missing-address chain raises first must not
            # depend on set iteration order.
            for chain_id in sorted(self.direct_chains):
                for middlebox_id in instance.scanner.chain_map.get(chain_id, ()):
                    if middlebox_id not in self.middlebox_addresses:
                        raise KeyError(
                            f"direct chain {chain_id} needs an address for "
                            f"middlebox {middlebox_id}"
                        )
        self.packets_forwarded = 0
        self.packets_skipped = 0
        self.direct_results_sent = 0
        self.packets_blackholed = 0
        #: Fault injection: while set, emitted result packets have their
        #: report payload deterministically corrupted (first byte flipped),
        #: exercising the middlebox fail-open path.
        self.corrupt_results = False
        self.results_corrupted = 0

    def process(self, packet: Packet) -> list[Packet]:
        # Result packets or untagged traffic pass through untouched.
        """Handle one received packet; return the packets to send on."""
        if not self.instance.alive:
            # A crashed instance forwards nothing: packets steered at its
            # host are blackholed until the recovery layer re-steers the
            # chains (the loss the failover-time budget bounds).
            self.packets_blackholed += 1
            return []
        tags = packet.vlan_stack
        if packet.describes_packet_id is not None or not tags:
            self.packets_skipped += 1
            return [packet]
        chain_id = tags[-1].vid
        if chain_id not in self.instance.scanner.chain_map:
            self.packets_skipped += 1
            return [packet]
        host = self.host
        output = self.instance.inspect(
            packet.payload,
            chain_id=chain_id,
            flow_key=FiveTuple.of(packet),
            now=host.simulator.now if host is not None else 0.0,
            trace_parent=packet.trace,
        )
        self.packets_forwarded += 1
        if output.report.is_empty:
            # No matches: forward as is, without any modification.
            return [packet]
        if chain_id in self.direct_chains:
            return self._emit_direct(packet, output)
        if self.result_mode == "result_packet":
            # Built from the still unmarked header, which the result packet
            # then shares: one header copy per matched packet, the mark's.
            result = build_result_packet(packet, output.report)
            packet.mark_matched()
            if self.corrupt_results and result.payload:
                result.payload = (
                    bytes([result.payload[0] ^ 0xFF]) + result.payload[1:]
                )
                self.results_corrupted += 1
            return [packet, result]
        packet.mark_matched()
        if self.result_mode == "nsh":
            attach_nsh_results(packet, output.report, service_path=chain_id)
        else:
            encode_tag_results(packet, output.report)
        return [packet]

    def _emit_direct(self, packet: Packet, output: InspectionOutput) -> list[Packet]:
        """Read-only mode: data packet continues; one result packet goes
        straight to every middlebox that has matches."""
        emitted = [packet]
        for middlebox_id, matches in output.matches.items():
            if not matches:
                continue
            mac, ip = self.middlebox_addresses[middlebox_id]
            per_middlebox = MatchReport.from_matches({middlebox_id: matches})
            emitted.append(
                build_directed_result_packet(packet, per_middlebox, mac, ip)
            )
            self.direct_results_sent += 1
        return emitted
