"""Span recording around the public entry points of each layer.

The benchmark times the layers from outside: :class:`Recorder.install`
replaces attributes on the live classes and on imported names (never a file
under ``src/``) with wrappers that record one span per call — name, start,
end, parent span, packet id — in memory, and :meth:`Recorder.uninstall` puts
the originals back.  A span's self time is its duration minus the time its
child spans cover; on one thread children never overlap, so that is the sum
of their durations.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

#: (span name, module, owner class or None for a module global, attribute).
#: The groups follow the packet's trip: CORE runs on every workload, NET only
#: under the simulated network, LOAD only under the load driver.  Entry
#: points that also need a count get their wrapper in ``Recorder.install``.
CORE = (
    ("core.flow_table.lookup", "repro.core.flow_table", "FlowTable", "lookup"),
    ("core.flow_table.update", "repro.core.flow_table", "FlowTable", "update"),
    ("core.scanner.scan_packet", "repro.core.scanner", "VirtualScanner", "scan_packet"),
    ("core.regex.confirm", "repro.core.regex", "RegexPreFilter", "confirm"),
    ("core.reports.from_matches", "repro.core.reports", "MatchReport", "from_matches"),
    ("core.reports.decode", "repro.core.reports", "MatchReport", "decode"),
    ("core.instance.inspect", "repro.core.instance", "DPIServiceInstance", "inspect"),
    ("core.instance.process", "repro.core.instance", "DPIServiceFunction", "process"),
    ("net.nsh.build_result_packet", "repro.core.instance", None, "build_result_packet"),
    ("middleboxes.chain.process", "repro.middleboxes.base", "MiddleboxChainFunction", "process"),
    ("middleboxes.rules.evaluate", "repro.middleboxes.base", "RuleEngine", "evaluate"),
    # set-up
    ("core.controller.handle_message", "repro.core.controller", "DPIController", "handle_message"),
    ("core.lifecycle.provision", "repro.core.lifecycle", "InstanceManager", "provision"),
    ("core.combined.build", "repro.core.combined", "CombinedAutomaton", "__init__"),
    ("core.kernels.build", "repro.core.combined", None, "make_kernel"),
    ("net.steering.realize", "repro.net.steering", "TrafficSteeringApplication", "realize"),
)
NET = (
    ("net.switch.receive", "repro.net.switch", "Switch", "receive"),
    ("net.links.send", "repro.net.links", "Link", "send_from"),
    ("net.host.receive", "repro.net.host", "Host", "receive"),
    ("net.host.send", "repro.net.host", "Host", "send"),
    ("net.simulator.run", "repro.net.simulator", "Simulator", "run"),
)
LOAD = (
    ("load.driver.run", "repro.load.driver", "LoadDriver", "run"),
    ("autoscale.tick", "repro.autoscale.controller", "Autoscaler", "tick"),
    ("autoscale.isolate_now", "repro.autoscale.controller", "Autoscaler", "isolate_now"),
)

#: Raw spans of this many leading packets go into the trace file, and no more
#: rows than that (``load-autoscale`` is one outermost call: packet 0).
RAW_SPAN_PACKETS = 256
RAW_SPAN_ROWS = 25_000


class Recorder:
    """Holds the spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start ns, end ns, parent index, packet id)
        self.counts: dict = {}
        self.packet_id = -1  # set by the driving loop before each offer
        self.outer_ns = 0
        self._stack: list = []
        self._originals: list = []

    # --- wrappers ---------------------------------------------------------

    def span(self, name: str, function):
        """*function* wrapped so every call records one span."""
        spans = self.spans
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.packet_id)

        traced.__wrapped__ = function
        return traced

    def _scan_span(self, function):
        """``CombinedAutomaton.scan`` with its byte and root-start counts."""
        traced = self.span("core.combined.scan", function)
        counts = self.counts

        def scan(automaton, data, active_bitmap=None, state=None, limit=None):
            counts["scan.bytes"] = counts.get("scan.bytes", 0) + len(data)
            if (state is None or state == automaton.root) and (
                limit is None or limit >= len(data)
            ):
                counts["scan.root_starts"] = counts.get("scan.root_starts", 0) + 1
            return traced(automaton, data, active_bitmap, state, limit)

        return scan

    def _encode_span(self, function):
        """``MatchReport.encode`` with the encoded sizes added up."""
        traced = self.span("core.reports.encode", function)
        counts = self.counts

        def encode(report):
            encoded = traced(report)
            counts["reports.bytes"] = counts.get("reports.bytes", 0) + len(encoded)
            return encoded

        return encode

    def outer(self, function):
        """An outermost call as the driving loop sees it: its time, stamped
        outside the span wrapper, is what ``bench.span_coverage`` holds the
        sum of self times against."""

        def timed(*args):
            start = perf_counter_ns()
            try:
                return function(*args)
            finally:
                self.outer_ns += perf_counter_ns() - start

        return timed

    def _counting(self, key: str, function):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return function(*args, **kwargs)

        return counted

    def _schedule_span(self, function):
        """``Simulator.schedule`` with the scheduled callback wrapped too, so
        the time an event runs lands on the layer that scheduled it."""
        traced = self.span("net.simulator.schedule", function)

        def schedule(simulator, delay, callback, label=""):
            layer = "net.links.event" if label.startswith("link-") else "net.simulator.event"
            return traced(simulator, delay, self.span(layer, callback), label)

        return schedule

    def _batches_span(self, function):
        """``LoadGenerator.batches`` with one span per batch produced."""

        def batches(generator):
            inner = function(generator)
            produce = self.span("load.generator.next", lambda: next(inner, None))
            while (batch := produce()) is not None:
                yield batch

        return batches

    # --- attribute replacement -------------------------------------------

    def _replace(self, owner, attribute: str, build) -> None:
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._originals.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            replacement = classmethod(build(raw.__func__))
        elif isinstance(raw, property):
            replacement = property(build(raw.fget))
        else:
            replacement = build(raw)
        setattr(owner, attribute, replacement)

    def install(self, *groups) -> None:
        """Wrap every target of *groups* (tuples like :data:`CORE`)."""
        for group in groups:
            for name, module_name, class_name, attribute in group:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                self._replace(owner, attribute, lambda raw, name=name: self.span(name, raw))
            if group is CORE:
                from repro.core.combined import CombinedAutomaton
                from repro.core.reports import MatchReport

                self._replace(CombinedAutomaton, "scan", self._scan_span)
                self._replace(MatchReport, "encode", self._encode_span)
            if group is NET:
                from repro.net.packet import Packet
                from repro.net.simulator import Simulator
                from repro.telemetry.tracing import Tracer

                self._replace(Simulator, "schedule", self._schedule_span)
                self._replace(
                    Packet, "wire_length", lambda raw: self._counting("wire_length", raw)
                )
                self._replace(
                    Tracer, "start_span", lambda raw: self._counting("telemetry.spans", raw)
                )
            if group is LOAD:
                from repro.load.generator import LoadGenerator

                self._replace(LoadGenerator, "batches", self._batches_span)

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def reset(self) -> None:
        """Forget the recorded spans and counts (between passes)."""
        self.spans.clear()
        self.counts.clear()
        self.packet_id = -1
        self.outer_ns = 0

    # --- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """``{span name: {"calls", "total_ns", "self_ns"}}`` over the pass."""
        spans = self.spans
        self_ns = [end - start for _, start, end, _, _ in spans]
        for index, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                self_ns[parent] -= end - start
        layers: dict = {}
        for index, (name, start, end, _, _) in enumerate(spans):
            row = layers.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += self_ns[index]
        return layers

    def raw_spans(self, packets: int = RAW_SPAN_PACKETS) -> list:
        """The spans of the first *packets* packets, as JSON-ready rows."""
        return [
            {"span": index, "name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "packet": packet}
            for index, (name, start, end, parent, packet) in enumerate(self.spans)
            if 0 <= packet < packets
        ][:RAW_SPAN_ROWS]
