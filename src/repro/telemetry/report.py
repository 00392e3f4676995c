"""Plain-text telemetry summary (the ``repro-dpi report`` renderer).

Rendering reads the registry only through public accessors, so any
combination of producers works — a full simulation, a bare-instance scan
run, or a hand-built registry in a test.
"""

from __future__ import annotations


def _table(headers: list, rows: list) -> list:
    """Align *rows* under *headers*; returns the rendered lines."""
    cells = [headers] + [[str(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def _label_values(registry, metric_name: str, label: str) -> list:
    """Distinct values of one label across a metric's variants, sorted."""
    values = {
        metric.labels.get(label)
        for metric in registry.collect_named(metric_name)
        if label in metric.labels
    }
    return sorted(values)


def _instance_rows(registry) -> list:
    rows = []
    for name in _label_values(registry, "dpi_packets_scanned_total", "instance"):
        packets = registry.value("dpi_packets_scanned_total", instance=name)
        scanned = registry.value("dpi_bytes_scanned_total", instance=name)
        matches = registry.value("dpi_matches_total", instance=name)
        seconds = registry.value("dpi_scan_seconds_total", instance=name)
        ns_per_byte = seconds * 1e9 / scanned if scanned else 0.0
        latency = registry.get("dpi_scan_latency_seconds", instance=name)
        mean_us = latency.mean * 1e6 if latency is not None else 0.0
        if latency is not None:
            quantiles = latency.percentiles((0.50, 0.95, 0.99))
            p50_us = quantiles[0.50] * 1e6
            p95_us = quantiles[0.95] * 1e6
            p99_us = quantiles[0.99] * 1e6
        else:
            p50_us = p95_us = p99_us = 0.0
        rows.append(
            (
                name,
                packets,
                scanned,
                matches,
                f"{ns_per_byte:.0f}",
                f"{mean_us:.1f}",
                f"{p50_us:.1f}",
                f"{p95_us:.1f}",
                f"{p99_us:.1f}",
                registry.value("dpi_active_flows", instance=name),
            )
        )
    return rows


def _chain_rows(registry) -> list:
    rows = []
    for metric in registry.collect_named("dpi_chain_packets_total"):
        instance = metric.labels.get("instance", "")
        chain = metric.labels.get("chain", "")
        rows.append(
            (
                instance,
                chain,
                metric.value,
                registry.value(
                    "dpi_chain_bytes_total", instance=instance, chain=chain
                ),
            )
        )
    return rows


def _link_rows(registry) -> list:
    rows = []
    for metric in registry.collect_named("link_packets_total"):
        link = metric.labels.get("link", "")
        if not metric.value:
            continue
        rows.append(
            (
                link,
                metric.value,
                registry.value("link_bytes_total", link=link),
                registry.value("link_drops_total", link=link),
                registry.value("link_queue_depth", link=link),
            )
        )
    return rows


def _span_rows(tracer) -> list:
    counts: dict = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return sorted(counts.items())


def render_report(hub) -> str:
    """A multi-section text report over the hub's registry and span log."""
    registry = hub.registry
    sections: list[str] = []

    instance_rows = _instance_rows(registry)
    if instance_rows:
        sections.append("DPI instances")
        sections.extend(
            _table(
                ["instance", "packets", "bytes", "matches", "ns/B",
                 "mean us", "p50 us", "p95 us", "p99 us", "flows"],
                instance_rows,
            )
        )

    chain_rows = _chain_rows(registry)
    if chain_rows:
        sections.append("")
        sections.append("Policy chains")
        sections.extend(
            _table(["instance", "chain", "packets", "bytes"], chain_rows)
        )

    link_rows = _link_rows(registry)
    if link_rows:
        sections.append("")
        sections.append("Links")
        sections.extend(
            _table(["link", "packets", "bytes", "drops", "queue"], link_rows)
        )

    sim_events = registry.value("sim_events_processed", default=None)
    if sim_events is not None:
        sections.append("")
        sections.append(
            f"Simulator: {sim_events} events, clock "
            f"{registry.value('sim_clock_seconds', default=0.0):.6f}s, "
            f"{registry.value('sim_pending_events', default=0)} pending"
        )

    if hub.tracer is not None:
        span_rows = _span_rows(hub.tracer)
        if span_rows:
            sections.append("")
            sections.append("Spans")
            sections.extend(_table(["name", "count"], span_rows))

    if not sections:
        return "no telemetry recorded\n"
    return "\n".join(sections) + "\n"
