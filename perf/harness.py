"""The one timing primitive: build, warm up, timed passes, check, summarise.

``measure`` produces the end-to-end metrics of one workload from untraced
passes; ``trace`` produces the per-layer metrics from passes run under
:class:`trace.Recorder`.  Both run in the calling process, single-threaded;
``run.py`` gives every workload a fresh child process.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perf.trace import NET, Recorder
from perf.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Names, units and bounds are declared once, in BENCHMARK.json.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
#: A run is this many rounds of "build the system, then drive timed passes on
#: it".  Spreading the builds between the passes spreads the passes over the
#: whole run: this box's memory speed drifts by a tenth over several seconds,
#: and a median over a longer stretch sees more of that drift.
ROUNDS = 5
#: Each round builds until it has spent this long building, at most this
#: often: a millisecond build needs many samples for a steady median, a
#: half-second build does not.
ROUND_SETUP_SECONDS = 0.2
ROUND_SETUP_BUILDS = 20
#: Bytes per fused-table entry: the ``array("i")`` plus its list mirror.
TABLE_ENTRY_BYTES = 12


class PinMismatch(RuntimeError):
    """The generated inputs are not the ones the benchmark was defined on."""


class _Cursor:
    """What the driving loop writes the packet id to when nothing records."""

    packet_id = -1


def summarize(samples: list, unit: str) -> dict:
    """Median with its quartiles and sample count."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples), "unit": unit,
        "q1": q1, "q3": q3, "n": len(samples),
    }


def percentile(ordered: list, fraction: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def smoothed_percentile(ordered: list, fraction: float, half_width: float = 0.005):
    """The mean of the order statistics within *half_width* of *fraction*.

    Where about one packet in a hundred meets a collector pause, the single
    99th-percentile order statistic flips between the two sides of that step
    from pass to pass; the mean over ranks 98.5%-99.5% moves smoothly with
    the share of such packets.  Falls back to nearest rank on short lists."""
    low = max(0, math.ceil((fraction - half_width) * len(ordered)) - 1)
    high = max(low + 1, math.ceil((fraction + half_width) * len(ordered)))
    window = ordered[low:high]
    return sum(window) / len(window)


def environment(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpus = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": cpus,
        "git_sha": sha,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "loadavg_start": load,
        # A box already busy on all but one core cannot give a quiet core.
        "noisy": load > cpus - 1,
    }


def check_pin(name: str, seed: int, quick: bool, sha256: str) -> None:
    """A pinned (workload, seed, size) must hash to its committed digest."""
    pins = json.loads((HERE / "inputs.json").read_text())
    key = f"{name}/seed{seed}/{'quick' if quick else 'full'}"
    pinned = pins.get(key)
    if pinned is not None and pinned != sha256:
        raise PinMismatch(
            f"{key}: input_sha256 {sha256} differs from the pinned {pinned}; "
            "the generators under src/repro or perf/workloads.py changed what "
            "is measured"
        )


def _start(name: str, seed: int, quick: bool):
    """What ``measure`` and ``trace`` begin with: the workload, the
    environment block and the generated, pin-checked inputs."""
    workload = WORKLOADS[name]
    env = environment(seed)
    inputs = workload.generate(seed, quick)
    check_pin(name, seed, quick, inputs.sha256)
    return workload, env, inputs


def _build(workload, inputs, **options):
    gc.collect()
    start = time.perf_counter()
    system = workload.build(inputs, **options)
    return system, time.perf_counter() - start


def _one_pass(workload, system, inputs, pass_index, recorder=None):
    """Prepare, offer (timed), check; returns the pass state with ``failed``
    indices and the first ``failure`` text filled in.  With a *recorder* the
    layer wrappers are in place for the offer alone."""
    state = workload.prepare(system, inputs, pass_index)
    if recorder is None:
        workload.offer(system, inputs, state, lambda function: function, _Cursor())
    else:
        recorder.install(*workload.groups)
        try:
            workload.offer(system, inputs, state, recorder.outer, recorder)
        finally:
            recorder.uninstall()
    state.failed, state.failure = workload.check(system, inputs, state)
    return state


def _pass_row(workload, inputs, state) -> dict:
    """One pass's value of each timing metric: the median over the pass cut
    into ``workload.blocks`` stretches of consecutive samples.

    This box stalls for tenths of a second every few seconds; a stall makes
    one pass in three several percent slower and doubles its p99.  The median
    over ten blocks of two thousand packets sets the stalled blocks aside;
    one figure for the whole pass takes them in."""
    stamps = state.stamps
    rows = []
    for block in range(workload.blocks):
        low = len(stamps) * block // workload.blocks
        high = len(stamps) * (block + 1) // workload.blocks
        previous = start = stamps[low - 1] if low else state.start_ns
        latencies = []
        for index in range(low, high):
            if inputs.sample_packets[index]:
                latencies.append((stamps[index] - previous) / 1e3 / inputs.sample_packets[index])
            previous = stamps[index]
        latencies.sort()
        wall = stamps[high - 1] - start
        rows.append({
            "goodput_mbps": sum(inputs.sample_bytes[low:high]) * 8e3 / wall,
            "packets_per_s": sum(inputs.sample_packets[low:high]) * 1e9 / wall,
            "pkt_p50_us": percentile(latencies, 0.50),
            "pkt_p99_us": smoothed_percentile(latencies, 0.99),
            "pkt_p999_us": percentile(latencies, 0.999),
        })
    return {metric: statistics.median(row[metric] for row in rows) for metric in rows[0]}


def measure(name: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """The end-to-end metrics of one workload, from untraced passes."""
    rounds = 2 if quick else ROUNDS
    workload, env, inputs = _start(name, seed, quick)

    setups = []
    rows = []
    ops = failed_ops = 0
    failure = ""
    driving = 0.0  # seconds spent on timed passes, their preparation and check
    system = None
    for round_index in range(rounds):
        building = 0.0
        for _ in range(ROUND_SETUP_BUILDS):
            system = None  # the previous system is dropped, then collected
            system, elapsed = _build(workload, inputs)
            setups.append(elapsed)
            building += elapsed
            if building >= ROUND_SETUP_SECONDS / (10 if quick else 1):
                break
        if round_index == 0:  # one discarded warm-up pass
            workload.finish(system, inputs, _one_pass(workload, system, inputs, 0))
        while True:  # at least one pass a round, then up to the round's share
            started = time.perf_counter()
            state = _one_pass(workload, system, inputs, 1 + len(rows))
            rows.append(_pass_row(workload, inputs, state))
            rows[-1]["wall_s"] = (state.end_ns - state.start_ns) / 1e9
            ops += inputs.packets
            failed_ops += len(state.failed)
            failure = failure or state.failure
            workload.finish(system, inputs, state)
            driving += time.perf_counter() - started
            if driving >= seconds * (round_index + 1) / rounds:
                break

    metrics = {"setup_s": summarize(setups, UNITS["setup_s"])}
    for metric in ("goodput_mbps", "packets_per_s", "pkt_p50_us", "pkt_p99_us"):
        metrics[metric] = summarize([row[metric] for row in rows], UNITS[metric])
    metrics["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], UNITS["peak_rss_mb"]
    )
    env["loadavg_end"] = os.getloadavg()[0]
    return {
        "workload": name, "seed": seed, "quick": quick,
        "input_sha256": inputs.sha256, "env": env,
        "passes": len(rows), "setup_builds": len(setups),
        "ops": ops, "failed_ops": failed_ops, "first_failure": failure,
        "metrics": metrics,
        "printed_only": {
            "pkt_p999_us": summarize([row["pkt_p999_us"] for row in rows], "us"),
            "pass_wall_s": summarize([row["wall_s"] for row in rows], "s"),
        },
    }


# --- the traced run --------------------------------------------------------


def _layer_metrics(spans: dict, counts: dict, wall_ns: int, untraced_ns: float,
                   outer_ns: int) -> dict:
    """The per-layer metrics of one traced pass."""

    def self_us(*names) -> float:
        return sum(spans[n]["self_ns"] for n in names if n in spans) / 1e3

    def total_us(*names) -> float:
        return sum(spans[n]["total_ns"] for n in names if n in spans) / 1e3

    def calls(*names) -> int:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    packets = counts["packets"]
    scan = "core.combined.scan"
    table = ("core.flow_table.lookup", "core.flow_table.update")
    encode, decode = "core.reports.encode", "core.reports.decode"
    result = "net.nsh.build_result_packet"
    host = ("net.host.receive", "net.host.send")
    simulator = ("net.simulator.run", "net.simulator.schedule", "net.simulator.event")
    autoscale = ("autoscale.tick", "autoscale.isolate_now")
    events = counts.get("events", 0)
    on_network = "net.simulator.run" in spans
    under_load = "load.driver.run" in spans
    everything = sum(row["self_ns"] for row in spans.values())
    return {
        "core.combined.scan.ns_per_byte": per(total_us(scan) * 1e3, counts.get("scan.bytes", 0)),
        "core.combined.scan.self_us_per_pkt": per(self_us(scan), packets),
        # Against the untraced pass: scan has no child spans, so its time is
        # true, while the traced pass carries every wrapper's cost.
        "core.combined.scan.pass_share": self_us(scan) * 1e3 / untraced_ns,
        "core.combined.root_start_share": per(counts.get("scan.root_starts", 0), calls(scan)),
        "core.flow_table.self_us_per_pkt": per(self_us(*table), packets),
        "core.flow_table.calls_per_pkt": per(calls(*table), packets),
        "core.flow_table.entries_peak": counts.get("flow_entries_peak", 0),
        "core.scanner.scan_packet.self_us_per_pkt": per(self_us("core.scanner.scan_packet"), packets),
        "core.scanner.matches_per_pkt": per(counts["matches"], packets),
        "core.scanner.matched_pkt_share": per(counts.get("matched_packets", 0), packets),
        "core.scanner.bytes_scanned_share": per(counts.get("bytes_scanned", 0), counts["payload_bytes"]),
        "core.regex.confirm.self_us_per_pkt": per(self_us("core.regex.confirm"), packets),
        "core.regex.confirm.calls_per_pkt": per(calls("core.regex.confirm"), packets),
        "core.regex.confirmed_share": per(counts.get("confirm_matched", 0), counts.get("confirm_invoked", 0)),
        "core.reports.from_matches.self_us_per_pkt": per(self_us("core.reports.from_matches"), packets),
        "core.reports.encode.self_us_per_report": per(self_us(encode), calls(encode)),
        "core.reports.decode.self_us_per_report": per(self_us(decode), calls(decode)),
        "core.reports.bytes_per_report": per(counts.get("reports.bytes", 0), calls(encode)),
        "core.instance.inspect.self_us_per_pkt": per(self_us("core.instance.inspect"), packets),
        "core.instance.process.self_us_per_pkt": per(self_us("core.instance.process"), packets),
        "core.instance.result_pkts_per_pkt": per(calls(result), packets),
        "net.nsh.build_result_packet.self_us_per_call": per(self_us(result), calls(result)),
        "middleboxes.chain.process.self_us_per_pkt": per(self_us("middleboxes.chain.process"), packets),
        "middleboxes.rules.evaluate.self_us_per_pkt": per(self_us("middleboxes.rules.evaluate"), packets),
        "middleboxes.chain.buffered_peak": counts.get("buffered_peak", 0),
        "net.switch.receive.self_us_per_hop": per(self_us("net.switch.receive"), calls("net.switch.receive")),
        "net.switch.hops_per_pkt": per(calls("net.switch.receive"), packets),
        "net.links.send.self_us_per_tx": per(self_us("net.links.send", "net.links.event"), calls("net.links.send")),
        "net.host.self_us_per_pkt": per(self_us(*host), packets),
        "net.simulator.self_us_per_event": per(self_us(*simulator), events),
        "net.simulator.events_per_pkt": per(events, packets),
        "net.packet.wire_length.calls_per_pkt": per(counts.get("wire_length", 0), packets),
        "net.dpi_share": total_us("core.instance.process") * 1e3 / wall_ns if on_network else 0.0,
        "telemetry.spans_per_pkt": per(counts.get("telemetry.spans", 0), packets),
        "load.generator.us_per_pkt": per(total_us("load.generator.next"), packets),
        "load.driver.self_us_per_pkt": per(self_us("load.driver.run"), packets),
        "load.inspect.us_per_pkt": per(total_us("core.instance.inspect"), packets) if under_load else 0.0,
        "load.instances_peak": counts.get("instances_peak", 0),
        "autoscale.tick.us_per_epoch": per(total_us(*autoscale), counts.get("epochs", 0)),
        "autoscale.actions": counts.get("actions", 0),
        "core.combined.num_states": counts["num_states"],
        "core.combined.table_mb": counts["num_states"] * 256 * TABLE_ENTRY_BYTES / 2**20,
        "bench.trace_overhead_pct": (wall_ns / untraced_ns - 1.0) * 100.0,
        "bench.span_coverage": (everything + wall_ns - outer_ns) / wall_ns,
    }


def _setup_metrics(spans: dict) -> dict:
    def total_s(name: str) -> float:
        return spans[name]["total_ns"] / 1e9 if name in spans else 0.0

    return {
        "core.controller.register_s": total_s("core.controller.handle_message"),
        "core.lifecycle.provision_s": total_s("core.lifecycle.provision"),
        "core.combined.build_s": spans.get("core.combined.build", {"self_ns": 0})["self_ns"] / 1e9,
        "core.kernels.build_s": total_s("core.kernels.build"),
        "net.steering.realize_s": total_s("net.steering.realize"),
    }


def _telemetry_overheads(workload, inputs, default_ns: float) -> dict:
    """What tracing and the metrics registry cost on the network path: one
    pass each on a system built without tracing and without any hub."""
    walls = {}
    for label, options in (("untraced", {"tracing": False}), ("bare", {"telemetry": False})):
        system, _ = _build(workload, inputs, **options)
        workload.finish(system, inputs, _one_pass(workload, system, inputs, 0))
        state = _one_pass(workload, system, inputs, 1)
        walls[label] = state.end_ns - state.start_ns
        workload.finish(system, inputs, state)
    return {
        "telemetry.tracing_overhead_pct": (default_ns / walls["untraced"] - 1.0) * 100.0,
        "telemetry.metrics_overhead_pct": (walls["untraced"] / walls["bare"] - 1.0) * 100.0,
    }


def trace(name: str, seed: int, seconds: float, quick: bool = False,
          out_dir: "Path | None" = None) -> dict:
    """The per-layer metrics of one workload: traced passes alternate with
    untraced ones (same seed, same system), so ``bench.trace_overhead_pct``
    compares like with like."""
    workload, env, inputs = _start(name, seed, quick)
    recorder = Recorder()

    recorder.install(*workload.groups)
    try:
        system, _ = _build(workload, inputs)
    finally:
        recorder.uninstall()
    setup = _setup_metrics(recorder.aggregate())
    recorder.reset()

    workload.finish(system, inputs, _one_pass(workload, system, inputs, 0))  # warm-up
    rows = []
    raw = []
    plain_walls = []
    ops = failed_ops = 0
    failure = ""
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        plain = _one_pass(workload, system, inputs, 1 + 2 * len(rows))
        workload.finish(system, inputs, plain)
        plain_walls.append(plain.end_ns - plain.start_ns)
        state = _one_pass(workload, system, inputs, 2 + 2 * len(rows), recorder)
        counts = dict(workload.counts(system, inputs, state), **recorder.counts)
        rows.append(
            _layer_metrics(
                recorder.aggregate(), counts, state.end_ns - state.start_ns,
                plain_walls[-1], recorder.outer_ns,
            )
        )
        raw = raw or recorder.raw_spans()
        for done in (plain, state):
            ops += inputs.packets
            failed_ops += len(done.failed)
            failure = failure or done.failure
        workload.finish(system, inputs, state)
        recorder.reset()

    overheads = {"telemetry.tracing_overhead_pct": 0.0, "telemetry.metrics_overhead_pct": 0.0}
    if NET in workload.groups:
        system = None
        overheads = _telemetry_overheads(workload, inputs, statistics.median(plain_walls))
    layers = {
        metric: summarize([row[metric] for row in rows], UNITS[metric]) for metric in rows[0]
    }
    for metric, value in {**setup, **overheads}.items():
        layers[metric] = summarize([value], UNITS[metric])
    env["loadavg_end"] = os.getloadavg()[0]
    result = {
        "workload": name, "seed": seed, "quick": quick,
        "input_sha256": inputs.sha256, "env": env, "traced_passes": len(rows),
        "ops": ops, "failed_ops": failed_ops, "first_failure": failure,
        "layers": layers,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.trace.json").write_text(
            json.dumps(dict(result, raw_spans=raw), indent=1) + "\n"
        )
    return result


def main(argv: list) -> int:
    """Child entry: one workload, one mode; the result is the last line."""
    name, seed, seconds, traced, quick, out_dir = argv
    if int(traced):
        result = trace(name, int(seed), float(seconds), quick == "1", Path(out_dir))
    else:
        result = measure(name, int(seed), float(seconds), quick == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
