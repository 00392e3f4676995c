"""End-to-end capacity curves: concurrent flows vs p99 latency/throughput.

For each flow-count step the same seeded :class:`~repro.load.profiles.
LoadSpec` runs twice — static provisioning (``initial_instances`` fixed)
and autoscaled (elastic pool up to ``max_instances``) — and the curve
records modeled p99 latency, served throughput and whether the run
*sustained* the SLO.  "Sustained" means the steady-state tail met the SLO:
every epoch in the final third of the run (at least three epochs) has
p99 <= SLO.  Early warm-up epochs are cheap to pass and would flatter the
static baseline; the tail is where an undersized pool drowns in backlog.

The queueing model is deterministic (see :mod:`repro.load.driver`), so the
headline — the autoscaled pool sustaining strictly more concurrent flows
within SLO than static provisioning — is a structural property of the
chosen rates, not a property of a quiet CI machine.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.bench.harness import write_results
from repro.load.driver import LoadRunResult, run_load_scenario
from repro.load.profiles import LoadSpec

#: Default concurrent-flow sweep.  With the default 40 Mbps modeled
#: per-instance rate the single static instance saturates mid-sweep.
FLOW_STEPS = (200, 600, 1200, 2000)

SCHEMA_VERSION = 1


def _steady_state_epochs(result: LoadRunResult) -> list[Any]:
    reports = result.epochs
    tail = max(3, len(reports) // 3)
    return reports[-tail:]


def sustained_within_slo(result: LoadRunResult) -> bool:
    """True when every steady-state epoch met the p99 SLO."""
    tail = _steady_state_epochs(result)
    if not tail:
        return False
    slo = result.spec.slo_seconds
    return all(report.p99_latency_seconds <= slo for report in tail)


def _curve_point(result: LoadRunResult, flows: int) -> dict[str, Any]:
    tail = _steady_state_epochs(result)
    tail_p99 = max(
        (report.p99_latency_seconds for report in tail), default=0.0
    )
    return {
        "flows": flows,
        "p99_ms": round(result.overall_p99_ms, 3),
        "steady_state_p99_ms": round(tail_p99 * 1e3, 3),
        "throughput_mbps": round(result.throughput_mbps, 3),
        "slo_violations": result.total_slo_violations,
        "packets": result.total_packets,
        "matches": result.total_matches,
        "within_slo": sustained_within_slo(result),
        "peak_instances": max(
            (report.alive_instances for report in result.epochs), default=0
        ),
        "actions": (
            len(result.autoscaler.events)
            if result.autoscaler is not None
            else 0
        ),
        "digest": result.digest,
    }


def run_e2e_benchmark(
    flow_steps: Sequence[int] = FLOW_STEPS,
    *,
    epochs: int = 18,
    seed: int = 7,
    profile: str = "mixed",
    slo_ms: float = 50.0,
    rate_mbps: float = 40.0,
    max_instances: int = 6,
    max_packets_per_epoch: int = 5000,
) -> dict[str, Any]:
    """The full capacity sweep; returns the BENCH_e2e.json payload."""
    curves: dict[str, list[dict[str, Any]]] = {"static": [], "autoscaled": []}
    for flows in flow_steps:
        spec = LoadSpec(
            profile_mix=profile,
            flows=flows,
            epochs=epochs,
            seed=seed,
            slo_ms=slo_ms,
            rate_mbps=rate_mbps,
            max_packets_per_epoch=max_packets_per_epoch,
        )
        static = run_load_scenario(spec)
        autoscaled = run_load_scenario(
            spec, autoscale=True, max_instances=max_instances
        )
        curves["static"].append(_curve_point(static, flows))
        curves["autoscaled"].append(_curve_point(autoscaled, flows))

    def _max_within(points: list[dict[str, Any]]) -> int:
        within = [p["flows"] for p in points if p["within_slo"]]
        return max(within) if within else 0

    static_capacity = _max_within(curves["static"])
    autoscaled_capacity = _max_within(curves["autoscaled"])
    return {
        "benchmark": "e2e",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "flow_steps": list(flow_steps),
            "epochs": epochs,
            "seed": seed,
            "profile": profile,
            "slo_ms": slo_ms,
            "rate_mbps": rate_mbps,
            "max_instances": max_instances,
            "max_packets_per_epoch": max_packets_per_epoch,
        },
        "curves": curves,
        "headline": {
            "static_max_flows_within_slo": static_capacity,
            "autoscaled_max_flows_within_slo": autoscaled_capacity,
            "autoscaled_sustains_more": autoscaled_capacity > static_capacity,
        },
    }


def validate_e2e_schema(results: dict[str, Any]) -> list[str]:
    """Structural check of a BENCH_e2e.json payload; returns problems."""
    problems: list[str] = []
    if results.get("benchmark") != "e2e":
        problems.append("benchmark key must be 'e2e'")
    if not isinstance(results.get("schema_version"), int):
        problems.append("schema_version must be an int")
    config = results.get("config")
    if not isinstance(config, dict) or "flow_steps" not in config:
        problems.append("config.flow_steps missing")
    curves = results.get("curves")
    if not isinstance(curves, dict):
        problems.append("curves missing")
        curves = {}
    for mode in ("static", "autoscaled"):
        points = curves.get(mode)
        if not isinstance(points, list) or not points:
            problems.append(f"curves.{mode} missing or empty")
            continue
        for point in points:
            for key in (
                "flows",
                "p99_ms",
                "steady_state_p99_ms",
                "throughput_mbps",
                "within_slo",
                "digest",
            ):
                if key not in point:
                    problems.append(f"curves.{mode} point missing {key!r}")
                    break
    headline = results.get("headline")
    if not isinstance(headline, dict) or (
        "autoscaled_sustains_more" not in headline
    ):
        problems.append("headline.autoscaled_sustains_more missing")
    return problems


def format_e2e_results(results: dict[str, Any]) -> str:
    """Aligned text table of one :func:`run_e2e_benchmark` output."""
    config = results["config"]
    lines = [
        f"e2e capacity curves — profile {config['profile']}, "
        f"SLO {config['slo_ms']}ms, rate {config['rate_mbps']} Mbps/instance, "
        f"{config['epochs']} epochs, seed {config['seed']}"
    ]
    for mode in ("static", "autoscaled"):
        lines.append(f"  {mode}:")
        for point in results["curves"][mode]:
            slo_text = "within SLO" if point["within_slo"] else "BREACHED"
            lines.append(
                f"    {point['flows']:>7} flows  "
                f"p99 {point['steady_state_p99_ms']:>9.2f} ms  "
                f"{point['throughput_mbps']:>8.2f} Mbps  "
                f"{point['peak_instances']} instances  {slo_text}"
            )
    headline = results["headline"]
    lines.append(
        f"  headline: autoscaled sustains "
        f"{headline['autoscaled_max_flows_within_slo']} flows within SLO vs "
        f"{headline['static_max_flows_within_slo']} static "
        f"(strictly more: {headline['autoscaled_sustains_more']})"
    )
    return "\n".join(lines)


__all__ = [
    "FLOW_STEPS",
    "format_e2e_results",
    "run_e2e_benchmark",
    "sustained_within_slo",
    "validate_e2e_schema",
    "write_results",
]
