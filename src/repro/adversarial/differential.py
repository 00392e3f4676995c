"""Differential replay: one adversarial corpus, every scan kernel.

The scan-once thesis is a *bit-for-bit* claim: the reference, flat-table
and regex-prefilter kernels must produce identical
:class:`~repro.core.instance.InspectionOutput` matches, identical flow
state, and identical telemetry for any input, including the adversarial
ones.  This module replays each corpus case through every *leg* (one
engine configuration) and reports any disagreement as a structured
divergence.

What is compared, per case:

* **matches** — the resolved per-middlebox ``(pattern id, position)``
  pairs of every inspected view, in delivery order;
* **flow state** — the flow table's ``offset``/``packets``/``last_seen``
  per flow key;
* **telemetry digest** — one
  :func:`~repro.telemetry.digest.deterministic_digest` per leg over the
  whole replay;
* **anomaly feature digest** — every leg feeds a
  :class:`~repro.anomaly.features.FeatureExtractor` the same scan
  metadata its inspections produce (size, match count, deterministic
  tick); the per-leg digest over the resulting feature table must be
  identical, proving the anomaly consumer observes the same inspection
  results no matter which engine produced them.

Reassembly and gzip preprocessing run per leg from the same case bytes;
they are deterministic, so any disagreement isolates to the engine under
test.  Reassembly overflow drops are bound to the per-leg hub as
``dpi_reassembly_overflow_total`` and therefore *inside* the digest: a
leg that sheds differently is a divergence, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversarial.corpus import AdversarialCase, Corpus
from repro.anomaly.features import FeatureExtractor, features_digest
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import KERNEL_NAMES
from repro.core.preprocess import PayloadPreprocessor
from repro.net.reassembly import StreamReassembler
from repro.telemetry import TelemetryHub
from repro.telemetry.digest import deterministic_digest


@dataclass(frozen=True)
class Leg:
    """One engine configuration under differential test."""

    name: str
    kernel: str  # one of KERNEL_NAMES

    def instance_config(self, environment) -> InstanceConfig:
        """The instance configuration this leg runs."""
        return InstanceConfig(
            pattern_sets=environment.pattern_sets,
            profiles=environment.profiles,
            chain_map=environment.chain_map,
            kernel=self.kernel,
        )


def default_legs() -> list:
    """One leg per kernel family; the reference kernel is the baseline."""
    return [
        Leg(name=f"mono-{kernel}", kernel=kernel) for kernel in KERNEL_NAMES
    ]


def legs_by_name(names) -> list:
    """Resolve leg names against :func:`default_legs` (order preserved)."""
    available = {leg.name: leg for leg in default_legs()}
    missing = [name for name in names if name not in available]
    if missing:
        raise ValueError(
            f"unknown legs {missing}; available: {sorted(available)}"
        )
    return [available[name] for name in names]


@dataclass
class Divergence:
    """One disagreement between a leg and the baseline leg."""

    case: str
    leg: str
    baseline: str
    fields: list  # which comparison surfaces disagreed
    detail: dict  # per-field (baseline value, leg value) excerpts

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "leg": self.leg,
            "baseline": self.baseline,
            "fields": self.fields,
            "detail": self.detail,
        }


@dataclass
class DifferentialReport:
    """The outcome of one corpus sweep."""

    legs: list
    cases: int
    divergences: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (leg, case, repr(error))
    #: Per-leg digest over the anomaly consumer's feature table.
    anomaly_digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every leg agreed on every case and nothing crashed."""
        return not self.divergences and not self.errors

    def to_dict(self) -> dict:
        return {
            "legs": list(self.legs),
            "cases": self.cases,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "errors": [
                {"leg": leg, "case": case, "error": error}
                for leg, case, error in self.errors
            ],
            "anomaly_digests": dict(self.anomaly_digests),
        }


def replay_case(
    instance: DPIServiceInstance,
    case: AdversarialCase,
    overflow_counter=None,
    anomaly: "FeatureExtractor | None" = None,
) -> dict:
    """Drive one case through *instance*; returns the comparison record.

    Flow keys are namespaced by case name so one long-lived instance can
    replay a whole corpus without cases contaminating each other's flow
    state.  When *anomaly* is given, every inspected view is also observed
    as scan metadata (size, match count, a per-case deterministic tick) —
    the cross-leg feature-digest surface.
    """
    reassemblers: dict = {}
    preprocessor = PayloadPreprocessor() if case.preprocess else None
    records = []
    scans = 0
    for index, (flow, seq, data) in enumerate(case.segments):
        stream = reassemblers.get(flow)
        if stream is None:
            def on_overflow(seq_, dropped_, _counter=overflow_counter):
                if _counter is not None:
                    _counter.inc()

            stream = StreamReassembler(
                policy=case.policy,
                max_buffered=case.max_buffered,
                on_overflow=on_overflow,
            )
            reassemblers[flow] = stream
        released = stream.add_segment(seq, data)
        if not released:
            continue
        if preprocessor is None:
            views = [("raw", released, (case.name, flow))]
        else:
            views = [
                (
                    "raw"
                    if not view.compressed
                    else f"gzip@{view.source_offset}",
                    view.data,
                    (case.name, flow)
                    if not view.compressed
                    else (case.name, flow, "gzip", view.source_offset),
                )
                for view in preprocessor.views(released)
            ]
        for kind, data_view, scan_key in views:
            output = instance.inspect(
                data_view, chain_id=case.chain_id, flow_key=scan_key
            )
            if anomaly is not None:
                anomaly.observe(
                    scan_key,
                    chain_id=case.chain_id,
                    size=len(data_view),
                    matches=sum(
                        len(hits) for hits in output.matches.values()
                    ),
                    now=float(scans),
                )
            scans += 1
            records.append(
                {
                    "segment": index,
                    "view": kind,
                    "matches": {
                        str(middlebox): sorted(map(list, matches))
                        for middlebox, matches in output.matches.items()
                    },
                }
            )
    flows = {}
    flow_table = instance.scanner.flow_table
    for key in flow_table.flow_keys():
        if not (isinstance(key, tuple) and key and key[0] == case.name):
            continue  # another case's flow
        exported = flow_table.export_flow(key)
        flows[repr(key)] = {
            "offset": exported["offset"],
            "packets": exported["packets"],
            "last_seen": exported["last_seen"],
        }
    stats = _sum_stats(reassemblers)
    return {"case": case.name, "records": records, "flows": flows,
            "reassembly": stats}


def _sum_stats(reassemblers: dict) -> dict:
    totals = {
        "overflow_drops": 0,
        "conflicting_bytes": 0,
        "bytes_released": 0,
        "keepalives": 0,
    }
    for stream in reassemblers.values():
        for key in totals:
            totals[key] += getattr(stream.stats, key)
    return totals


def _first_diff(baseline, other, limit: int = 3) -> list:
    """A compact excerpt of where two record lists disagree."""
    diffs = []
    for index in range(max(len(baseline), len(other))):
        left = baseline[index] if index < len(baseline) else None
        right = other[index] if index < len(other) else None
        if left != right:
            diffs.append({"index": index, "baseline": left, "leg": right})
            if len(diffs) >= limit:
                break
    return diffs


def run_differential(
    corpus: Corpus,
    legs: "list | None" = None,
    progress=None,
) -> DifferentialReport:
    """Replay every corpus case through every leg and compare.

    One instance and one telemetry hub per leg live for the whole sweep —
    the per-leg digest covers the entire corpus, so an extra or missing
    metric increment *anywhere* shows up even if every per-case record
    matches.  ``progress`` is an optional ``callable(message)``.
    """
    legs = default_legs() if legs is None else list(legs)
    if not legs:
        raise ValueError("no legs to run")
    report = DifferentialReport(
        legs=[leg.name for leg in legs], cases=len(corpus.cases)
    )
    per_leg: dict = {}
    digests: dict = {}
    for leg in legs:
        if progress is not None:
            progress(f"replaying {len(corpus.cases)} cases on {leg.name}")
        hub = TelemetryHub(clock=lambda: 0.0, tracing=False)
        instance = DPIServiceInstance(
            leg.instance_config(corpus.environment),
            name="fuzz-diff",
            telemetry=hub,
        )
        overflow_counter = hub.registry.counter(
            "dpi_reassembly_overflow_total", instance=instance.name
        )
        anomaly = FeatureExtractor()
        results = {}
        for case in corpus.cases:
            try:
                results[case.name] = replay_case(
                    instance,
                    case,
                    overflow_counter=overflow_counter,
                    anomaly=anomaly,
                )
            except Exception as error:  # a crash IS a divergence
                report.errors.append(
                    (leg.name, case.name, f"{type(error).__name__}: {error}")
                )
                results[case.name] = None
        per_leg[leg.name] = results
        digests[leg.name] = deterministic_digest(hub)
        report.anomaly_digests[leg.name] = features_digest(
            anomaly.features_map()
        )
    baseline = legs[0]
    base_results = per_leg[baseline.name]
    for leg in legs[1:]:
        leg_results = per_leg[leg.name]
        for case in corpus.cases:
            left = base_results.get(case.name)
            right = leg_results.get(case.name)
            if left is None or right is None:
                continue  # already reported as an error
            fields = []
            detail = {}
            if left["records"] != right["records"]:
                fields.append("matches")
                detail["matches"] = _first_diff(
                    left["records"], right["records"]
                )
            if left["flows"] != right["flows"]:
                fields.append("flow_state")
                detail["flow_state"] = {
                    "baseline": left["flows"],
                    "leg": right["flows"],
                }
            if left["reassembly"] != right["reassembly"]:
                fields.append("reassembly")
                detail["reassembly"] = {
                    "baseline": left["reassembly"],
                    "leg": right["reassembly"],
                }
            if fields:
                report.divergences.append(
                    Divergence(
                        case=case.name,
                        leg=leg.name,
                        baseline=baseline.name,
                        fields=fields,
                        detail=detail,
                    )
                )
        if digests[leg.name] != digests[baseline.name]:
            report.divergences.append(
                Divergence(
                    case="<telemetry-digest>",
                    leg=leg.name,
                    baseline=baseline.name,
                    fields=["telemetry_digest"],
                    detail={
                        "baseline": digests[baseline.name],
                        "leg": digests[leg.name],
                    },
                )
            )
        if report.anomaly_digests[leg.name] != (
            report.anomaly_digests[baseline.name]
        ):
            report.divergences.append(
                Divergence(
                    case="<anomaly-digest>",
                    leg=leg.name,
                    baseline=baseline.name,
                    fields=["anomaly_digest"],
                    detail={
                        "baseline": report.anomaly_digests[baseline.name],
                        "leg": report.anomaly_digests[leg.name],
                    },
                )
            )
    return report
