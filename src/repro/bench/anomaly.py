"""Detection-quality benchmark for the anomaly layer.

Two questions, one ``BENCH_anomaly.json`` payload:

* **Detection quality** — calibrate the classifier on a seeded
  benign-only run, then classify a seeded benign-http/mirai-burst mix;
  the generator's flow→profile labels are ground truth, so precision and
  recall are exact, regression-gated numbers (the floor is ≥0.9 on both).
* **Reproducibility** — the detection phase runs twice; verdict digests
  must match bit-for-bit (cross-kernel/backend invariance is covered by
  the differential harness's feature digest, not here).

Both run on the simulator clock like every other load run, so the payload
is a pure function of its ``config``; what the extractor costs on the
inspect path is a timing claim and belongs to ``perf/run.py``.
"""

from __future__ import annotations

from typing import Any

from repro.anomaly import AnomalyClassifier, features_digest, verdict_digest
from repro.bench.harness import write_results
from repro.load.driver import LoadDriver
from repro.load.profiles import LoadSpec

SCHEMA_VERSION = 2

#: The profile whose flows count as true anomalies in the labeled mix.
ATTACK_PROFILE = "mirai-burst"


def _detection_run(
    spec: LoadSpec, classifier: "AnomalyClassifier | None"
) -> LoadDriver:
    driver = LoadDriver(spec, anomaly=True, anomaly_classifier=classifier)
    driver.run()
    return driver


def detection_quality(
    *,
    flows: int = 400,
    epochs: int = 8,
    seed: int = 7,
    threshold: float = 5.0,
    min_packets: int = 2,
    mix: str = "web-flood",
    calibration_profile: str = "benign-http",
) -> dict[str, Any]:
    """Calibrate on benign, classify the labeled mix, score exactly.

    Returns the ``detection`` + ``reproducibility`` sections (the
    classifier is fitted once; the detection run happens twice so verdict
    bit-reproducibility is part of the same measurement).
    """
    calibration = _detection_run(
        LoadSpec(profile_mix=calibration_profile, flows=flows, epochs=epochs,
                 seed=seed),
        None,
    )
    classifier = AnomalyClassifier(
        threshold=threshold, min_packets=min_packets, seed=seed
    )
    fitted = classifier.fit(calibration.anomaly.features_map())

    mixed_spec = LoadSpec(profile_mix=mix, flows=flows, epochs=epochs, seed=seed)
    first = _detection_run(mixed_spec, classifier)
    second = _detection_run(mixed_spec, classifier)
    verdicts = first.anomaly.verdicts()
    digest_first = verdict_digest(verdicts)
    digest_second = verdict_digest(second.anomaly.verdicts())

    generator = first.generator
    tp = fp = fn = tn = 0
    for verdict in verdicts:
        is_attack = generator.profile_name_of(verdict.flow_key) == ATTACK_PROFILE
        if verdict.anomalous and is_attack:
            tp += 1
        elif verdict.anomalous:
            fp += 1
        elif is_attack:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {
        "detection": {
            "calibration_flows": fitted,
            "scored_flows": len(verdicts),
            "true_anomalies": tp + fn,
            "flagged": tp + fp,
            "tp": tp,
            "fp": fp,
            "fn": fn,
            "tn": tn,
            "precision": round(precision, 4),
            "recall": round(recall, 4),
            "f1": round(f1, 4),
        },
        "reproducibility": {
            "verdict_digest": digest_first,
            "digests_match": digest_first == digest_second,
            "baseline_digest": classifier.baseline_digest(),
            "feature_digest": features_digest(
                first.anomaly.features_map()
            ),
        },
    }


def run_anomaly_benchmark(
    *,
    flows: int = 400,
    epochs: int = 8,
    seed: int = 7,
    threshold: float = 5.0,
    min_packets: int = 2,
    mix: str = "web-flood",
    calibration_profile: str = "benign-http",
) -> dict[str, Any]:
    """The full benchmark; returns the BENCH_anomaly.json payload."""
    quality = detection_quality(
        flows=flows,
        epochs=epochs,
        seed=seed,
        threshold=threshold,
        min_packets=min_packets,
        mix=mix,
        calibration_profile=calibration_profile,
    )
    detection = quality["detection"]
    meets_floor = (
        detection["precision"] >= 0.9
        and detection["recall"] >= 0.9
        and quality["reproducibility"]["digests_match"]
    )
    return {
        "benchmark": "anomaly",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "flows": flows,
            "epochs": epochs,
            "seed": seed,
            "threshold": threshold,
            "min_packets": min_packets,
            "mix": mix,
            "calibration_profile": calibration_profile,
            "attack_profile": ATTACK_PROFILE,
        },
        "detection": detection,
        "reproducibility": quality["reproducibility"],
        "headline": {
            "precision": detection["precision"],
            "recall": detection["recall"],
            "digests_match": quality["reproducibility"]["digests_match"],
            "meets_floor": meets_floor,
        },
    }


def validate_anomaly_schema(results: dict[str, Any]) -> list[str]:
    """Structural check of a BENCH_anomaly.json payload; returns problems."""
    problems: list[str] = []
    if results.get("benchmark") != "anomaly":
        problems.append("benchmark key must be 'anomaly'")
    if not isinstance(results.get("schema_version"), int):
        problems.append("schema_version must be an int")
    config = results.get("config")
    if not isinstance(config, dict) or "threshold" not in config:
        problems.append("config.threshold missing")
    detection = results.get("detection")
    if not isinstance(detection, dict):
        problems.append("detection section missing")
    else:
        for key in ("precision", "recall", "tp", "fp", "fn", "scored_flows"):
            if key not in detection:
                problems.append(f"detection.{key} missing")
    reproducibility = results.get("reproducibility")
    if not isinstance(reproducibility, dict) or (
        "verdict_digest" not in reproducibility
    ):
        problems.append("reproducibility.verdict_digest missing")
    headline = results.get("headline")
    if not isinstance(headline, dict) or "meets_floor" not in headline:
        problems.append("headline.meets_floor missing")
    return problems


def format_anomaly_results(results: dict[str, Any]) -> str:
    """Aligned text rendering of one :func:`run_anomaly_benchmark` output."""
    config = results["config"]
    detection = results["detection"]
    reproducibility = results["reproducibility"]
    headline = results["headline"]
    lines = [
        f"anomaly detection — mix {config['mix']} "
        f"(calibrated on {config['calibration_profile']}), "
        f"{config['flows']} flows, {config['epochs']} epochs, "
        f"seed {config['seed']}, threshold {config['threshold']}",
        f"  detection: {detection['scored_flows']} flows scored, "
        f"{detection['true_anomalies']} true anomalies, "
        f"{detection['flagged']} flagged "
        f"(tp {detection['tp']}, fp {detection['fp']}, fn {detection['fn']})",
        f"  precision {detection['precision']:.3f}  "
        f"recall {detection['recall']:.3f}  f1 {detection['f1']:.3f}",
        f"  reproducibility: digests match: "
        f"{reproducibility['digests_match']} "
        f"(verdicts {reproducibility['verdict_digest'][:16]}...)",
        f"  headline: precision {headline['precision']:.3f}, "
        f"recall {headline['recall']:.3f}, "
        f"meets floor: {headline['meets_floor']}",
    ]
    return "\n".join(lines)


__all__ = [
    "ATTACK_PROFILE",
    "detection_quality",
    "format_anomaly_results",
    "run_anomaly_benchmark",
    "validate_anomaly_schema",
    "write_results",
]
