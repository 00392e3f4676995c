"""Unit and e2e tests for the flow-feature anomaly layer (repro.anomaly)."""

import pytest

from repro.anomaly import (
    FEATURE_NAMES,
    SIZE_BIN_BOUNDS,
    AnomalyClassifier,
    AnomalyDetectorMiddlebox,
    FeatureExtractor,
    features_digest,
    verdict_digest,
)
from repro.telemetry.registry import MetricsRegistry


def observe_rows(extractor, rows):
    for flow_key, chain_id, size, matches, now in rows:
        extractor.observe(
            flow_key, chain_id=chain_id, size=size, matches=matches, now=now
        )


#: The hand-computed fixture flow: three packets of 100/200/300 bytes at
#: t = 0, 1, 3 carrying 0/1/2 matches on chain 7.
FIXTURE_ROWS = [
    ("f", 7, 100, 0, 0.0),
    ("f", 7, 200, 1, 1.0),
    ("f", 7, 300, 2, 3.0),
]


class TestFeatureExtractor:
    def test_hand_computed_fixture(self):
        extractor = FeatureExtractor()
        observe_rows(extractor, FIXTURE_ROWS)
        row = extractor.features("f")
        assert row.packets == 3
        assert row.bytes == 600
        assert row.matches == 3
        assert row.chain_id == 7
        assert row.duration == 3.0
        # 3 packets / 3 seconds; 600 bytes / 3 seconds.
        assert row.pkt_rate == 1.0
        assert row.byte_rate == 200.0
        assert row.mean_size == 200.0
        # sizes 100/200/300: var = 46666.67 - 40000, std = 81.6497.
        assert row.size_cv == pytest.approx(81.649658 / 200.0)
        # inter-arrival gaps 1 and 2: mean 1.5, std 0.5.
        assert row.iat_mean == 1.5
        assert row.iat_cv == pytest.approx(1.0 / 3.0)
        assert row.match_density == 1.0
        assert row.matches_per_kb == pytest.approx(3.0 / (600.0 / 1024.0))
        # size bins (64, 128, 256, 512, 1024): 100 -> le128, 200 -> le256,
        # 300 -> le512.
        assert row.size_hist == (
            0.0, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0,
        )
        assert len(row.vector()) == len(FEATURE_NAMES)
        assert len(row.size_hist) == len(SIZE_BIN_BOUNDS) + 1

    def test_vector_follows_feature_name_order(self):
        extractor = FeatureExtractor()
        observe_rows(extractor, FIXTURE_ROWS)
        row = extractor.features("f")
        as_dict = row.to_dict()
        assert [as_dict[name] for name in FEATURE_NAMES] == list(row.vector())

    def test_single_packet_flow_rates_degrade_to_counts(self):
        extractor = FeatureExtractor()
        extractor.observe("solo", chain_id=1, size=500, matches=2, now=9.0)
        row = extractor.features("solo")
        assert row.duration == 0.0
        assert row.pkt_rate == 1.0
        assert row.byte_rate == 500.0
        assert row.iat_mean == 0.0
        assert row.iat_cv == 0.0

    def test_unknown_flow_raises(self):
        with pytest.raises(KeyError, match="unknown flow"):
            FeatureExtractor().features("ghost")

    def test_observe_batch_equals_loop(self):
        one = FeatureExtractor()
        observe_rows(one, FIXTURE_ROWS)
        other = FeatureExtractor()
        other.observe_batch(FIXTURE_ROWS)
        assert features_digest(one.features_map()) == features_digest(
            other.features_map()
        )

    def test_max_flows_bounds_admission(self):
        extractor = FeatureExtractor(max_flows=1)
        extractor.observe("a", chain_id=1, size=10, matches=0, now=0.0)
        extractor.observe("b", chain_id=1, size=10, matches=0, now=0.0)
        extractor.observe("a", chain_id=1, size=10, matches=0, now=1.0)
        assert len(extractor) == 1
        assert "a" in extractor and "b" not in extractor
        assert extractor.observations == 2
        assert extractor.evicted_observations == 1

    def test_max_flows_validation(self):
        with pytest.raises(ValueError):
            FeatureExtractor(max_flows=0)

    def test_observe_is_deferred_until_read(self):
        extractor = FeatureExtractor()
        observe_rows(extractor, FIXTURE_ROWS)
        # The hot path only records; folding happens on first read.
        assert extractor._pending
        assert extractor.observations == 3
        assert not extractor._pending

    def test_flow_keys_sorted_by_repr(self):
        extractor = FeatureExtractor()
        for key in (3, "b", 1, "a"):
            extractor.observe(key, chain_id=1, size=10, matches=0, now=0.0)
        assert extractor.flow_keys() == sorted([3, "b", 1, "a"], key=repr)
        assert [row.flow_key for row in extractor.iter_features()] == (
            extractor.flow_keys()
        )

    def test_digest_is_stable_and_data_sensitive(self):
        one = FeatureExtractor()
        observe_rows(one, FIXTURE_ROWS)
        two = FeatureExtractor()
        observe_rows(two, FIXTURE_ROWS)
        assert features_digest(one.features_map()) == features_digest(
            two.features_map()
        )
        two.observe("f", chain_id=7, size=64, matches=0, now=4.0)
        assert features_digest(one.features_map()) != features_digest(
            two.features_map()
        )


def benign_population(count=24, chain=100):
    """A small benign-looking population built through the extractor."""
    extractor = FeatureExtractor()
    for flow in range(count):
        for packet in range(4):
            extractor.observe(
                f"benign-{flow}",
                chain_id=chain,
                size=400 + (flow * 7 + packet * 13) % 80,
                matches=0,
                now=float(packet) * (1.0 + (flow % 5) * 0.05),
            )
    return extractor.features_map()


def with_outlier(features, packets=40, chain=200):
    extractor = FeatureExtractor()
    for packet in range(packets):
        extractor.observe(
            "attacker",
            chain_id=chain,
            size=80,
            matches=6,
            now=float(packet) * 0.01,
        )
    merged = dict(features)
    merged.update(extractor.features_map())
    return merged


class TestClassifier:
    def test_fit_and_flag_outlier(self):
        benign = benign_population()
        classifier = AnomalyClassifier(threshold=5.0)
        assert not classifier.fitted
        assert classifier.fit(benign) == len(benign)
        assert classifier.fitted
        population = with_outlier(benign)
        verdicts = classifier.classify_all(population)
        by_key = {verdict.flow_key: verdict for verdict in verdicts}
        assert by_key["attacker"].anomalous
        assert by_key["attacker"].score >= 5.0
        flagged = [v.flow_key for v in verdicts if v.anomalous]
        assert flagged == ["attacker"]

    def test_determinism_under_fixed_seed(self):
        benign = benign_population()
        population = with_outlier(benign)
        digests = set()
        baselines = set()
        for _ in range(2):
            classifier = AnomalyClassifier(threshold=5.0, seed=7)
            classifier.fit(benign)
            baselines.add(classifier.baseline_digest())
            digests.add(verdict_digest(classifier.classify_all(population)))
        assert len(digests) == 1
        assert len(baselines) == 1

    def test_min_packets_gates_flagging(self):
        benign = benign_population()
        classifier = AnomalyClassifier(threshold=5.0, min_packets=2)
        classifier.fit(benign)
        extractor = FeatureExtractor()
        extractor.observe(
            "one-shot", chain_id=200, size=80, matches=50, now=0.0
        )
        verdict = classifier.classify(extractor.features("one-shot"))
        assert verdict.score >= 5.0
        assert not verdict.anomalous

    def test_ewma_calibrate_tracks_population(self):
        classifier = AnomalyClassifier(mode="ewma", threshold=5.0)
        benign = benign_population()
        assert classifier.fit(benign) == len(benign)
        assert classifier.fitted
        population = with_outlier(benign)
        by_key = {
            verdict.flow_key: verdict
            for verdict in classifier.classify_all(population)
        }
        assert by_key["attacker"].anomalous

    def test_calibrate_requires_ewma_mode(self):
        classifier = AnomalyClassifier()
        with pytest.raises(TypeError, match="ewma"):
            classifier.calibrate(benign_population().values())

    def test_unfitted_classifier_raises_without_self_calibrate(self):
        classifier = AnomalyClassifier()
        with pytest.raises(RuntimeError, match="not fitted"):
            classifier.classify_all(benign_population())
        with pytest.raises(RuntimeError, match="not fitted"):
            classifier.score(next(iter(benign_population().values())))
        with pytest.raises(RuntimeError, match="not fitted"):
            classifier.baseline()
        with pytest.raises(RuntimeError, match="not fitted"):
            classifier.baseline_digest()

    def test_self_calibrate_does_not_store_baseline(self):
        classifier = AnomalyClassifier(threshold=5.0)
        # Self-calibration folds the outlier into its own baseline, which
        # caps the reachable z-score near sqrt(n) — use a population large
        # enough for the attacker to clear the threshold anyway.
        population = with_outlier(benign_population(count=100))
        verdicts = classifier.classify_all(population, self_calibrate=True)
        assert any(v.anomalous for v in verdicts)
        assert not classifier.fitted
        assert classifier.classify_all({}, self_calibrate=True) == []

    def test_baseline_view_has_all_features(self):
        classifier = AnomalyClassifier()
        classifier.fit(benign_population())
        baseline = classifier.baseline()
        assert set(baseline) == set(FEATURE_NAMES)
        for entry in baseline.values():
            assert entry["sigma"] > 0.0

    def test_fit_subsamples_large_populations_deterministically(self):
        population = benign_population(count=30)
        small = AnomalyClassifier(max_fit_flows=10, seed=3)
        assert small.fit(population) <= 10
        again = AnomalyClassifier(max_fit_flows=10, seed=3)
        again.fit(population)
        assert small.baseline_digest() == again.baseline_digest()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AnomalyClassifier(mode="nope")
        with pytest.raises(ValueError):
            AnomalyClassifier(threshold=0.0)
        with pytest.raises(ValueError):
            AnomalyClassifier(alpha=0.0)
        with pytest.raises(ValueError):
            AnomalyClassifier(max_fit_flows=0)
        with pytest.raises(ValueError):
            AnomalyClassifier().fit({})


def make_packet(payload=b"data"):
    from repro.net.addresses import IPv4Address, MACAddress
    from repro.net.packet import make_tcp_packet

    return make_tcp_packet(
        MACAddress.from_index(0),
        MACAddress.from_index(1),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1234,
        80,
        payload=payload,
    )


class TestMiddlebox:
    def test_registers_without_patterns(self):
        from repro.load.driver import build_load_controller

        controller = build_load_controller()
        middlebox = AnomalyDetectorMiddlebox(9, "anomaly")
        middlebox.register_with(controller)  # must not raise

    def test_chain_consumer_path_observes_packets(self):
        from repro.core.reports import MatchReport

        middlebox = AnomalyDetectorMiddlebox(9)
        packet = make_packet(b"payload-bytes")
        report = MatchReport.from_matches({1: [(0, 4)], 2: [(1, 9)]})
        middlebox.consume_report(packet, report)
        middlebox.consume_unmarked(make_packet(b"more-data"))
        features = middlebox.features_map()
        assert len(features) == 1  # same five-tuple, one flow
        row = next(iter(features.values()))
        assert row.packets == 2
        assert row.matches == 2  # report records; unmarked adds none

    def test_direct_path_and_observe_output(self):
        class FakeOutput:
            matches = {1: [(0, 4), (2, 9)], 2: [(5, 1)]}

        middlebox = AnomalyDetectorMiddlebox(9)
        middlebox.observe_output(
            "flow", chain_id=100, size=300, output=FakeOutput(), now=1.0
        )
        row = middlebox.features_map()["flow"]
        assert row.matches == 3
        assert row.bytes == 300

    def test_external_clock_supplies_observation_times(self):
        times = iter([10.0, 11.0, 14.0])
        middlebox = AnomalyDetectorMiddlebox(9, clock=lambda: next(times))
        for size in (100, 200, 300):
            middlebox.observe("flow", chain_id=1, size=size, matches=0)
        row = middlebox.features_map()["flow"]
        assert row.duration == 4.0
        assert row.iat_mean == 2.0

    def test_registration_rejection_raises(self):
        class RejectingController:
            def __init__(self, fail_on):
                self.fail_on = fail_on
                self.calls = 0

            def handle_message(self, _raw):
                self.calls += 1
                ok = self.calls < self.fail_on

                class Ack:
                    pass

                ack = Ack()
                ack.ok = ok
                ack.detail = "nope" if not ok else ""
                return ack

        middlebox = AnomalyDetectorMiddlebox(9)
        with pytest.raises(RuntimeError, match="registration rejected"):
            middlebox.register_with(RejectingController(fail_on=1))
        # With patterns present, a rejected upload must also raise.
        from repro.core.patterns import Pattern

        middlebox.patterns.append(Pattern(0, b"sig"))
        with pytest.raises(RuntimeError, match="pattern upload rejected"):
            middlebox.register_with(RejectingController(fail_on=2))

    def test_internal_tick_is_deterministic(self):
        one = AnomalyDetectorMiddlebox(9)
        two = AnomalyDetectorMiddlebox(9)
        for middlebox in (one, two):
            for index in range(3):
                middlebox.observe(
                    "flow", chain_id=1, size=100 + index, matches=0
                )
        assert one.digest() == two.digest()

    def test_metrics_are_aggregate_only(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        middlebox = AnomalyDetectorMiddlebox(9, registry=registry)
        for flow in range(3):
            for packet in range(4):
                middlebox.observe(
                    f"flow-{flow}",
                    chain_id=1,
                    size=200,
                    matches=8 if flow == 2 else 0,
                    now=float(packet),
                )
        verdicts = middlebox.verdicts()
        assert registry.value("anomaly_observations_total") == 12
        assert registry.value("anomaly_flows_tracked") == 3
        flagged = [v for v in verdicts if v.anomalous]
        assert registry.value("anomaly_flows_flagged_total") == len(flagged)
        # Re-classifying must not double-count already-flagged flows.
        middlebox.verdicts()
        assert registry.value("anomaly_flows_flagged_total") == len(flagged)
        # No per-flow label cardinality anywhere.
        for metric in registry.snapshot()["metrics"]:
            assert "flow" not in metric["labels"]

    def test_anomalous_flows_pairs(self):
        classifier = AnomalyClassifier(threshold=5.0)
        classifier.fit(benign_population())
        middlebox = AnomalyDetectorMiddlebox(9, classifier=classifier)
        for flow in range(4):
            for packet in range(4):
                middlebox.observe(
                    f"flow-{flow}",
                    chain_id=300 if flow == 3 else 1,
                    size=2000 if flow == 3 else 200,
                    matches=9 if flow == 3 else 0,
                    now=float(packet),
                )
        pairs = middlebox.anomalous_flows()
        assert ("flow-3", 300) in pairs


class TestLoadDriverEndToEnd:
    def test_detection_floor_on_seeded_mix(self):
        from repro.bench.anomaly import detection_quality

        quality = detection_quality(flows=150, epochs=6, seed=7)
        detection = quality["detection"]
        assert detection["true_anomalies"] > 0
        assert detection["precision"] >= 0.9
        assert detection["recall"] >= 0.9
        assert quality["reproducibility"]["digests_match"]

    def test_driver_summary_carries_anomaly_section(self):
        from repro.load.driver import LoadDriver
        from repro.load.profiles import LoadSpec

        spec = LoadSpec(profile_mix="web-flood", flows=60, epochs=3, seed=7)
        driver = LoadDriver(spec, anomaly=True)
        result = driver.run()
        section = result.summary()["anomaly"]
        assert section["tracked_flows"] > 0
        assert len(section["verdict_digest"]) == 64
        assert result.epochs[-1].to_dict()["anomalous_flows"] >= 0

        plain = LoadDriver(spec)
        assert plain.run().summary()["anomaly"] is None

    def test_flagged_flows_are_isolated_with_reason(self):
        from repro.anomaly import AnomalyClassifier
        from repro.load.driver import LoadDriver
        from repro.load.profiles import LoadSpec

        base = {"flows": 100, "epochs": 5, "seed": 7}
        calibration = LoadDriver(
            LoadSpec(profile_mix="benign-http", **base), anomaly=True
        )
        calibration.run()
        classifier = AnomalyClassifier(threshold=5.0, seed=7)
        classifier.fit(calibration.anomaly.features_map())

        driver = LoadDriver(
            LoadSpec(profile_mix="web-flood", **base),
            anomaly=True,
            anomaly_classifier=classifier,
            autoscale=True,
        )
        driver.run()
        events = driver.autoscaler.events
        isolations = [e for e in events if e.action == "isolate"]
        assert any("flagged anomalous" in e.reason for e in isolations)
        assert driver.autoscaler.pins
        # Pinned flows map to provisioned dedicated instances.
        for flow, instance in driver.autoscaler.pins.items():
            assert instance in driver.controller.instances


class TestAnomalyCli:
    def test_anomaly_text_and_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "anomaly.json"
        code = main(
            [
                "anomaly",
                "--flows", "60",
                "--epochs", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "classified" in text
        payload = json.loads(out.read_text())
        assert payload["scored_flows"] > 0
        assert len(payload["verdict_digest"]) == 64

        code = main(
            ["anomaly", "--flows", "60", "--epochs", "3", "--format", "json"]
        )
        assert code == 0
        streamed = json.loads(capsys.readouterr().out)
        assert streamed["verdict_digest"] == payload["verdict_digest"]

    def test_bench_anomaly_writes_schema_valid_report(
        self, tmp_path, capsys
    ):
        import json

        from repro.bench.anomaly import validate_anomaly_schema
        from repro.cli import main

        out = tmp_path / "BENCH_anomaly.json"
        code = main(
            [
                "bench-anomaly",
                "--flows", "120",
                "--epochs", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "meets floor" in capsys.readouterr().out
        results = json.loads(out.read_text())
        assert validate_anomaly_schema(results) == []
        assert results["detection"]["precision"] >= 0.9
        assert results["detection"]["recall"] >= 0.9

    def test_committed_report_is_what_the_benchmark_produces(self):
        """BENCH_anomaly.json holds no timing: a fresh run at the file's
        own ``config`` reproduces it exactly."""
        import json
        from pathlib import Path

        from repro.bench.anomaly import (
            run_anomaly_benchmark,
            validate_anomaly_schema,
        )

        path = Path(__file__).resolve().parent.parent / "BENCH_anomaly.json"
        committed = json.loads(path.read_text())
        assert validate_anomaly_schema(committed) == []
        config = dict(committed["config"])
        config.pop("attack_profile")  # the module's constant, not an input
        assert run_anomaly_benchmark(**config) == committed
