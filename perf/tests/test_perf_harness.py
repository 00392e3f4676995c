"""The benchmark's own tests, on ``--quick`` sizes.

    PYTHONPATH=src python -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perf import compare, harness  # noqa: E402
from perf.oracle import Consumer, expected_matches, first_difference, gap_rule_ends  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Per-layer metrics that are counts of calls or events: equal on every run.
EXACT = (
    "core.flow_table.calls_per_pkt", "core.regex.confirm.calls_per_pkt",
    "core.instance.result_pkts_per_pkt", "net.switch.hops_per_pkt",
    "net.simulator.events_per_pkt", "net.packet.wire_length.calls_per_pkt",
    "telemetry.spans_per_pkt", "autoscale.actions", "core.scanner.matches_per_pkt",
)


def _run(out: Path, *extra) -> dict:
    """One ``perf/run.py --quick`` invocation; returns the results document
    and the contract line."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", "--seconds", "0.2",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return {
        "results": json.loads(out.read_text())["results"],
        "line": json.loads(completed.stdout.splitlines()[-1]),
        "stdout": completed.stdout,
    }


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("perf") / "results.json", "--traced")


def test_every_declared_name_is_emitted(full_run):
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert workloads == list(WORKLOADS)
    untraced = {r["workload"]: r for r in full_run["results"] if "metrics" in r}
    traced = {r["workload"]: r for r in full_run["results"] if "layers" in r}
    assert list(untraced) == workloads and list(traced) == workloads
    for name in workloads:
        assert NAME.fullmatch(name)
        for metric in BENCHMARK["end_to_end"]:
            assert NAME.fullmatch(metric["name"])
            row = untraced[name]["metrics"][metric["name"]]
            assert row["value"] > 0 and row["unit"] == metric["unit"]
            assert f" {metric['name']} " in full_run["stdout"]
        for metric in BENCHMARK["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            assert traced[name]["layers"][metric["name"]]["unit"] == metric["unit"]
        assert set(traced[name]["layers"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        assert untraced[name]["failed_ops"] == 0 == traced[name]["failed_ops"]
        assert untraced[name]["ops"] > 0
    # The contract line carries the last child's metrics: a traced one here.
    assert set(full_run["line"]) == {"correct", "attempted", "failed", "metrics"}
    assert set(full_run["line"]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_span_accounting_closes(full_run):
    for result in full_run["results"]:
        if "layers" in result:
            coverage = result["layers"]["bench.span_coverage"]["value"]
            assert abs(coverage - 1.0) < 0.05, (result["workload"], coverage)


def test_layers_a_workload_never_calls_read_zero(full_run):
    layers = {r["workload"]: r["layers"] for r in full_run["results"] if "layers" in r}
    assert layers["snort-stateless-mtu"]["core.flow_table.calls_per_pkt"]["value"] == 0
    assert layers["snort-stateless-mtu"]["core.regex.confirm.calls_per_pkt"]["value"] == 0
    assert layers["small-matchdense"]["core.regex.confirm.calls_per_pkt"]["value"] > 0
    assert layers["clamav-stateful-flows"]["core.flow_table.calls_per_pkt"]["value"] == 2
    assert layers["load-autoscale"]["net.switch.hops_per_pkt"]["value"] == 0
    assert layers["fig5-sim"]["net.switch.hops_per_pkt"]["value"] > 0
    assert layers["fig5-sim"]["telemetry.spans_per_pkt"]["value"] > 0
    assert layers["small-matchdense"]["telemetry.spans_per_pkt"]["value"] == 0


def test_two_runs_of_one_seed_give_identical_counts(full_run, tmp_path):
    for name in ("small-matchdense", "fig5-sim", "load-autoscale"):
        again = _run(tmp_path / f"{name}.json", "--traced", "--workload", name)
        for second in again["results"]:
            first = next(
                r for r in full_run["results"]
                if r["workload"] == name and ("layers" in r) == ("layers" in second)
            )
            assert second["input_sha256"] == first["input_sha256"]
            assert second["failed_ops"] == first["failed_ops"] == 0
            if "layers" in second:
                for metric in EXACT:
                    assert second["layers"][metric]["value"] == first["layers"][metric]["value"], metric
            else:
                assert second["ops"] // second["passes"] == first["ops"] // first["passes"]


def test_a_corrupted_report_is_counted_as_failed():
    workload = WORKLOADS["small-matchdense"]
    inputs = workload.generate(7, quick=True)
    system = workload.build(inputs)
    clean = harness._one_pass(workload, system, inputs, 0)
    assert clean.failed == [] and clean.failure == ""
    workload.finish(system, inputs, clean)
    system.dpi.corrupt_results = True  # the service's own fault-injection switch
    broken = harness._one_pass(workload, system, inputs, 1)
    assert len(broken.failed) > 0
    assert re.search(r"packet \d+: consumer \S+ missed injected \(pattern \d+, position \d+\)",
                     broken.failure)


def test_a_changed_input_is_a_hard_error():
    pins = json.loads((ROOT / "perf" / "inputs.json").read_text())
    for workload in WORKLOADS:
        assert f"{workload}/seed7/full" in pins and f"{workload}/seed7/quick" in pins
    with pytest.raises(harness.PinMismatch):
        harness.check_pin("fig5-sim", 7, True, "0" * 64)
    harness.check_pin("fig5-sim", 12345, True, "0" * 64)  # unpinned seeds pass


# --- the oracle against hand-computed fixtures -----------------------------


def test_oracle_stateless_sees_each_packet_alone():
    consumer = Consumer(name="c", literals={5: b"abcd"})
    # "abcd" straddles the boundary once and sits inside packet 1 once.
    assert expected_matches(consumer, [b"xxab", b"cdyy abcd"]) == [[], [(5, 9)]]
    # Overlapping occurrences all count: "aa" ends at 2, 3 and 4.
    overlap = Consumer(name="c", literals={1: b"aa"})
    assert expected_matches(overlap, [b"aaaa"]) == [[(1, 2), (1, 3), (1, 4)]]


def test_oracle_stateful_positions_are_flow_offsets():
    consumer = Consumer(name="c", stateful=True, literals={5: b"abcd"})
    # Stream "xxabcdyy abcd": ends at 6 (completed in packet 1) and 13.
    assert expected_matches(consumer, [b"xxab", b"cdyy abcd"]) == [[], [(5, 6), (5, 13)]]
    # An occurrence ending exactly on a boundary belongs to the earlier packet.
    assert expected_matches(consumer, [b"abcd", b"abcd"]) == [[(5, 4)], [(5, 8)]]


def test_oracle_stopping_conditions():
    stateless = Consumer(name="c", stop=6, literals={0: b"abcd"})
    assert expected_matches(stateless, [b"abcd..abcd", b"..abcd"]) == [[(0, 4)], [(0, 6)]]
    stateful = Consumer(name="c", stateful=True, stop=6, literals={0: b"abcd"})
    assert expected_matches(stateful, [b"xxab", b"cdyy abcd"]) == [[], [(0, 6)]]


def test_oracle_gap_rules_match_like_the_regex_engine():
    data = b"abxcd abxxxcd abcdcd ab cd"
    assert gap_rule_ends(data, b"ab", 2, b"cd") == [5, 20, 26]
    assert [m.end() for m in re.finditer(rb"ab.{0,2}cd", data, re.DOTALL)] == [5, 20, 26]
    # Confirmed one packet at a time, packet offsets, even for a stateful consumer.
    consumer = Consumer(name="c", stateful=True, gap_rules={9: (b"ab", 2, b"cd")})
    assert expected_matches(consumer, [b"..ab", b"cd abcd"]) == [[], [(9, 7)]]


def test_first_difference_names_the_side():
    assert first_difference([(1, 2)], [(1, 2)]) is None
    assert first_difference([(1, 2), (3, 4)], [(1, 2)]) == ("missing", (3, 4))
    assert first_difference([(1, 2)], [(0, 9), (1, 2)]) == ("unexpected", (0, 9))


# --- compare.py ------------------------------------------------------------


def _row(value, q1=None, q3=None):
    return {"value": value, "q1": value if q1 is None else q1, "q3": value if q3 is None else q3}


def test_compare_verdicts():
    assert compare.verdict(_row(100), _row(103), "higher", 0.05, False) == "unchanged"
    assert compare.verdict(_row(100), _row(90), "higher", 0.05, False) == "worse"
    assert compare.verdict(_row(100), _row(90), "lower", 0.05, False) == "better"
    assert compare.verdict(_row(100), _row(110), "lower", 0.05, False) == "worse"
    assert compare.verdict(_row(100, 90, 110), _row(80), "higher", 0.05, False) == "unresolved"
    assert compare.verdict(_row(100), _row(80), "higher", 0.05, True) == "unresolved"


def test_compare_exits_one_on_a_worse_row(full_run, tmp_path, capsys):
    untraced = [r for r in full_run["results"] if "metrics" in r][:1]
    slower = json.loads(json.dumps(untraced))
    for result in untraced + slower:
        result["env"]["noisy"] = False
        for row in result["metrics"].values():
            row["q1"] = row["q3"] = row["value"]
    slower[0]["metrics"]["packets_per_s"]["value"] *= 0.5
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"results": untraced}))
    new.write_text(json.dumps({"results": slower}))
    assert compare.main([str(old), str(old)]) == 0
    assert compare.main([str(old), str(new)]) == 1
    assert "worse" in capsys.readouterr().out
    slower[0]["metrics"]["packets_per_s"]["value"] *= 2
    slower[0]["failed_ops"] = 1
    new.write_text(json.dumps({"results": slower}))
    assert compare.main([str(old), str(new)]) == 1
