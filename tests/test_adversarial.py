"""The evasion & ambiguity robustness suite: corpus + differential gate.

The checked-in ``tests/corpus/regression.json`` is a permanent gate —
every case in it pins either a previously-fixed divergence (reassembly
overflow crash, ambiguous-overlap resolution, truncated gzip) or a
minimized generated case, and every kernel leg must stay in
bit-for-bit agreement on it forever.
"""

import json
from pathlib import Path

import pytest

from repro.adversarial import (
    CASE_KINDS,
    AdversarialCase,
    Corpus,
    default_environment,
    default_legs,
    generate_corpus,
    legs_by_name,
    replay_case,
    run_differential,
)
from repro.adversarial import differential as differential_module
from repro.cli import main
from tests.conftest import spy_on_fallback

CORPUS_PATH = Path(__file__).parent / "corpus" / "regression.json"


class TestCorpusGenerator:
    def test_same_seed_same_corpus(self):
        assert (
            generate_corpus(77, cases_per_kind=3).to_dict()
            == generate_corpus(77, cases_per_kind=3).to_dict()
        )

    def test_different_seeds_differ(self):
        assert (
            generate_corpus(1, cases_per_kind=3).to_dict()
            != generate_corpus(2, cases_per_kind=3).to_dict()
        )

    def test_covers_every_kind(self):
        corpus = generate_corpus(5, cases_per_kind=2)
        assert {case.kind for case in corpus.cases} == set(CASE_KINDS)
        assert len(corpus.cases) == 2 * len(CASE_KINDS)

    def test_kind_subset(self):
        corpus = generate_corpus(5, cases_per_kind=2, kinds=("gzip",))
        assert {case.kind for case in corpus.cases} == {"gzip"}

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generate_corpus(5, kinds=("gzip", "nonesuch"))

    def test_dict_round_trip(self):
        corpus = generate_corpus(9, cases_per_kind=2)
        clone = Corpus.from_dict(
            json.loads(json.dumps(corpus.to_dict()))
        )
        assert clone.to_dict() == corpus.to_dict()
        assert clone.cases == corpus.cases
        assert clone.environment.chain_map == corpus.environment.chain_map

    def test_file_round_trip(self, tmp_path):
        corpus = generate_corpus(9, cases_per_kind=1)
        path = tmp_path / "corpus.json"
        corpus.dump(path)
        assert Corpus.load(path).to_dict() == corpus.to_dict()


class TestCaseValidation:
    def test_rejects_unknown_case_kind(self):
        with pytest.raises(ValueError, match="kind"):
            AdversarialCase(
                name="x", kind="bogus", chain_id=100,
                segments=((0, 0, b"a"),),
            )

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            AdversarialCase(
                name="x", kind="split", chain_id=100,
                segments=((0, 0, b"a"),), policy="middle",
            )

    def test_rejects_empty_segments(self):
        with pytest.raises(ValueError, match="segment"):
            AdversarialCase(
                name="x", kind="split", chain_id=100, segments=(),
            )


class TestLegs:
    def test_default_legs_cover_every_kernel(self):
        legs = default_legs()
        assert [leg.name for leg in legs] == [
            "mono-reference", "mono-flat", "mono-regex",
        ]
        assert [leg.kernel for leg in legs] == ["reference", "flat", "regex"]

    def test_legs_by_name_preserves_request_order(self):
        legs = legs_by_name(["mono-regex", "mono-reference"])
        assert [leg.name for leg in legs] == ["mono-regex", "mono-reference"]

    def test_legs_by_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="nonesuch"):
            legs_by_name(["mono-flat", "nonesuch"])

    def test_run_differential_rejects_empty_legs(self):
        with pytest.raises(ValueError, match="legs"):
            run_differential(generate_corpus(1, cases_per_kind=1), legs=[])


class TestRegressionCorpusGate:
    """The permanent gate: zero divergences on the checked-in corpus."""

    def test_checked_in_corpus_loads(self):
        corpus = Corpus.load(CORPUS_PATH)
        assert len(corpus.cases) >= 10
        names = [case.name for case in corpus.cases]
        assert len(set(names)) == len(names)
        # The historical-divergence pins must stay present.
        assert "reg-overflow-buffererror" in names
        assert "reg-overlap-first-wins" in names
        assert "reg-overlap-last-wins" in names
        assert "reg-gzip-truncated" in names
        assert "reg-stopping-straddle" in names

    def test_zero_divergences_across_all_legs(self):
        report = run_differential(Corpus.load(CORPUS_PATH))
        assert report.errors == []
        assert report.divergences == []
        assert report.ok
        assert report.cases == len(Corpus.load(CORPUS_PATH).cases)
        # The anomaly consumer rides every leg: all three kernels must
        # observe byte-identical match metadata, i.e. one distinct
        # flow-feature digest across legs.
        assert len(report.anomaly_digests) == len(report.legs)
        assert len(set(report.anomaly_digests.values())) == 1

    def test_overflow_case_actually_overflows(self):
        # The crash-regression case must keep exercising the overflow
        # path, or the gate silently stops guarding it.
        corpus = Corpus.load(CORPUS_PATH)
        case = next(
            c for c in corpus.cases if c.name == "reg-overflow-buffererror"
        )
        from repro.core.instance import DPIServiceInstance

        legs = legs_by_name(["mono-flat"])
        instance = DPIServiceInstance(
            legs[0].instance_config(corpus.environment)
        )
        record = replay_case(instance, case)
        assert record["reassembly"]["overflow_drops"] >= 1

    def test_regex_leg_resumes_on_the_prefilter_path(self):
        # The regex legs only differ from the flat ones while the kernel
        # stays off its flat fallback; at least one corpus case must carry
        # a non-root DFA state into a scan the prefilter itself finishes.
        corpus = Corpus.load(CORPUS_PATH)
        from repro.core.instance import DPIServiceInstance

        leg = legs_by_name(["mono-regex"])[0]
        instance = DPIServiceInstance(leg.instance_config(corpus.environment))
        kernel = instance.automaton._kernel
        fallback_calls = spy_on_fallback(kernel)
        prefiltered_resumes = []
        kernel_scan = kernel.scan

        def scan(data, active_bitmap, state, limit):
            before = len(fallback_calls)
            result = kernel_scan(data, active_bitmap, state, limit)
            if state != instance.automaton.root and len(fallback_calls) == before:
                prefiltered_resumes.append(len(data))
            return result

        kernel.scan = scan
        replay_case(
            instance,
            next(c for c in corpus.cases if c.name == "reg-regex-resume-prefilter"),
        )
        assert prefiltered_resumes == [111, 43]

    def test_policy_pair_diverges_in_released_bytes(self):
        # first-wins and last-wins must resolve the ambiguous retransmit
        # differently — that asymmetry is what the pair of cases pins.
        corpus = Corpus.load(CORPUS_PATH)
        by_name = {case.name: case for case in corpus.cases}
        from repro.core.instance import DPIServiceInstance

        leg = legs_by_name(["mono-flat"])[0]
        instance = DPIServiceInstance(leg.instance_config(corpus.environment))
        first = replay_case(instance, by_name["reg-overlap-first-wins"])
        last = replay_case(instance, by_name["reg-overlap-last-wins"])
        assert first["records"] != last["records"]


class TestDifferentialReporting:
    def test_divergent_leg_is_reported(self, monkeypatch):
        corpus = generate_corpus(3, cases_per_kind=1, kinds=("split",))
        real_replay = differential_module.replay_case

        def skewed_replay(instance, case, overflow_counter=None, **kwargs):
            record = real_replay(
                instance, case, overflow_counter=overflow_counter, **kwargs
            )
            if instance.config.kernel == "regex":
                record["records"] = record["records"] + [{"extra": True}]
            return record

        monkeypatch.setattr(
            differential_module, "replay_case", skewed_replay
        )
        report = run_differential(
            corpus, legs=legs_by_name(["mono-flat", "mono-regex"])
        )
        assert not report.ok
        assert any(
            "matches" in divergence.fields
            for divergence in report.divergences
        )
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["divergences"][0]["leg"] == "mono-regex"
        assert payload["divergences"][0]["baseline"] == "mono-flat"

    def test_digest_mismatch_is_reported(self, monkeypatch):
        corpus = generate_corpus(3, cases_per_kind=1, kinds=("split",))
        digests = iter(["digest-a", "digest-b"])
        monkeypatch.setattr(
            differential_module,
            "deterministic_digest",
            lambda hub: next(digests),
        )
        report = run_differential(
            corpus, legs=legs_by_name(["mono-flat", "mono-reference"])
        )
        assert not report.ok
        digest_divergences = [
            divergence
            for divergence in report.divergences
            if divergence.fields == ["telemetry_digest"]
        ]
        assert len(digest_divergences) == 1
        assert digest_divergences[0].case == "<telemetry-digest>"

    def test_crashing_case_is_an_error_not_an_abort(self, monkeypatch):
        corpus = generate_corpus(3, cases_per_kind=1, kinds=("split",))
        real_replay = differential_module.replay_case

        def crashing_replay(instance, case, overflow_counter=None, **kwargs):
            if instance.config.kernel == "regex":
                raise RuntimeError("engine exploded")
            return real_replay(
                instance, case, overflow_counter=overflow_counter, **kwargs
            )

        monkeypatch.setattr(
            differential_module, "replay_case", crashing_replay
        )
        report = run_differential(
            corpus, legs=legs_by_name(["mono-flat", "mono-regex"])
        )
        assert not report.ok
        assert report.errors
        leg, _case, message = report.errors[0]
        assert leg == "mono-regex"
        assert "engine exploded" in message


class TestFuzzDiffCLI:
    def test_checked_in_corpus_exits_zero(self, capsys):
        code = main(
            [
                "fuzz-diff",
                "--corpus", str(CORPUS_PATH),
                "--legs", "mono-reference", "mono-regex",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: OK" in out

    def test_generated_corpus_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "fuzz-diff",
                "--seed", "3",
                "--cases", "1",
                "--legs", "mono-reference", "mono-flat",
                "--format", "json",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out_path.read_text())
        assert printed == written
        assert written["ok"] is True
        assert written["legs"] == ["mono-reference", "mono-flat"]

    def test_missing_corpus_file_exits_two(self, capsys):
        code = main(["fuzz-diff", "--corpus", "/nonexistent/corpus.json"])
        assert code == 2
        assert "cannot load corpus" in capsys.readouterr().err

    def test_unknown_leg_exits_two(self, capsys):
        code = main(["fuzz-diff", "--cases", "1", "--legs", "nonesuch"])
        assert code == 2
        assert "nonesuch" in capsys.readouterr().err


class TestEnvironmentShape:
    def test_default_environment_has_ambiguity_fuel(self):
        env = default_environment()
        # Self-overlapping and shared-prefix literals are the point of the
        # suite; losing them would quietly defang every overlap case.
        all_patterns = [
            pattern.data
            for patterns in env.pattern_sets.values()
            for pattern in patterns
        ]
        assert b"abab" in all_patterns and b"ababab" in all_patterns
        assert b"attack" in all_patterns and b"attach" in all_patterns
        profiles = env.profiles
        assert any(p.stopping_condition for p in profiles.values())
        assert any(p.stateful for p in profiles.values())
        assert any(not p.stateful for p in profiles.values())
