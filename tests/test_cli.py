"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main, read_pattern_file, write_pattern_file
from repro.core.patterns import PatternKind
from repro.workloads.traces import load_trace


class TestPatternFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        count = write_pattern_file(
            path, [b"literal-one", b"\x00binary\xff"], regexes=[rb"reg\d+ex"]
        )
        assert count == 3
        patterns = read_pattern_file(path)
        assert [p.data for p in patterns] == [
            b"literal-one",
            b"\x00binary\xff",
            rb"reg\d+ex",
        ]
        assert patterns[2].kind is PatternKind.REGEX
        assert [p.pattern_id for p in patterns] == [0, 1, 2]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# comment\n\naGVsbG8=\n")
        patterns = read_pattern_file(path)
        assert [p.data for p in patterns] == [b"hello"]

    def test_bad_base64_reported_with_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("!!!notbase64!!!\n")
        with pytest.raises(ValueError, match=":1:"):
            read_pattern_file(path)


class TestCommands:
    def test_generate_patterns(self, tmp_path, capsys):
        out = tmp_path / "pats.txt"
        code = main(
            [
                "generate-patterns",
                "--style", "snort",
                "--count", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(read_pattern_file(out)) == 50
        assert "50 snort-like patterns" in capsys.readouterr().out

    def test_generate_trace_with_injection(self, tmp_path, capsys):
        pats = tmp_path / "pats.txt"
        main(["generate-patterns", "--count", "30", "--out", str(pats)])
        trace_path = tmp_path / "t.rtrc"
        code = main(
            [
                "generate-trace",
                "--packets", "40",
                "--patterns", str(pats),
                "--match-rate", "0.5",
                "--flows", "4",
                "--out", str(trace_path),
            ]
        )
        assert code == 0
        trace = load_trace(trace_path)
        assert len(trace) == 40
        assert trace.flow_ids is not None

    @pytest.mark.parametrize("engine_args", [["--engine", "ac"],
                                             ["--engine", "ac", "--layout", "full"],
                                             ["--engine", "wm"]])
    def test_scan_pipeline(self, tmp_path, capsys, engine_args):
        pats = tmp_path / "pats.txt"
        trace_path = tmp_path / "t.rtrc"
        main(["generate-patterns", "--count", "30", "--out", str(pats)])
        main(
            [
                "generate-trace", "--packets", "30",
                "--patterns", str(pats), "--match-rate", "0.9",
                "--out", str(trace_path),
            ]
        )
        code = main(
            ["scan", "--patterns", str(pats), "--trace", str(trace_path)]
            + engine_args
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "matched packets:" in out

    @pytest.mark.parametrize("engine", ["wm", "combined"])
    def test_scan_layout_is_for_the_ac_engine_only(self, capsys, engine):
        """``--layout`` used to be silently ignored by the other engines."""
        code = main(["scan", "--patterns", "p.txt", "--trace", "t.rtrc",
                     "--engine", engine, "--layout", "full"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "scan: --layout applies to --engine ac only\n"
        assert captured.out == ""

    def test_scan_ac_layout_defaults_to_sparse(self, tmp_path, capsys):
        pats, trace_path = tmp_path / "pats.txt", tmp_path / "t.rtrc"
        main(["generate-patterns", "--count", "10", "--out", str(pats)])
        main(["generate-trace", "--packets", "5", "--out", str(trace_path)])
        capsys.readouterr()
        assert main(["scan", "--patterns", str(pats),
                     "--trace", str(trace_path)]) == 0
        assert "engine: ac (sparse)" in capsys.readouterr().out

    def test_scan_rejects_regex_only_file(self, tmp_path, capsys):
        pats = tmp_path / "p.txt"
        write_pattern_file(pats, [], regexes=[rb"\d+"])
        trace_path = tmp_path / "t.rtrc"
        main(["generate-trace", "--packets", "5", "--out", str(trace_path)])
        code = main(
            ["scan", "--patterns", str(pats), "--trace", str(trace_path)]
        )
        assert code == 2

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "MATCHES" in out
        assert "clean" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestKernelCommands:
    def _corpus(self, tmp_path):
        pats = tmp_path / "pats.txt"
        trace_path = tmp_path / "t.rtrc"
        main(["generate-patterns", "--count", "30", "--out", str(pats)])
        main(
            [
                "generate-trace", "--packets", "30",
                "--patterns", str(pats), "--match-rate", "0.9",
                "--out", str(trace_path),
            ]
        )
        return pats, trace_path

    @pytest.mark.parametrize("kernel", ["reference", "flat", "regex"])
    def test_scan_combined_engine_kernels(self, tmp_path, capsys, kernel):
        pats, trace_path = self._corpus(tmp_path)
        code = main(
            [
                "scan", "--patterns", str(pats), "--trace", str(trace_path),
                "--engine", "combined", "--kernel", kernel,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"kernel={kernel}" in out
        assert "throughput:" in out

    def test_scan_combined_kernels_agree_on_match_counts(
        self, tmp_path, capsys
    ):
        pats, trace_path = self._corpus(tmp_path)
        counts = {}
        for kernel in ("reference", "flat", "regex"):
            main(
                [
                    "scan", "--patterns", str(pats), "--trace",
                    str(trace_path), "--engine", "combined",
                    "--kernel", kernel,
                ]
            )
            out = capsys.readouterr().out
            counts[kernel] = [
                line for line in out.splitlines() if "total matches" in line
            ]
        assert counts["flat"] == counts["reference"]
        assert counts["regex"] == counts["reference"]

    def test_scan_combined_with_cache(self, tmp_path, capsys):
        """The scan cache is gone: ``--cache-size`` on ``scan`` and on
        ``report`` is a usage error, not a flag that is silently ignored."""
        pats, trace_path = self._corpus(tmp_path)
        capsys.readouterr()
        for argv in (
            ["scan", "--patterns", str(pats), "--trace", str(trace_path),
             "--engine", "combined", "--cache-size", "64"],
            ["report", "--packets", "5", "--cache-size", "64"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --cache-size 64" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--patterns", "p.txt", "--trace", "t.rtrc",
             "--engine", "combined", "--kernel", "sharded"],
            ["report", "--packets", "5", "--kernel", "sharded"],
            ["chaos", "figure5", "--plan", "plan.json", "--kernel", "sharded"],
            ["scan", "--patterns", "p.txt", "--trace", "t.rtrc", "--shards", "2"],
        ],
        ids=["scan", "report", "chaos", "scan-shards-flag"],
    )
    def test_removed_sharded_kernel_is_a_usage_error(self, capsys, argv):
        """Pattern-sharding is gone (PR 24): argparse rejects its kernel
        name and flags with one usage error, exit 2, no traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("repro-dpi")
        assert "error:" in captured.err
        assert captured.out == ""


class TestCountOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--packets", "-3"],
            ["chaos", "figure5", "--plan", "PLAN", "--packets", "-4"],
            ["anomaly", "--flows", "0"],
            ["anomaly", "--epochs", "-2"],
            ["bench-anomaly", "--flows", "0"],
            ["bench-anomaly", "--epochs", "0"],
            ["bench-e2e", "--epochs", "0"],
            ["fuzz-diff", "--cases", "0"],
            ["generate-trace", "--out", "t.rtrc", "--packets", "0"],
            ["generate-patterns", "--out", "p.txt", "--count", "-1"],
            ["report", "--packets", "many"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
    )
    def test_counts_below_one_are_usage_errors(self, capsys, argv):
        """Regression: these crashed with a ValueError traceback, reported
        OK on no traffic, or silently ran one flow."""
        plan = Path(__file__).resolve().parent.parent / "examples/plan_basic.json"
        with pytest.raises(SystemExit) as exit_info:
            main([str(plan) if word == "PLAN" else word for word in argv])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "Traceback" not in captured.err
        assert captured.err.startswith("usage: repro-dpi")
        assert f"error: argument {argv[-2]}" in captured.err
        assert captured.out == ""


class TestLoadCommand:
    def test_load_text_run_prints_table_and_digest(self, capsys):
        code = main(
            [
                "load", "service",
                "--profile", "mixed",
                "--flows", "300",
                "--epochs", "4",
                "--seed", "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch" in out and "p99 ms" in out
        assert "digest:" in out

    def test_load_json_digest_is_reproducible(self, tmp_path, capsys):
        import json

        digests = []
        for _ in range(2):
            out_path = tmp_path / "run.json"
            code = main(
                [
                    "load", "service",
                    "--flows", "300",
                    "--epochs", "4",
                    "--autoscale",
                    "--format", "json",
                    "--out", str(out_path),
                ]
            )
            assert code == 0
            capsys.readouterr()
            digests.append(json.loads(out_path.read_text())["digest"])
        assert digests[0] == digests[1]

    def test_load_invalid_spec_exits_2_with_code(self, capsys):
        code = main(["load", "service", "--flows", "0", "--epochs", "4"])
        assert code == 2
        assert "LOAD002" in capsys.readouterr().err

    def test_load_spec_file_round_trip(self, tmp_path, capsys):
        from repro.load.profiles import LoadSpec

        spec_path = tmp_path / "spec.json"
        LoadSpec(flows=200, epochs=3).save(str(spec_path))
        code = main(["load", "service", "--spec", str(spec_path)])
        assert code == 0
        assert "digest:" in capsys.readouterr().out

    def test_check_load_spec_flag(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"profile_mix": "nope", "flows": -1}))
        code = main(["check", "figure5", "--load-spec", str(bad)])
        assert code == 1
        err_or_out = capsys.readouterr()
        combined = err_or_out.out + err_or_out.err
        assert "LOAD001" in combined
        assert "LOAD002" in combined

    def test_bench_e2e_writes_capacity_curve(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_e2e.json"
        code = main(
            [
                "bench-e2e",
                "--flow-steps", "100,300",
                "--epochs", "6",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["benchmark"] == "e2e"
        for mode in ("static", "autoscaled"):
            assert [
                point["flows"] for point in document["curves"][mode]
            ] == [100, 300]
        headline = document["headline"]
        assert "autoscaled_sustains_more" in headline
        assert "capacity curves" in capsys.readouterr().out
