"""End-to-end CLI tests for ``repro-dpi check``.

These exercise the real ``main()`` entry point: exit codes, the text
report on stdout, and the JSON document shape, including every fault
the check command can inject into the figure-5 scenario, and the
verdict ``check --load-spec`` shares with ``load --spec``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import CHECK_FAULTS, main

# Which validator code each injectable fault must surface as an ERROR.
FAULT_CODES = {
    "ghost-chain": "CHAIN001",
    "overlap-chain": "CHAIN002",
    "orphan-rule": "STEER001",
    "duplicate-rule": "FLOW002",
    "dangling-assignment": "CHAIN003",
}


def test_fault_table_matches_cli_registry():
    assert sorted(FAULT_CODES) == sorted(CHECK_FAULTS)


def test_check_clean_scenario_exits_zero(capsys):
    assert main(["check", "figure5"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


@pytest.mark.parametrize("fault", sorted(FAULT_CODES))
def test_check_injected_fault_fails_with_its_code(fault, capsys):
    assert main(["check", "figure5", "--inject", fault]) == 1
    out = capsys.readouterr().out
    assert FAULT_CODES[fault] in out
    assert "ERROR" in out
    # The report stays readable: one issue line plus the summary.
    assert out.splitlines()[-1].endswith("warning(s)")


def test_check_multiple_faults_compose(capsys):
    argv = ["check", "figure5", "--inject", "ghost-chain",
            "--inject", "duplicate-rule"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "CHAIN001" in out and "FLOW002" in out


def test_check_json_document_shape(capsys):
    assert main(["check", "figure5", "--inject", "orphan-rule",
                 "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["errors"] >= 1
    assert {"code", "severity", "subject", "message"} <= set(
        document["issues"][0]
    )
    assert any(i["code"] == "STEER001" for i in document["issues"])


def test_check_json_clean_has_no_issues(capsys):
    assert main(["check", "figure5", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["errors"] == 0
    assert document["issues"] == []


def test_check_rejects_unknown_fault(capsys):
    with pytest.raises(SystemExit):
        main(["check", "figure5", "--inject", "not-a-fault"])


def test_lint_subcommand_is_gone():
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", "--self"])
    assert exit_info.value.code == 2


# --- one verdict per load-spec file -----------------------------------------

#: Files ``load --spec`` once crashed on or coerced, and the code both
#: subcommands must now reject them with.
BAD_LOAD_SPECS = {
    "array-root": ([1, 2], "LOAD002"),
    "string-root": ("mixed", "LOAD002"),
    "bool-flows": ({"flows": True}, "LOAD002"),
    "fractional-epochs": ({"epochs": 2.9}, "LOAD003"),
}


@pytest.mark.parametrize(
    "document, code", BAD_LOAD_SPECS.values(), ids=list(BAD_LOAD_SPECS)
)
def test_check_and_load_reject_the_same_spec(document, code, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    assert main(["check", "figure5", "--load-spec", str(path)]) == 1
    assert f"ERROR   {code}" in capsys.readouterr().out
    assert main(["load", "service", "--spec", str(path)]) == 2
    assert f"ERROR   {code}" in capsys.readouterr().err


def test_check_and_load_accept_the_example_spec(capsys):
    path = str(Path(__file__).resolve().parents[1] / "examples" / "load_mixed.json")
    assert main(["check", "figure5", "--load-spec", path]) == 0
    argv = ["load", "service", "--spec", path, "--flows", "40", "--epochs", "2"]
    assert main(argv) == 0
    assert "digest:" in capsys.readouterr().out
