"""The custom AST lint engine: rules, suppressions, reporters, self-check.

Every registered rule must demonstrably fire on a crafted bad fixture and
stay quiet on the equivalent good code; the engine-level tests cover
suppression comments, sim-scope gating, parse failures and the JSON
reporter schema CI consumers rely on.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    default_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.engine import module_name_for
from repro.analysis.reporters import JSON_SCHEMA_VERSION

SIM_PATH = "repro/net/fake.py"
OUTSIDE_PATH = "repro/workloads/fake.py"

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes(findings):
    return [finding.code for finding in findings]


# --- per-rule negative fixtures (each rule must fire) -----------------------

#: rule code -> source that must trigger it on a simulation path.
BAD_FIXTURES = {
    "DET001": "import time\nstamp = time.time()\n",
    "DET002": "for item in {1, 2, 3}:\n    print(item)\n",
    "TEL001": (
        "def f(registry, addr):\n"
        "    registry.counter('pkts', peer=f'{addr}')\n"
    ),
    "API001": "def handler(queue=[]):\n    return queue\n",
    "API002": (
        "def scan(instance, payload):\n"
        "    return instance.inspect(payload, 100)\n"
    ),
    "KER001": (
        "class ShinyKernel:\n"
        "    def scan(self, data, active_bitmap, state, limit):\n"
        "        return None\n"
        "    def warm_up(self):\n"
        "        return None\n"
    ),
    "DET003": (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
        "def schedule(event):\n"
        "    event.at = stamp()\n"
    ),
    "NOQ001": "x = 1  # repro: noqa[DET001]\n",
}


@pytest.mark.parametrize("code", sorted(RULE_REGISTRY))
def test_every_registered_rule_fires_on_its_bad_fixture(code):
    assert code in BAD_FIXTURES, f"no negative fixture for rule {code}"
    findings = lint_source(BAD_FIXTURES[code], path=SIM_PATH)
    assert code in codes(findings)


def test_rule_registry_matches_default_rules():
    assert sorted(RULE_REGISTRY) == sorted(r.code for r in default_rules())


# --- DET001 -----------------------------------------------------------------

@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nt = time.time()\n",
        "import time\nt = time.time_ns()\n",
        "from datetime import datetime\nd = datetime.now()\n",
        "import datetime\nd = datetime.datetime.utcnow()\n",
        "import random\nx = random.random()\n",
        "import random\nx = random.randint(1, 6)\n",
        "import random\nrng = random.Random()\n",
        "import random\nrng = random.SystemRandom(7)\n",
    ],
)
def test_det001_flags_wall_clock_and_global_rng(snippet):
    assert codes(lint_source(snippet, path=SIM_PATH)) == ["DET001"]


@pytest.mark.parametrize(
    "snippet",
    [
        # Durations (never simulated behaviour) are deliberately allowed.
        "import time\nt = time.perf_counter()\n",
        "import time\nt = time.monotonic()\n",
        # A seeded RNG is the sanctioned source of randomness.
        "import random\nrng = random.Random(7)\n",
        "import random\nrng = random.Random(seed)\n",
    ],
)
def test_det001_allows_durations_and_seeded_rng(snippet):
    assert lint_source(snippet, path=SIM_PATH) == []


def test_det001_only_applies_on_simulation_paths():
    snippet = "import time\nt = time.time()\n"
    assert lint_source(snippet, path=OUTSIDE_PATH) == []
    assert lint_source(snippet, path="scripts/tool.py") == []


# --- DET002 -----------------------------------------------------------------

@pytest.mark.parametrize(
    "snippet",
    [
        "for x in {1, 2}:\n    pass\n",
        "for x in set(items):\n    pass\n",
        "for x in frozenset(items):\n    pass\n",
        "for x in left | {3}:\n    pass\n",
        "for x in set(a) - b:\n    pass\n",
        "out = [x for x in {1, 2}]\n",
        "out = {k: 1 for k in set(names)}\n",
    ],
)
def test_det002_flags_unordered_iteration(snippet):
    snippet = "left = {0}\n" + snippet
    assert "DET002" in codes(lint_source(snippet, path=SIM_PATH))


def test_det002_flags_set_typed_attribute_iteration():
    snippet = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.members = set()\n"
        "    def walk(self):\n"
        "        for member in self.members:\n"
        "            print(member)\n"
    )
    findings = lint_source(snippet, path=SIM_PATH)
    assert codes(findings) == ["DET002"]
    assert ".members" in findings[0].message


def test_det002_flags_annotated_set_field_iteration():
    snippet = (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Entry:\n"
        "    referrers: set[int] = field(default_factory=set)\n"
        "def walk(entry):\n"
        "    return [r for r in entry.referrers]\n"
    )
    assert "DET002" in codes(lint_source(snippet, path=SIM_PATH))


@pytest.mark.parametrize(
    "snippet",
    [
        # sorted() restores determinism.
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.members = set()\n"
        "    def walk(self):\n"
        "        for member in sorted(self.members):\n"
        "            print(member)\n",
        # Lists and dicts iterate deterministically.
        "for x in [1, 2]:\n    pass\n",
        "for k in {'a': 1}:\n    pass\n",
    ],
)
def test_det002_allows_deterministic_iteration(snippet):
    assert lint_source(snippet, path=SIM_PATH) == []


def test_det002_silent_outside_sim_scope():
    snippet = "for x in {1, 2}:\n    pass\n"
    assert lint_source(snippet, path=OUTSIDE_PATH) == []


# --- TEL001 -----------------------------------------------------------------

@pytest.mark.parametrize(
    "snippet",
    [
        "registry.counter('pkts', peer=f'{addr}')\n",
        "registry.gauge('depth', queue='q-' + name)\n",
        "registry.histogram('lat', flow=str(flow_key))\n",
        "registry.counter('pkts', peer=addr.format())\n",
    ],
)
def test_tel001_flags_unbounded_label_values(snippet):
    snippet = "addr = name = flow_key = 'x'\nregistry = object()\n" + snippet
    assert "TEL001" in codes(lint_source(snippet, path=OUTSIDE_PATH))


@pytest.mark.parametrize(
    "snippet",
    [
        "registry.counter('pkts', instance='dpi1')\n",
        "registry.counter('pkts', instance=name)\n",
        "registry.histogram('lat', buckets=[b * 2 for b in bounds])\n",
        "registry.gauge_callback('flows', callback=lambda: str(x))\n",
    ],
)
def test_tel001_allows_bounded_labels_and_non_label_kwargs(snippet):
    snippet = "name = 'dpi1'\nbounds = [1.0]\nx = 1\nregistry = object()\n" + snippet
    assert lint_source(snippet, path=OUTSIDE_PATH) == []


# --- API001 -----------------------------------------------------------------

@pytest.mark.parametrize(
    "snippet",
    [
        "def f(x=[]):\n    pass\n",
        "def f(x={}):\n    pass\n",
        "def f(x=set()):\n    pass\n",
        "def f(*, x=dict()):\n    pass\n",
        "async def f(x=[]):\n    pass\n",
        "g = lambda x=[]: x\n",
        "import collections\ndef f(x=collections.defaultdict(list)):\n    pass\n",
    ],
)
def test_api001_flags_mutable_defaults(snippet):
    assert "API001" in codes(lint_source(snippet, path=OUTSIDE_PATH))


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(x=None):\n    pass\n",
        "def f(x=()):\n    pass\n",
        "def f(x=frozenset()):\n    pass\n",
        "def f(x=0, y='a'):\n    pass\n",
    ],
)
def test_api001_allows_immutable_defaults(snippet):
    assert lint_source(snippet, path=OUTSIDE_PATH) == []


# --- API002 (keyword-only inspection surface) -------------------------------

@pytest.mark.parametrize(
    "snippet",
    [
        "def scan(instance, p):\n    return instance.inspect(p, 100)\n",
        (
            "def scan(instance, p):\n"
            "    return instance.inspect(p, 100, 'flow', 0.0)\n"
        ),
        (
            "def scan(instance, batch):\n"
            "    return [instance.inspect(p, 100) for p in batch]\n"
        ),
    ],
)
def test_api002_flags_positional_inspection_calls(snippet):
    assert "API002" in codes(lint_source(snippet, path=OUTSIDE_PATH))


@pytest.mark.parametrize(
    "snippet",
    [
        (
            "def scan(instance, p):\n"
            "    return instance.inspect(p, chain_id=100, flow_key='f')\n"
        ),
        (
            "def scan(instance, batch):\n"
            "    return [instance.inspect(p, chain_id=100) for p in batch]\n"
        ),
        # Unrelated single-positional .inspect() on other objects is fine.
        "def peek(conn):\n    return conn.inspect(42)\n",
    ],
)
def test_api002_allows_keyword_inspection_calls(snippet):
    assert lint_source(snippet, path=OUTSIDE_PATH) == []


# --- KER001 -----------------------------------------------------------------

def test_ker001_flags_methods_outside_the_kernel_contract():
    snippet = (
        "class FancyKernel:\n"
        "    def __init__(self, automaton):\n"
        "        pass\n"
        "    def scan(self, data, active_bitmap, state, limit):\n"
        "        return None\n"
        "    def precompute(self):\n"
        "        return None\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    findings = lint_source(snippet, path="repro/core/kernels.py")
    assert codes(findings) == ["KER001", "KER001"]
    messages = " ".join(f.message for f in findings)
    assert "precompute" in messages and "__len__" in messages


@pytest.mark.parametrize(
    "snippet",
    [
        # Private helpers are allowed.
        "class FancyKernel:\n"
        "    def scan(self, data, active_bitmap, state, limit):\n"
        "        return self._helper()\n"
        "    def _helper(self):\n"
        "        return None\n",
        # Not a kernel: no scan method.
        "class ResultKernel:\n"
        "    def combine(self):\n"
        "        return None\n",
        # Not a kernel: name does not end in Kernel.
        "class Scanner:\n"
        "    def scan(self, data, active_bitmap, state, limit):\n"
        "        return None\n"
        "    def reset(self):\n"
        "        return None\n",
    ],
)
def test_ker001_ignores_private_helpers_and_non_kernels(snippet):
    assert lint_source(snippet, path="repro/core/kernels.py") == []


# --- suppressions -----------------------------------------------------------

def test_blanket_noqa_suppresses_everything_on_the_line():
    snippet = "import time\nt = time.time()  # repro: noqa\n"
    assert lint_source(snippet, path=SIM_PATH) == []


def test_coded_noqa_suppresses_only_listed_codes():
    suppressed = "import time\nt = time.time()  # repro: noqa[DET001]\n"
    assert lint_source(suppressed, path=SIM_PATH) == []
    # A wrong-code noqa suppresses nothing — and is flagged for it.
    wrong_code = "import time\nt = time.time()  # repro: noqa[DET002]\n"
    assert sorted(codes(lint_source(wrong_code, path=SIM_PATH))) == [
        "DET001",
        "NOQ001",
    ]


def test_noqa_with_multiple_codes():
    snippet = (
        "import time, random\n"
        "t = time.time() + random.random()  # repro: noqa[DET001, DET002]\n"
    )
    assert lint_source(snippet, path=SIM_PATH) == []


def test_noqa_only_covers_its_own_line():
    snippet = (
        "import time\n"
        "a = time.time()  # repro: noqa\n"
        "b = time.time()\n"
    )
    findings = lint_source(snippet, path=SIM_PATH)
    assert [(f.code, f.line) for f in findings] == [("DET001", 3)]


# --- NOQ001: the suppression audit ------------------------------------------

def test_noq001_flags_unused_coded_suppression():
    findings = lint_source("x = 1  # repro: noqa[DET001]\n", path=SIM_PATH)
    assert codes(findings) == ["NOQ001"]
    assert findings[0].severity == "warning"
    assert "suppresses nothing" in findings[0].message


def test_noq001_flags_unused_blanket_suppression():
    findings = lint_source("x = 1  # repro: noqa\n", path=SIM_PATH)
    assert codes(findings) == ["NOQ001"]


def test_noq001_flags_unknown_codes():
    findings = lint_source("x = 1  # repro: noqa[BOGUS9]\n", path=SIM_PATH)
    assert codes(findings) == ["NOQ001"]
    assert "BOGUS9" in findings[0].message


def test_noq001_quiet_for_used_suppressions():
    used = "import time\nt = time.time()  # repro: noqa[DET001]\n"
    assert lint_source(used, path=SIM_PATH) == []
    blanket = "import time\nt = time.time()  # repro: noqa\n"
    assert lint_source(blanket, path=SIM_PATH) == []


def test_noq001_is_not_itself_suppressible():
    findings = lint_source("x = 1  # repro: noqa[NOQ001]\n", path=SIM_PATH)
    assert codes(findings) == ["NOQ001"]


def test_noq001_ignores_noqa_mentions_in_docstrings_and_prose():
    snippet = (
        '"""Docs.\n'
        "\n"
        "    flagged()  # repro: noqa[DET001]\n"
        '"""\n'
        "#: syntax note: ``# repro: noqa[DET001]`` suppresses a line\n"
        "x = 1\n"
    )
    assert lint_source(snippet, path=SIM_PATH) == []


def test_noq001_skipped_when_named_rules_did_not_run():
    from repro.analysis import LintEngine
    from repro.analysis.rules import RULE_REGISTRY as registry

    selected = [
        cls()
        for code, cls in registry.items()
        if code.startswith(("API", "NOQ"))
    ]
    engine = LintEngine(selected)
    # DET001 did not run, so the comment cannot be judged...
    findings = engine.lint_source(
        "x = 1  # repro: noqa[DET001]\n", path=SIM_PATH
    )
    assert findings == []
    # ...but a suppression naming only selected codes still is.
    findings = engine.lint_source(
        "x = 1  # repro: noqa[API001]\n", path=SIM_PATH
    )
    assert codes(findings) == ["NOQ001"]
    # Blanket suppressions are only auditable on full-catalog runs.
    findings = engine.lint_source("x = 1  # repro: noqa\n", path=SIM_PATH)
    assert findings == []


def test_warning_severity_renders_with_a_tag():
    findings = lint_source("x = 1  # repro: noqa[DET001]\n", path=SIM_PATH)
    assert findings[0].render() == (
        f"{SIM_PATH}:1:0: warning: NOQ001 '# repro: noqa[DET001]' "
        "suppresses nothing; delete it"
    )


# --- engine behaviour -------------------------------------------------------

def test_syntax_error_becomes_parse_finding():
    findings = lint_source("def broken(:\n", path=SIM_PATH)
    assert codes(findings) == ["PARSE001"]
    assert "parse" in findings[0].message


def test_findings_are_sorted_and_carry_positions():
    snippet = (
        "import time\n"
        "b = time.time()\n"
        "a = time.time()\n"
    )
    findings = lint_source(snippet, path=SIM_PATH)
    assert [f.line for f in findings] == [2, 3]
    assert all(f.path == SIM_PATH for f in findings)
    assert "repro/net/fake.py:2:" in findings[0].render()


def test_module_name_for_handles_real_and_fixture_paths():
    assert module_name_for("src/repro/net/switch.py") == "repro.net.switch"
    assert module_name_for("repro/net/fake.py") == "repro.net.fake"
    assert module_name_for("src/repro/core/__init__.py") == "repro.core"
    assert module_name_for("scripts/tool.py") == "tool"


def test_lint_paths_over_a_directory(tmp_path):
    package = tmp_path / "repro" / "net"
    package.mkdir(parents=True)
    (package / "bad.py").write_text("import time\nt = time.time()\n")
    (package / "good.py").write_text("x = 1\n")
    findings = lint_paths([tmp_path])
    assert codes(findings) == ["DET001"]


# --- reporters --------------------------------------------------------------

def test_render_text_summarizes_by_code():
    findings = lint_source(
        "import time, random\nt = time.time()\nx = random.random()\n",
        path=SIM_PATH,
    )
    text = render_text(findings)
    assert "2 finding(s) (DET001: 2)" in text


def test_render_text_reports_no_findings():
    assert render_text([]) == "no findings\n"


def test_render_json_schema():
    findings = lint_source(
        "import time\nt = time.time()\n", path=SIM_PATH
    )
    document = json.loads(render_json(findings))
    assert document["version"] == JSON_SCHEMA_VERSION
    assert document["counts"] == {"DET001": 1}
    assert len(document["findings"]) == 1
    entry = document["findings"][0]
    assert set(entry) == {"path", "line", "col", "code", "message", "severity"}
    assert entry["path"] == SIM_PATH
    assert entry["line"] == 2
    assert entry["severity"] == "error"


def test_render_json_empty_input():
    document = json.loads(render_json([]))
    assert document == {
        "version": JSON_SCHEMA_VERSION, "counts": {}, "findings": []
    }


# --- the codebase holds its own invariants ----------------------------------

def test_src_repro_is_lint_clean():
    findings = lint_paths([REPO_ROOT / "src" / "repro"])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"src/repro has lint findings:\n{rendered}"


#: Modules that hand out operating-system resources (processes, threads,
#: shared-memory segments).  The RES/CON rule families that watched their
#: use left with the only code that used them.
OS_RESOURCE_MODULES = (
    "multiprocessing", "threading", "concurrent.futures", "subprocess",
)


def test_src_repro_imports_no_os_resource_modules():
    import ast

    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for name in names:
                if name.startswith(OS_RESOURCE_MODULES) or "shared_memory" in name:
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                    )
    assert offenders == [], (
        "src/repro is single-process and single-threaded; these imports "
        "bring OS resources back:\n  " + "\n  ".join(offenders) + "\n"
        "Restore the lint rules that guard them in the same change — "
        "RES001/RES002, CON001/CON002 and the CFG/dataflow layer under "
        "them were last present at b5c3ae5: "
        "`git show b5c3ae5:src/repro/analysis/rules/resources.py` "
        "(also rules/concurrency.py, cfg.py, dataflow.py, baseline.py)."
    )
