"""DET003 (transitive wall-clock / RNG reach) and the call graph under it.

The call-graph unit tests cover resolution and transitive fact
propagation directly.
"""

import ast
import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import LintContext, lint_source

SIM_PATH = "repro/core/fake.py"
OUTSIDE_PATH = "repro/workloads/fake.py"


def codes(findings):
    return [finding.code for finding in findings]


def lint(source, path=SIM_PATH):
    return lint_source(textwrap.dedent(source), path=path)


# --- DET003 -----------------------------------------------------------------

def test_det003_flags_transitive_wall_clock_reach():
    findings = lint(
        """
        import time

        def stamp():
            return time.time()

        def indirection():
            return stamp()

        def schedule(event):
            event.at = indirection()
        """,
        path="repro/net/fake.py",
    )
    det3 = [f for f in findings if f.code == "DET003"]
    # Both sim-scoped call sites into the tainted chain are flagged.
    assert len(det3) == 2
    assert all("time.time" in f.message for f in det3)
    # The direct call inside stamp() is DET001's, not DET003's.
    assert [f.code for f in findings if f.line == 5] == ["DET001"]


def test_det003_quiet_outside_sim_scope_and_for_clean_helpers():
    outside = lint(
        """
        import time

        def stamp():
            return time.time()

        def schedule(event):
            event.at = stamp()
        """,
        path=OUTSIDE_PATH,
    )
    assert codes(outside) == []
    clean = lint(
        """
        def helper(clock):
            return clock.now()

        def schedule(event, clock):
            event.at = helper(clock)
        """,
        path="repro/net/fake.py",
    )
    assert codes(clean) == []


# --- the call graph ----------------------------------------------------------

def graph_of(**modules):
    contexts = [
        LintContext(
            path=f"{module.replace('.', '/')}.py",
            source=textwrap.dedent(source),
            tree=ast.parse(textwrap.dedent(source)),
        )
        for module, source in modules.items()
    ]
    return CallGraph.build(contexts)


def test_callgraph_resolves_same_module_and_self_calls():
    graph = graph_of(
        **{
            "repro.net.fake": """
            def helper():
                pass

            class Box:
                def a(self):
                    return self.b()

                def b(self):
                    return helper()
            """
        }
    )
    assert set(graph.functions) == {
        "repro.net.fake.helper",
        "repro.net.fake.Box.a",
        "repro.net.fake.Box.b",
    }
    a_calls = graph.functions["repro.net.fake.Box.a"].calls
    assert a_calls[0].target == "repro.net.fake.Box.b"
    b_calls = graph.functions["repro.net.fake.Box.b"].calls
    assert b_calls[0].target == "repro.net.fake.helper"


def test_callgraph_resolves_imports_across_modules():
    graph = graph_of(
        **{
            "repro.net.clockwork": """
            import time

            def now():
                return time.time()
            """,
            "repro.net.user": """
            from repro.net.clockwork import now
            import repro.net.clockwork as cw

            def a():
                return now()

            def b():
                return cw.now()
            """,
        }
    )
    for fn in ("a", "b"):
        calls = graph.functions[f"repro.net.user.{fn}"].calls
        assert calls[0].target == "repro.net.clockwork.now"
    reaches = graph.transitive_reach(lambda name: name == "time.time")
    assert set(reaches) == {
        "repro.net.clockwork.now",
        "repro.net.user.a",
        "repro.net.user.b",
    }
    assert reaches["repro.net.clockwork.now"].via is None
    assert reaches["repro.net.user.a"].via == "repro.net.clockwork.now"


def test_callgraph_excludes_nested_function_bodies_from_parents():
    graph = graph_of(
        **{
            "repro.net.fake": """
            def outer():
                def inner():
                    return target()
                return inner

            def target():
                pass
            """
        }
    )
    outer_targets = [
        site.target for site in graph.functions["repro.net.fake.outer"].calls
    ]
    assert "repro.net.fake.target" not in outer_targets
    inner_targets = [
        site.target
        for site in graph.functions["repro.net.fake.outer.inner"].calls
    ]
    assert inner_targets == ["repro.net.fake.target"]
