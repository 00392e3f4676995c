"""Steering as a compiled rule set: ``compile_rules`` is pure, ``sync`` converges.

The installed steering entries must equal what the TSA's inputs compile to
after every control action — realize, re-steer, reattach — and the tables
are pinned by hash so a change to what steering installs shows up here.
"""

import hashlib
from pathlib import Path

from repro.faults import FaultPlan, run_chaos_scenario
from repro.net.steering import TrafficSteeringApplication
from repro.telemetry.scenario import build_figure5_system
from repro.validation import validate_steering

PLAN = Path(__file__).resolve().parent.parent / "examples" / "plan_basic.json"

#: Every switch's table, in table order, right after the figure-5 realize.
FIGURE5_REALIZED = (
    "ddbab72d1a86ec0aebf2fcab9c663516eb49a408b89cdfc127bccaea14ef091e"
)


def table_digest(topology, ordered=True):
    """sha256 over every switch's ``(priority, match, actions)`` rows."""
    tables = []
    for name in sorted(topology.switches):
        rows = [
            (entry.priority, repr(entry.match), repr(entry.actions))
            for entry in topology.switches[name].table
        ]
        tables.append((name, rows if ordered else sorted(rows)))
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def test_figure5_realize_installs_the_pinned_tables():
    system = build_figure5_system()
    assert table_digest(system.topology) == FIGURE5_REALIZED
    assert sum(len(s.table) for s in system.topology.switches.values()) == 55
    assert system.hub.registry.value("tsa_rules_installed_total") == 55


def test_compile_is_pure():
    """Compiling twice gives the same rules and resolves nothing."""
    system = build_figure5_system()
    tsa = system.tsa
    realized = dict(tsa.realized)
    first = tsa.compile()
    assert tsa.compile() == first
    assert tsa.realized == realized
    assert tsa.diff(first) == ([], [])


def test_sync_removes_stale_and_restores_missing_entries():
    system = build_figure5_system()
    tsa, topology = system.tsa, system.topology
    s2 = topology.switches["s2"]
    dropped = next(entry for entry in s2.table if entry.priority == 200)
    s2.table.remove(dropped.entry_id)
    orphan = tsa.controller.install(
        "s1", dropped.match, list(dropped.actions), priority=300
    )
    assert [issue.code for issue in validate_steering(tsa)] == [
        "STEER001", "STEER002",
    ]
    removed = tsa.sync(tsa.compile())
    assert [entry for _, entry in removed] == [orphan]
    assert validate_steering(tsa) == []
    assert table_digest(topology, ordered=False) == table_digest(
        build_figure5_system().topology, ordered=False
    )


# Sorted tables after each re-steer of plan_basic: dpi3 crashes and both
# chains move to a provisioned standby, then dpi3 restarts and both return.
CHAOS_STEPS = [
    ("chain1", "2fb0adec5b5e3823bf8bc5a3412f1d3c70db736f4154f2ba24c4fc03b3aa781b"),
    ("chain2", "f0e1af9ce24408d921295dddc4116cfa8e2342812df983c5dc046eeadcc99630"),
    ("chain1", "021e40e189d82ab1ea221c2f5c351cea267e359a49be164e9eae45ef13438dfe"),
    ("chain2", "ab2c9d519c34500d0d329caf5735031d89d1c1d03f2667ff19881b9c1d0cad7b"),
]


def test_chaos_plan_basic_keeps_installed_equal_to_compiled(monkeypatch):
    steps = []
    reinstall = TrafficSteeringApplication.reinstall_chain

    def checked_reinstall(tsa, chain_name, hop_hosts):
        updated = reinstall(tsa, chain_name, hop_hosts)
        steps.append((
            chain_name,
            table_digest(tsa.topology, ordered=False),
            validate_steering(tsa),
        ))
        return updated

    monkeypatch.setattr(
        TrafficSteeringApplication, "reinstall_chain", checked_reinstall
    )
    result = run_chaos_scenario(FaultPlan.load(PLAN))
    assert result.ok
    assert [(chain, digest) for chain, digest, _ in steps] == CHAOS_STEPS
    assert all(issues == [] for _, _, issues in steps)
    # Reattaching restores the realize-time tables exactly, as a set.
    assert steps[-1][1] == table_digest(
        build_figure5_system(extra_hosts={"dpi-standby": "s3"}).topology,
        ordered=False,
    )
