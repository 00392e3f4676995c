"""Static config validators: every issue code fires, entry points gate.

Each validator is checked both ways: a well-formed object yields no
issues, and a specifically broken one yields exactly the expected code.
The entry-point tests pin the ``validate=True`` defaults on
``TrafficSteeringApplication.realize`` and ``InstanceManager.provision``.
"""

import pytest

from repro.validation import (
    Severity,
    ValidationError,
    errors_in,
    format_issues,
    raise_on_errors,
    validate_chains,
    validate_flow_tables,
    validate_instance_config,
    validate_pattern_list,
    validate_pattern_registry,
    validate_scenario,
    validate_steering,
    validate_topology,
)
from repro.core.controller import DPIController
from repro.core.instance import InstanceConfig
from repro.core.messages import RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile
from repro.net.controller import SDNController
from repro.net.openflow import FlowAction, FlowMatch
from repro.net.steering import (
    PolicyChain,
    RealizedChain,
    TrafficAssignment,
    TrafficSteeringApplication,
)
from repro.net.topology import Topology
from repro.telemetry.scenario import run_figure5_scenario


def codes(issues):
    return [issue.code for issue in issues]


def build_tsa():
    topo = Topology()
    for switch in ("s1", "s2"):
        topo.add_switch(switch)
    topo.add_link("s1", "s2")
    for host, switch in (("src", "s1"), ("dst", "s2"), ("mb", "s2")):
        topo.add_host(host)
        topo.add_link(switch, host)
    tsa = TrafficSteeringApplication(SDNController(topo, learning=False), topo)
    tsa.register_middlebox_instance("ids", "mb")
    return topo, tsa


# --- topology ---------------------------------------------------------------

def test_connected_topology_is_clean():
    topo, _ = build_tsa()
    assert validate_topology(topo) == []


def test_isolated_node_and_disconnection_are_flagged():
    topo, _ = build_tsa()
    topo.add_switch("lonely")
    issues = validate_topology(topo)
    assert codes(issues) == ["TOPO001", "TOPO002"]
    assert issues[0].subject == "lonely"
    assert all(issue.severity is Severity.ERROR for issue in issues)


def test_disconnection_lists_every_component_sorted():
    topo, _ = build_tsa()
    for switch in ("z2", "a9", "z1"):
        topo.add_switch(switch)
    topo.add_link("z2", "z1")
    topo.add_link("a9", "z1")
    topo.add_switch("b0")
    topo.add_host("h0")
    topo.add_link("h0", "b0")
    (issue,) = [i for i in validate_topology(topo) if i.code == "TOPO002"]
    assert issue.message == (
        "graph is disconnected: components [['a9', 'z1', 'z2'], "
        "['b0', 'h0'], ['dst', 'mb', 's1', 's2', 'src']]"
    )


def test_duplicate_host_ip_is_flagged():
    topo, _ = build_tsa()
    clone = topo.add_host("clone", ip=topo.hosts["src"].ip)
    topo.add_link("s1", "clone")
    assert clone.ip == topo.hosts["src"].ip
    issues = validate_topology(topo)
    assert codes(issues) == ["TOPO003"]
    assert "src" in issues[0].subject and "clone" in issues[0].subject


# --- chains -----------------------------------------------------------------

def test_well_formed_chain_is_clean():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    assert validate_chains(tsa) == []


def test_unregistered_middlebox_type_is_chain001():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ghost-type",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    issues = validate_chains(tsa)
    assert codes(issues) == ["CHAIN001"]
    assert "ghost-type" in issues[0].message


def test_overlapping_tag_blocks_are_chain002():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("a", ("ids",), chain_id=100))
    # Tag block (100, 101) vs (101, 102): segment tags collide at 101.
    tsa.chains["b"] = PolicyChain("b", ("ids",), chain_id=101)
    tsa.assign_traffic(TrafficAssignment("src", "dst", "a"))
    tsa.assignments.append(TrafficAssignment("src", "dst", "b"))
    issues = validate_chains(tsa)
    assert codes(issues) == ["CHAIN002"]
    assert "a,b" == issues[0].subject


def test_disjoint_tag_blocks_are_clean():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("a", ("ids",)))
    tsa.add_policy_chain(PolicyChain("b", ("ids",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "a"))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "b"))
    assert validate_chains(tsa) == []


def test_unknown_assignment_host_is_chain003():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    tsa.assignments.append(TrafficAssignment("nowhere", "dst", "c"))
    issues = validate_chains(tsa)
    assert codes(issues) == ["CHAIN003"]
    assert "nowhere" in issues[0].message


def test_unassigned_chain_is_a_warning_only():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    issues = validate_chains(tsa)
    assert codes(issues) == ["CHAIN004"]
    assert errors_in(issues) == []


def test_unallocated_chain_id_is_a_warning_only():
    _, tsa = build_tsa()
    tsa.chains["c"] = PolicyChain("c", ("ids",))  # bypasses allocation
    tsa.assignments.append(TrafficAssignment("src", "dst", "c"))
    issues = validate_chains(tsa)
    assert codes(issues) == ["CHAIN005"]
    assert errors_in(issues) == []


# --- steering / flow tables -------------------------------------------------

def test_realized_rules_pass_steering_checks():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    tsa.realize()
    assert validate_steering(tsa) == []
    assert errors_in(validate_flow_tables(tsa.topology)) == []


def test_orphan_vlan_rule_is_steer001():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    tsa.realize()
    tsa.controller.install(
        "s1", FlowMatch(in_port=1, vlan_vid=999),
        [FlowAction.output(2)], priority=200,
    )
    issues = validate_steering(tsa)
    assert codes(issues) == ["STEER001"]
    assert "999" in issues[0].message


def test_unpushed_ingress_tag_is_steer002():
    _, tsa = build_tsa()
    chain = tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    # Mark the chain realized without installing any rule: the ingress
    # tag is never pushed anywhere.
    tsa.realized["c"] = RealizedChain(chain=chain, hop_hosts=("mb",))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    issues = validate_steering(tsa)
    assert codes(issues) == ["STEER002"]
    assert str(chain.chain_id) in issues[0].message


def test_duplicate_flow_rule_is_flow002():
    topo, tsa = build_tsa()
    for _ in range(2):
        tsa.controller.install(
            "s1", FlowMatch(in_port=4, vlan_vid=250),
            [FlowAction.output(1)], priority=200,
        )
    issues = validate_flow_tables(topo)
    assert codes(issues) == ["FLOW002"]
    assert issues[0].severity is Severity.ERROR


def test_same_priority_overlap_is_flow001_warning():
    topo, tsa = build_tsa()
    tsa.controller.install(
        "s1", FlowMatch(in_port=4), [FlowAction.output(1)], priority=200
    )
    tsa.controller.install(
        "s1", FlowMatch(vlan_vid=250), [FlowAction.output(2)], priority=200
    )
    issues = validate_flow_tables(topo)
    assert codes(issues) == ["FLOW001"]
    assert errors_in(issues) == []


def test_disjoint_rules_at_same_priority_are_clean():
    topo, tsa = build_tsa()
    tsa.controller.install(
        "s1", FlowMatch(in_port=1), [FlowAction.output(2)], priority=200
    )
    tsa.controller.install(
        "s1", FlowMatch(in_port=2), [FlowAction.output(1)], priority=200
    )
    assert validate_flow_tables(topo) == []


# --- patterns ---------------------------------------------------------------

def test_pattern_list_duplicates_and_empties():
    issues = validate_pattern_list([b"alpha", b"", b"alpha"])
    assert codes(issues) == ["PAT002", "PAT001"]
    empty, duplicate = issues
    assert empty.severity is Severity.ERROR
    assert duplicate.severity is Severity.WARNING
    assert "pattern[0]" in duplicate.message


def test_pattern_list_accepts_pattern_objects():
    patterns = [Pattern(0, b"alpha"), Pattern(1, b"beta")]
    assert validate_pattern_list(patterns) == []


def test_empty_middlebox_pattern_set_is_pat003():
    controller = DPIController()
    controller.handle_message(RegisterMiddleboxMessage(1, "idle-ids"))
    issues = validate_pattern_registry(controller)
    assert codes(issues) == ["PAT003"]
    assert errors_in(issues) == []


# --- instance config --------------------------------------------------------

def make_config(chain_map):
    return InstanceConfig(
        pattern_sets={1: [Pattern(0, b"sig")]},
        profiles={1: MiddleboxProfile(1, name="ids")},
        chain_map=chain_map,
    )


def test_consistent_instance_config_is_clean():
    assert validate_instance_config(make_config({100: (1,)})) == []


def test_chain_map_with_unknown_middlebox_is_cfg001():
    issues = validate_instance_config(make_config({100: (1, 9)}))
    assert codes(issues) == ["CFG001"]
    assert "middlebox 9" in issues[0].message


# --- error type & formatting ------------------------------------------------

def test_validation_error_is_keyerror_and_valueerror():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ghost-type",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    with pytest.raises(ValidationError) as excinfo:
        tsa.realize()
    error = excinfo.value
    assert isinstance(error, KeyError)
    assert isinstance(error, ValueError)
    assert codes(error.issues) == ["CHAIN001"]
    # str() yields the readable report, not KeyError's repr of it.
    assert "CHAIN001" in str(error)
    assert "\\n" not in str(error)


def test_raise_on_errors_ignores_warnings():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ids",)))
    issues = validate_chains(tsa)
    assert codes(issues) == ["CHAIN004"]
    raise_on_errors(issues)  # warnings only: no raise


def test_format_issues_orders_errors_first_and_counts():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("good", ("ids",)))
    tsa.chains["bad"] = PolicyChain("bad", ("ghost-type",), chain_id=900)
    report = format_issues(validate_chains(tsa))
    lines = report.splitlines()
    assert lines[0].startswith("ERROR")
    assert lines[-1] == "1 error(s), 2 warning(s)"


# --- entry-point wiring -----------------------------------------------------

def test_realize_validates_by_default_and_can_opt_out():
    _, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ghost-type",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    with pytest.raises(ValidationError):
        tsa.realize()
    # Opting out defers the failure to physical resolution, as before.
    with pytest.raises(KeyError):
        tsa.realize(validate=False)


def test_realize_validation_blocks_before_any_rule_is_installed():
    topo, tsa = build_tsa()
    tsa.add_policy_chain(PolicyChain("c", ("ghost-type",)))
    tsa.assign_traffic(TrafficAssignment("src", "dst", "c"))
    with pytest.raises(ValidationError):
        tsa.realize()
    assert all(len(list(s.table)) == 0 for s in topo.switches.values())


def test_create_instance_validates_its_config():
    controller = DPIController()
    controller.handle_message(RegisterMiddleboxMessage(1, "ids"))
    controller.policy_chains_changed(
        {"c": PolicyChain("c", ("ids",), chain_id=100)}
    )
    instance = controller.instances.provision("ok")
    assert instance.config.chain_map == {100: (1,)}


# --- whole-scenario aggregation ---------------------------------------------

def test_figure5_scenario_validates_clean():
    result = run_figure5_scenario(packets=0, telemetry=False)
    issues = validate_scenario(
        topology=result.topology,
        tsa=result.tsa,
        controller=result.dpi_controller,
    )
    assert errors_in(issues) == []


def test_validate_scenario_sections_are_optional():
    topo, tsa = build_tsa()
    topo.add_switch("lonely")
    assert codes(validate_scenario(topology=topo)) == ["TOPO001", "TOPO002"]
    assert validate_scenario() == []
