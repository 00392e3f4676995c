"""Integration tests: chain-grouped instance deployment (Section 4.3)."""

import pytest

from repro.core.controller import DPIController
from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
from repro.core.patterns import Pattern
from repro.net.steering import PolicyChain


def build_controller():
    """Four chains over four middleboxes: two HTTP-ish, two FTP-ish."""
    controller = DPIController()
    signatures = {
        1: ("http_ids", b"http-threat-sig"),
        2: ("http_fw", b"http-block-sig!"),
        3: ("ftp_ids", b"ftp-threat-sig!"),
        4: ("ftp_av", b"ftp-virus-sig!!"),
    }
    for middlebox_id, (name, signature) in signatures.items():
        controller.handle_message(
            RegisterMiddleboxMessage(middlebox_id=middlebox_id, name=name)
        )
        controller.handle_message(
            AddPatternsMessage(middlebox_id, [Pattern(0, signature)])
        )
    controller.policy_chains_changed(
        {
            "h1": PolicyChain("h1", ("http_ids",), chain_id=100),
            "h2": PolicyChain("h2", ("http_ids", "http_fw"), chain_id=101),
            "f1": PolicyChain("f1", ("ftp_ids",), chain_id=102),
            "f2": PolicyChain("f2", ("ftp_ids", "ftp_av"), chain_id=103),
        }
    )
    return controller


class TestDeployGrouped:
    def test_two_groups_split_http_from_ftp(self):
        controller = build_controller()
        deployed = controller.instances.plan_groups(max_groups=2)
        assert len(deployed) == 2
        groups = {frozenset(chains) for chains in deployed.values()}
        assert frozenset({100, 101}) in groups
        assert frozenset({102, 103}) in groups

    def test_instances_specialized(self):
        controller = build_controller()
        deployed = controller.instances.plan_groups(max_groups=2)
        for name, chain_ids in deployed.items():
            instance = controller.instances[name]
            assert set(instance.scanner.chain_map) == set(chain_ids)
            # The HTTP group never carries FTP patterns and vice versa.
            loaded = set(instance.config.pattern_sets)
            if 100 in chain_ids:
                assert loaded == {1, 2}
            else:
                assert loaded == {3, 4}

    def test_group_instances_scan_their_chains(self):
        controller = build_controller()
        deployed = controller.instances.plan_groups(max_groups=2)
        http_instance = next(
            controller.instances[name]
            for name, chains in deployed.items()
            if 100 in chains
        )
        output = http_instance.inspect(b"a http-threat-sig flows", chain_id=100)
        assert output.matches[1] == [(0, 17)]
        with pytest.raises(KeyError):
            http_instance.inspect(b"x", chain_id=102)

    def test_single_group_carries_everything(self):
        controller = build_controller()
        deployed = controller.instances.plan_groups(max_groups=1)
        (only,) = deployed.values()
        assert sorted(only) == [100, 101, 102, 103]

    def test_no_chains_rejected(self):
        controller = DPIController()
        with pytest.raises(ValueError):
            controller.instances.plan_groups(max_groups=2)
