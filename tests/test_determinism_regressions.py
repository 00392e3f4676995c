"""Regression tests for set-iteration-order defects the set-iteration check surfaced.

Both fixes replace iteration over a set with ``sorted(...)`` so the
observable behaviour (dict key order, which error raises first) no
longer depends on hash seeding. The tests pin the now-deterministic
outcome directly.
"""

import pytest

from repro.core.controller import DPIController
from repro.core.instance import DPIServiceFunction
from repro.core.messages import RegisterMiddleboxMessage
from repro.core.patterns import GlobalPatternRegistry, Pattern
from repro.net.steering import PolicyChain


def test_pattern_sets_by_middlebox_orders_shared_referrers():
    """A pattern shared by several middleboxes reconstructs in id order.

    ``referrers`` is a set of ``(middlebox_id, pattern_id)`` tuples;
    before the fix the returned dict's key order followed set iteration
    order, which varies with PYTHONHASHSEED.
    """
    registry = GlobalPatternRegistry()
    # Register out of order so sorted() visibly differs from insertion.
    for middlebox_id in (3, 1, 2):
        registry.add(middlebox_id, Pattern(0, b"shared-signature"))
    sets = registry.pattern_sets_by_middlebox()
    assert list(sets) == [1, 2, 3]
    assert all(len(ps) == 1 for ps in sets.values())


def test_pattern_sets_by_middlebox_one_entry_many_referrers():
    registry = GlobalPatternRegistry()
    for middlebox_id in (3, 1, 2):
        registry.add(middlebox_id, Pattern(0, b"shared-signature"))
    # Deduplication holds: one registry entry backs all three referrers.
    assert len(registry) == 1
    assert len(registry.pattern_sets_by_middlebox()) == 3


def make_instance_with_two_chains():
    controller = DPIController()
    for middlebox_id, name in ((1, "ids"), (2, "av")):
        controller.handle_message(RegisterMiddleboxMessage(middlebox_id, name))
        controller.add_patterns(middlebox_id, [Pattern(0, b"sig-%d" % middlebox_id)])
    controller.policy_chains_changed({
        "chain-a": PolicyChain("chain-a", ("ids",), chain_id=100),
        "chain-b": PolicyChain("chain-b", ("av",), chain_id=116),
    })
    return controller.instances.provision("inst")


def test_direct_chain_missing_address_raises_lowest_chain_first():
    """With two unaddressed direct chains, chain 100 must raise, not 116.

    ``direct_chains`` is a set; before the fix whichever chain set
    iteration yielded first named the KeyError, so the message differed
    run to run.
    """
    instance = make_instance_with_two_chains()
    with pytest.raises(KeyError, match="direct chain 100"):
        DPIServiceFunction(
            instance, direct_chains={116, 100}, middlebox_addresses={}
        )


def test_direct_chain_with_all_addresses_constructs():
    instance = make_instance_with_two_chains()
    function = DPIServiceFunction(
        instance,
        direct_chains={116, 100},
        middlebox_addresses={
            1: ("00:00:00:00:00:01", "10.0.0.1"),
            2: ("00:00:00:00:00:02", "10.0.0.2"),
        },
    )
    assert function.direct_chains == {100, 116}


class TestFigure5Digest:
    """Two same-seed figure-5 runs must produce bit-identical telemetry
    digests, whichever kernel scans.

    ``deterministic_digest`` hashes every metric, span and fault event
    that is a pure function of the workload.
    """

    def run(self, kernel):
        from repro.telemetry.scenario import run_figure5_scenario

        return run_figure5_scenario(packets=24, seed=7, kernel=kernel)

    @pytest.mark.parametrize("kernel", ["flat", "regex"])
    def test_same_seed_runs_digest_identically(self, kernel):
        from repro.telemetry.digest import deterministic_digest

        first, second = self.run(kernel), self.run(kernel)
        assert deterministic_digest(first.hub) == deterministic_digest(second.hub)

    def test_match_metrics_agree_between_kernels(self):
        def match_total(result):
            (counter,) = result.hub.registry.collect_named(
                "dpi_matches_total"
            )
            return counter.value

        assert match_total(self.run("flat")) == match_total(self.run("regex"))
