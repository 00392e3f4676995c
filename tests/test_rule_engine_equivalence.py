"""``RuleEngine.evaluate`` against the evaluation it had before the sole-rule
index: same hits, same positions, same order, whatever rules were added and
removed on the way."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.middleboxes.base import Action, Rule, RuleEngine, RuleHit

_SEVERITY = {Action.DROP: 0, Action.ALERT: 1, Action.FORWARD: 2}


def reference_evaluate(rules: dict, matches: list, packet_id: int) -> list:
    """The parent commit's ``evaluate`` body over a plain ``{id: Rule}``
    dict, with its ``_by_pattern`` index rebuilt from scratch."""
    by_pattern: dict = {}
    for rule in rules.values():
        for pattern_id in rule.pattern_ids:
            by_pattern.setdefault(pattern_id, set()).add(rule.rule_id)
    if not matches:
        return []
    matched_ids: dict = {}
    for pattern_id, position in matches:
        matched_ids.setdefault(pattern_id, []).append(position)
    candidate_ids: set = set()
    for pattern_id in matched_ids:
        candidate_ids |= by_pattern.get(pattern_id, set())
    hits = []
    for rule_id in sorted(candidate_ids):
        rule = rules[rule_id]
        if all(pattern_id in matched_ids for pattern_id in rule.pattern_ids):
            positions = tuple(
                itertools.chain.from_iterable(
                    matched_ids[pattern_id] for pattern_id in rule.pattern_ids
                )
            )
            hits.append(
                RuleHit(rule_id=rule.rule_id, packet_id=packet_id, positions=positions)
            )
    if len(hits) > 1:
        hits.sort(key=lambda hit: (_SEVERITY[rules[hit.rule_id].action], hit.rule_id))
    return hits


PATTERNS = st.integers(min_value=0, max_value=5)
# Mostly one-pattern rules (what add_literal_rule / add_regex_rule make), some
# with several conditions, some naming one pattern twice; six pattern ids over
# up to eight rules, so patterns shared by two rules are common.
RULES = st.builds(
    Rule,
    rule_id=st.integers(min_value=0, max_value=7),
    pattern_ids=st.one_of(
        st.tuples(PATTERNS),
        st.tuples(PATTERNS),
        st.lists(PATTERNS, min_size=2, max_size=3).map(tuple),
    ),
    action=st.sampled_from(list(Action)),
)
MATCHES = st.lists(
    st.tuples(PATTERNS, st.integers(min_value=0, max_value=40)), max_size=6
)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), RULES),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("evaluate"), MATCHES),
    ),
    max_size=30,
)


@given(initial=st.lists(RULES, max_size=6, unique_by=lambda rule: rule.rule_id), steps=STEPS)
@settings(max_examples=400, deadline=None)
def test_evaluate_equals_the_reference(initial, steps):
    engine = RuleEngine(initial)
    rules = {rule.rule_id: rule for rule in initial}
    packet_id = 0
    for step, argument in steps + [("evaluate", [(p, p) for p in range(6)])] + [
        ("evaluate", [(p, 9)]) for p in range(6)
    ]:
        if step == "add":
            if argument.rule_id not in rules:
                engine.add_rule(argument)
                rules[argument.rule_id] = argument
        elif step == "remove":
            if argument in rules:
                assert engine.remove_rule(argument) is rules.pop(argument)
        else:
            packet_id += 1
            assert engine.evaluate(argument, packet_id=packet_id) == (
                reference_evaluate(rules, argument, packet_id)
            )
    assert len(engine) == len(rules)


def test_shared_pattern_leaves_and_rejoins_the_index():
    """One pattern in and out of the index, spelled out."""
    engine = RuleEngine([Rule(1, (7,), Action.ALERT)])
    assert engine.evaluate([(7, 3)], packet_id=5) == [RuleHit(1, 5, (3,))]
    engine.add_rule(Rule(2, (7,), Action.DROP))  # shared: both fire, DROP first
    assert [hit.rule_id for hit in engine.evaluate([(7, 3)])] == [2, 1]
    engine.remove_rule(2)  # sole again
    assert engine.evaluate([(7, 3)]) == [RuleHit(1, 0, (3,))]
    engine.add_rule(Rule(3, (7, 8), Action.DROP))  # a second, two-pattern rule
    assert engine.evaluate([(7, 3)]) == [RuleHit(1, 0, (3,))]
    engine.remove_rule(1)  # only the two-pattern rule names 7 now
    assert engine.evaluate([(7, 3)]) == []
    assert engine.evaluate([(7, 3), (8, 4)]) == [RuleHit(3, 0, (3, 4))]
    engine.remove_rule(3)
    assert engine.evaluate([(7, 3)]) == []
    engine.add_rule(Rule(4, (9,), Action.FORWARD))
    assert engine.evaluate([(9, 1), (9, 2)]) == [RuleHit(4, 0, (1, 2))]
    engine.remove_rule(4)  # a removed rule must not fire from a stale index
    assert engine.evaluate([(9, 1)]) == []
