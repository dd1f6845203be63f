"""Differential tests for generalization pruning (paper Steps 2-4).

The engine's ``rules._subsumed`` answers "is there a more specific rule
with a shared head and at least the same confidence?" for every rule at
once, on the rule set's body/head bit masks.  :func:`legacy_prune_generalizations`
is the all-pairs frozenset version, kept verbatim as the oracle: on any rule
list the two must keep the same rules, in the same order, as the same
objects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mining import rules
from repro.mining.rules import Rule, _subsumed, mask_cells, masks_of, words_for
from repro.util.rng import as_generator
from tests.oracles import ruleset_of

BODY_ITEMS = range(6)
HEAD_ITEMS = range(6, 9)
#: Few distinct confidences, so equal-confidence ties are common.
CONFIDENCES = (0.0, 0.25, 0.5, 0.75, 1.0)


def legacy_prune_generalizations(rules: list[Rule]) -> list[Rule]:
    """The all-pairs pruning, verbatim (the oracle)."""
    kept: list[Rule] = []
    for a in rules:
        subsumed = any(
            a.body < b.body
            and (a.heads & b.heads)
            and b.confidence >= a.confidence
            for b in rules
        )
        if not subsumed:
            kept.append(a)
    return kept


def _prune_generalizations(rules: list[Rule]) -> list[Rule]:
    """The engine's mask pruning applied to a rule list."""
    cols = ruleset_of(rules, [], frozenset())
    n_words = words_for(1 + max((max(r.body | r.heads) for r in rules), default=0))
    rule, item = mask_cells(masks_of(cols.head_items, n_words))
    size = np.array([len(b) for b in cols.body_items], np.int64)
    body = masks_of(cols.body_items, n_words)
    keep = ~_subsumed(body, np.array(cols.confidence), size, rule, item)
    return [r for r, k in zip(rules, keep.tolist()) if k]


def make_rule(body, heads, confidence, support_count=1) -> Rule:
    return Rule(
        body=frozenset(body),
        heads=frozenset(heads),
        confidence=confidence,
        support=0.5,
        support_count=support_count,
    )


def assert_same_pruning(rules: list[Rule]) -> None:
    expected = legacy_prune_generalizations(rules)
    got = _prune_generalizations(rules)
    assert [id(r) for r in got] == [id(r) for r in expected]


def random_rules(rng: np.random.Generator, n: int) -> list[Rule]:
    """Rules over a tiny item universe: nested and duplicate bodies abound."""
    rules = []
    for _ in range(n):
        body_size = int(rng.integers(1, 5))
        body = rng.choice(len(BODY_ITEMS), size=body_size, replace=False)
        head_size = int(rng.integers(1, 3))
        heads = rng.choice(list(HEAD_ITEMS), size=head_size, replace=False)
        conf = CONFIDENCES[int(rng.integers(len(CONFIDENCES)))]
        rules.append(make_rule(body.tolist(), heads.tolist(), conf))
    return rules


def test_hand_cases():
    ab_x = make_rule({0, 1}, {6}, 0.5)
    a_x = make_rule({0}, {6}, 0.5)  # tie: the specialization wins
    a_y = make_rule({0}, {7}, 0.25)  # no shared head with {0,1}->X
    b_xy = make_rule({1}, {6, 7}, 0.75)  # more confident than {0,1}->X
    ab_x_dup = make_rule({0, 1}, {6}, 0.5)  # equal bodies never subsume
    c_x = make_rule({2}, {6}, 0.0)
    rules = [a_x, ab_x, a_y, b_xy, ab_x_dup, c_x]
    assert_same_pruning(rules)
    kept = _prune_generalizations(rules)
    assert kept == [ab_x, a_y, b_xy, ab_x_dup, c_x]
    assert kept[0] is ab_x and kept[3] is ab_x_dup


def test_empty_and_single_rule():
    assert _prune_generalizations([]) == []
    only = make_rule({3}, {8}, 0.5)
    assert _prune_generalizations([only])[0] is only


def test_subset_two_levels_down_is_pruned():
    """Subsumption is not limited to bodies one item smaller."""
    general = make_rule({0}, {6}, 0.5)
    deep = make_rule({0, 1, 2, 3}, {6, 7}, 0.5)
    assert _prune_generalizations([general, deep]) == [deep]


@pytest.mark.parametrize("seed", range(40))
def test_seeded_random_rule_lists(seed):
    rng = as_generator(seed)
    assert_same_pruning(random_rules(rng, int(rng.integers(0, 60))))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_pair_blocks(monkeypatch, block):
    """Pairs tested in several blocks give the same pruning."""
    monkeypatch.setattr(rules, "BLOCK_PAIRS", block)
    for seed in range(5):
        assert_same_pruning(random_rules(as_generator(seed), 40))


@pytest.mark.parametrize("seed", range(10))
def test_multi_word_masks(seed):
    """Bodies and heads spread over three 64-bit words prune the same."""
    rng = as_generator(seed)
    spread = {i: int(i * 37 % 190) for i in range(9)}
    rules = [
        make_rule({spread[i] for i in r.body}, {spread[i] for i in r.heads}, r.confidence)
        for r in random_rules(rng, 50)
    ]
    assert_same_pruning(rules)


rule_strategy = st.builds(
    make_rule,
    st.sets(st.sampled_from(BODY_ITEMS), min_size=1, max_size=4),
    st.sets(st.sampled_from(HEAD_ITEMS), min_size=1, max_size=3),
    st.sampled_from(CONFIDENCES),
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(rule_strategy, max_size=40))
def test_subset_index_matches_all_pairs(rules):
    assert_same_pruning(rules)


@settings(max_examples=100, deadline=None)
@given(st.lists(rule_strategy, min_size=1, max_size=12), st.data())
def test_repeated_objects_keep_their_positions(rules, data):
    """The same Rule object listed twice stays twice, in place."""
    picks = data.draw(
        st.lists(st.integers(0, len(rules) - 1), max_size=2 * len(rules))
    )
    assert_same_pruning(rules + [rules[i] for i in picks])
