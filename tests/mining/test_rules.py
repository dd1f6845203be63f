"""Tests for repro.mining.rules (generation, combination, matching)."""

import pytest

from repro.mining import generate_rules
from repro.mining.rules import Rule, RuleMatcher
from repro.mining.transactions import EventSetDB
from tests.oracles import ruleset_of


def fs(*items):
    return frozenset(items)


ITEMS = ["warnA", "warnB", "warnC", "fatalX", "fatalY", "noiseZ"]
A, B, C, X, Y, Z = range(6)
FATAL = fs(X, Y)


def make_db(rows):
    """rows: list of (body items tuple, head items tuple)."""
    return EventSetDB(
        bodies=[fs(*b) for b, _ in rows],
        heads=[fs(*h) for _, h in rows],
        item_names=ITEMS,
        fatal_items=FATAL,
    )


@pytest.fixture
def db():
    # {A,B} -> X in 3 of 4 occurrences of {A,B}; {C} -> Y always.
    rows = [
        ((A, B), (X,)),
        ((A, B), (X,)),
        ((A, B), (X,)),
        ((A, B), (Y,)),
        ((C,), (Y,)),
        ((C,), (Y,)),
        ((), (X,)),  # orphan fatal
    ]
    return make_db(rows)


def test_generate_rules_basic(db):
    rs = generate_rules(db, min_support=0.2, min_confidence=0.5)
    bodies = {r.body for r in rs}
    assert fs(A, B) in bodies
    assert fs(C) in bodies


def test_rule_combination_multi_head(db):
    rs = generate_rules(db, min_support=0.1, min_confidence=0.2)
    ab = next(r for r in rs if r.body == fs(A, B))
    # {A,B} -> X (0.75) and {A,B} -> Y (0.25) combine; P(any head|body) = 1.
    assert ab.heads == fs(X, Y)
    assert ab.confidence == pytest.approx(1.0)


def test_no_combination_keeps_single_heads(db):
    rs = generate_rules(db, min_support=0.1, min_confidence=0.2, combine=False)
    ab_rules = [r for r in rs if r.body == fs(A, B)]
    assert {tuple(r.heads) for r in ab_rules} == {(X,), (Y,)}


def test_rules_sorted_by_confidence(db):
    rs = generate_rules(db, min_support=0.1, min_confidence=0.1)
    confs = [r.confidence for r in rs]
    assert confs == sorted(confs, reverse=True)


def test_min_confidence_filters(db):
    rs = generate_rules(db, min_support=0.1, min_confidence=0.9, combine=False)
    assert all(r.confidence >= 0.9 for r in rs)


def test_min_support_filters():
    rows = [((A,), (X,))] + [((B,), (Y,))] * 99
    db = make_db(rows)
    rs = generate_rules(db, min_support=0.04, min_confidence=0.1)
    assert fs(A) not in {r.body for r in rs}


def test_generalization_pruning():
    # {A} -> X (weak, diluted) vs {A,B} -> X (strong): the general rule
    # must be pruned.
    rows = [((A, B), (X,))] * 6 + [((A,), (Y,))] * 4
    db = make_db(rows)
    rs = generate_rules(db, min_support=0.1, min_confidence=0.1,
                        prune_generalizations=True)
    bodies_heads = {(r.body, r.heads) for r in rs}
    # {A}->{X} has confidence 0.6, {A,B}->{X} has 1.0 -> {A}->{X} pruned.
    assert (fs(A, B), fs(X)) in bodies_heads
    assert all(not (b == fs(A) and X in h) for b, h in bodies_heads)


def test_pruning_keeps_more_confident_general_rule():
    # General rule strictly stronger than the specialization survives.
    rows = [((A,), (X,))] * 8 + [((A, B), (Y,))] * 2
    db = make_db(rows)
    rs = generate_rules(db, min_support=0.1, min_confidence=0.1,
                        prune_generalizations=True, combine=False)
    assert fs(A) in {r.body for r in rs}


def test_empty_db_yields_empty_ruleset():
    db = make_db([])
    rs = generate_rules(db)
    assert len(rs) == 0


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule(body=fs(), heads=fs(X), confidence=0.5, support=0.1, support_count=1)
    with pytest.raises(ValueError):
        Rule(body=fs(A), heads=fs(), confidence=0.5, support=0.1, support_count=1)
    with pytest.raises(ValueError):
        Rule(body=fs(A), heads=fs(X), confidence=1.5, support=0.1, support_count=1)


def test_rule_format_figure3_style():
    r = Rule(body=fs(A, B), heads=fs(X), confidence=0.7, support=0.1,
             support_count=3)
    assert r.format(ITEMS) == "warnA warnB ==> fatalX: 0.7"


def test_matching_requires_full_body(db):
    rs = generate_rules(db, min_support=0.1, min_confidence=0.1)
    matches = rs.matching({A})
    assert all(r.body <= {A} for r in matches)


def test_format_rules_limit(db):
    rs = generate_rules(db, min_support=0.1, min_confidence=0.1)
    assert len(rs.format_rules(limit=1).splitlines()) == 1


# ---------------------------------------------------------------------- #
# RuleMatcher
# ---------------------------------------------------------------------- #


@pytest.fixture
def ruleset():
    rules = [
        Rule(body=fs(A, B), heads=fs(X), confidence=0.9, support=0.2,
             support_count=4),
        Rule(body=fs(C), heads=fs(Y), confidence=0.6, support=0.2,
             support_count=2),
    ]
    return ruleset_of(rules, ITEMS, FATAL)


def test_matcher_completes_on_last_item(ruleset):
    m = RuleMatcher(ruleset)
    assert m.add(A) == []
    completed = m.add(B)
    assert [r.body for r in completed] == [fs(A, B)]


def test_matcher_duplicate_items_no_refire(ruleset):
    m = RuleMatcher(ruleset)
    m.add(C)
    assert m.add(C) == []  # already satisfied; second arrival completes nothing


def test_matcher_remove_reactivates(ruleset):
    m = RuleMatcher(ruleset)
    m.add(A)
    m.add(B)
    m.remove(A)
    assert fs(A, B) not in {r.body for r in m.satisfied_rules()}
    assert [r.body for r in m.add(A)] == [fs(A, B)]


def test_matcher_multiplicity(ruleset):
    m = RuleMatcher(ruleset)
    m.add(A)
    m.add(A)
    m.add(B)
    m.remove(A)  # one copy left: rule stays satisfied
    assert fs(A, B) in {r.body for r in m.satisfied_rules()}


def test_matcher_remove_absent_raises(ruleset):
    with pytest.raises(ValueError):
        RuleMatcher(ruleset).remove(A)


def test_matcher_reset(ruleset):
    m = RuleMatcher(ruleset)
    m.add(C)
    m.reset()
    assert m.satisfied_rules() == []
    with pytest.raises(ValueError):
        m.remove(C)  # reset emptied the window
