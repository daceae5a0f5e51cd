"""Access trees: grammar, sharing, satisfaction, reconstruction."""

import random

import pytest

import oracles
from oracles import lagrange_coeff
from policycast.groups import GroupContext
from policycast.policy import (AccessNode, AccessTree, PolicySyntaxError,
                               normalize_attribute, parse_policy,
                               policy_to_text, satisfies, share_secret)

CTX = GroupContext("ASYMMETRIC_159")
P = CTX.p


def gate(tree, idx=0):
    return tree.nodes[idx]


def test_parse_single_attribute():
    tree = parse_policy("thermostat")
    assert len(tree.nodes) == 1
    assert gate(tree).attribute == "thermostat"


def test_parse_and_or_shapes():
    t = parse_policy("A and B")
    assert gate(t).threshold == 2 and len(gate(t).children) == 2
    t = parse_policy("A or B")
    assert gate(t).threshold == 1
    # chains flatten to a single n-ary gate, not a binary ladder
    t = parse_policy("A and B and C and D")
    assert gate(t).threshold == 4 and len(gate(t).children) == 4
    t = parse_policy("A or B or C")
    assert gate(t).threshold == 1 and len(gate(t).children) == 3


def test_parse_threshold_gate():
    t = parse_policy("(A, B, C)@2")
    assert gate(t).threshold == 2 and len(gate(t).children) == 3
    leaf_attrs = [t.nodes[i].attribute for i in t.leaves()]
    assert leaf_attrs == ["A", "B", "C"]


def test_parse_nesting_and_precedence():
    # and binds tighter than or
    t = parse_policy("A or B and C")
    root = gate(t)
    assert root.threshold == 1 and len(root.children) == 2
    inner = t.nodes[root.children[1]]
    assert inner.threshold == 2
    t2 = parse_policy("(A or B) and C")
    assert gate(t2).threshold == 2


def test_parse_mixed_gate_contents():
    t = parse_policy("(A, B and C, D or E)@2")
    root = gate(t)
    assert root.threshold == 2 and len(root.children) == 3


@pytest.mark.parametrize("text, pos_check", [
    ("", None),
    ("   ", None),
    ("A and", None),
    ("and A", 0),
    ("A B", 2),
    ("(A, B)", None),          # comma list without @k
    ("(A, B)@3", None),        # threshold out of range
    ("(A, B)@0", None),
    ("(A, B)@x", None),
    ("A,B", None),
    (")A", 0),
    ("(A or B", None),
    ("A @2", None),
    # was a RecursionError
    pytest.param("(" * 400 + "A" + ")" * 400, 16, id="deep-nesting"),
])
def test_parse_errors(text, pos_check):
    with pytest.raises(PolicySyntaxError) as err:
        parse_policy(text)
    assert err.value.position >= 0
    if pos_check is not None:
        assert err.value.position == pos_check


def test_reserved_words_rejected():
    with pytest.raises(PolicySyntaxError):
        parse_policy("A and or")
    with pytest.raises(ValueError):
        normalize_attribute("and")
    with pytest.raises(ValueError):
        normalize_attribute("  ")
    assert normalize_attribute("  lights  ") == "lights"


def test_depth_and_leaf_caps():
    deep = "A"
    for _ in range(17):
        deep = f"({deep}, B)@2"
    with pytest.raises(ValueError):
        parse_policy(deep)
    wide = " and ".join(f"a{i}" for i in range(257))
    with pytest.raises(ValueError):
        parse_policy(wide)
    # at the cap is fine
    parse_policy(" and ".join(f"a{i}" for i in range(256)))


def test_tree_validation_rules():
    with pytest.raises(ValueError):
        AccessTree((AccessNode(2, (), "A"),))  # leaf threshold must be 1
    with pytest.raises(ValueError):
        AccessTree((AccessNode(1, (1, 2)), AccessNode(1, (), "A")))  # child oob
    with pytest.raises(ValueError):
        AccessTree((AccessNode(3, (1, 2)), AccessNode(1, (), "A"),
                    AccessNode(1, (), "B")))  # k > n
    with pytest.raises(ValueError):
        AccessTree((AccessNode(1, (1,), "X"), AccessNode(1, (), "A")))
    with pytest.raises(ValueError):  # unreachable node
        AccessTree((AccessNode(1, (), "A"), AccessNode(1, (), "B")))
    with pytest.raises(ValueError):  # node reachable twice
        AccessTree((AccessNode(2, (1, 1)), AccessNode(1, (), "A")))


def test_text_round_trip_examples():
    for text in ("A", "A and B", "A or B and C", "(A, B, C)@2",
                 "(A or B) and (C, D, E)@2", "((A, B)@1, C and D, E)@3"):
        tree = parse_policy(text)
        assert parse_policy(policy_to_text(tree)) == tree


def test_text_round_trip_random():
    rng = random.Random(31)
    for _ in range(60):
        text, _ = oracles.random_tree_text(rng, rng.randint(1, 12))
        tree = parse_policy(text)
        assert parse_policy(policy_to_text(tree)) == tree


def test_json_round_trip():
    rng = random.Random(37)
    for _ in range(20):
        text, _ = oracles.random_tree_text(rng, rng.randint(1, 8))
        tree = parse_policy(text)
        assert oracles.tree_from_json(oracles.tree_to_json(tree)) == tree
    with pytest.raises(ValueError):
        oracles.tree_from_json({"kind": "weird"})
    with pytest.raises(ValueError):
        oracles.tree_from_json({"kind": "gate", "k": 1, "children": []})


def test_or_gate_gives_every_leaf_the_secret():
    rng = random.Random(41)
    tree = parse_policy("A or B or C")
    s = CTX.random_scalar(rng)
    shares = share_secret(tree, s, rng)
    assert all(v == s for v in shares.values())


def test_and_gate_shares_lie_on_a_line():
    rng = random.Random(43)
    tree = parse_policy("A and B")
    s = CTX.random_scalar(rng)
    shares = share_secret(tree, s, rng)
    q1, q2 = shares[1].value, shares[2].value
    # degree-1 polynomial through (1, q1), (2, q2) evaluated at 0
    assert (2 * q1 - q2) % P == s.value


def test_two_of_three_any_pair_reconstructs():
    rng = random.Random(47)
    tree = parse_policy("(A, B, C)@2")
    s = CTX.random_scalar(rng)
    shares = share_secret(tree, s, rng)
    for pair in ((1, 2), (1, 3), (2, 3)):
        acc = CTX.scalar(0)
        for i in pair:
            acc = acc + lagrange_coeff(i, pair, 0, P) * shares[i]
        assert acc == s


def test_share_secret_requires_scalar():
    with pytest.raises(ValueError):
        share_secret(parse_policy("A"), 5)


def test_random_trees_reconstruct():
    rng = random.Random(53)
    for _ in range(100):
        text, _ = oracles.random_tree_text(rng, rng.randint(1, 10))
        tree = parse_policy(text)
        s = CTX.random_scalar(rng)
        shares = share_secret(tree, s, rng)
        sat = oracles.sample_satisfying(tree, rng)
        non = oracles.sample_nonsatisfying(tree, rng)
        assert oracles.reconstruct_secret(tree, shares, sat, P) == s.value
        assert oracles.reconstruct_secret(tree, shares, non, P) is None


def test_subset_soundness_exhaustive():
    # every attribute subset: satisfies() verdict must coincide with
    # whether scalar reconstruction from exactly those leaves succeeds
    rng = random.Random(59)
    for _ in range(20):
        text, attrs = oracles.random_tree_text(rng, rng.randint(2, 6))
        tree = parse_policy(text)
        s = CTX.random_scalar(rng)
        shares = share_secret(tree, s, rng)
        for mask in range(1 << len(attrs)):
            subset = {a for i, a in enumerate(attrs) if mask >> i & 1}
            verdict = satisfies(tree, subset).satisfied
            got = oracles.reconstruct_secret(tree, shares, subset, P)
            assert verdict == (got is not None), (text, subset)
            if verdict:
                assert got == s.value


def test_satisfies_chosen_frontier():
    tree = parse_policy("(A, B, C)@2")
    assert not satisfies(tree, {"C"}).satisfied
    res = satisfies(tree, {"A", "C"})
    assert res.satisfied and res.chosen[0] == (1, 3)
    # ties break toward the smallest child positions
    res = satisfies(tree, {"A", "B", "C"})
    assert res.chosen[0] == (1, 2)


def test_satisfies_ignores_foreign_attributes():
    tree = parse_policy("A and B")
    assert satisfies(tree, {"A", "B", "Z"}).satisfied
    assert not satisfies(tree, {"A", "Z"}).satisfied


def test_lagrange_coefficient_values_and_errors():
    assert lagrange_coeff(1, (1, 2), 0, P).value == 2
    assert lagrange_coeff(2, (1, 2), 0, P).value == P - 1
    # interpolation identity at a member point
    assert lagrange_coeff(1, (1, 2, 3), 1, P).value == 1
    assert lagrange_coeff(2, (1, 2, 3), 1, P).value == 0
    with pytest.raises(ValueError):
        lagrange_coeff(4, (1, 2), 0, P)
    with pytest.raises(ValueError):
        lagrange_coeff(1, (1, 1, 2), 0, P)


def test_depth_helper():
    assert parse_policy("A").depth() == 1
    assert parse_policy("A and (B or C)").depth() == 3
