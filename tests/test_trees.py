import pytest

from conftest import random_tree
from lietool import trees
from lietool.hall import HallElement, enumerate_basis
from lietool.trees import (D, M, P, Q, BracketTree, TreeSyntaxError, W, X0,
                           X1, named_form, node, parse_tree,
                           strip_trailing_zeros, zeros)


def test_leaf_counts_and_bidegree():
    t = parse_tree("(X1,(X1,X0))")
    assert t.n1 == 2 and t.n0 == 1 and t.length == 3
    assert t.bidegree == (2, 1)
    assert node(t, X0).n0 == 2


def test_parse_simple_pair():
    assert parse_tree("(X1,X0)") == node(X1, X0)
    assert parse_tree("  ( X1 , X0 ) ") == node(X1, X0)


def _canonical(t: BracketTree) -> str:
    if t.is_leaf:
        return f"X{t.generator}"
    return f"({_canonical(t.left)},{_canonical(t.right)})"


def test_parse_round_trips_with_printer(rng):
    for text in ["X0", "X1", "(X1,X0)", "((X1,X0),(X1,(X1,X0)))"]:
        assert parse_tree(text).text == text
    hall_trees = [element.tree for element in enumerate_basis(6, 7)]
    random_trees = [random_tree(rng, rng.randint(1, 12)) for _ in range(200)]
    random_trees.append(random_tree(rng, 40))
    for t in hall_trees + random_trees:
        assert t.text == _canonical(t)
        assert parse_tree(t.text) is t
    for t in hall_trees:
        assert HallElement.of(t) is HallElement.of(t.text)


def test_named_shortcuts_expand():
    assert parse_tree("W(1,0)") == node(X1, node(X1, X0))
    assert parse_tree("M(2)") == zeros(X1, 2)
    assert parse_tree("P(1,1,0)") == node(X1, W(1, 0))
    assert parse_tree("Qs(1,1,2,0)") == node(W(1, 1), W(2, 0))
    assert parse_tree("Qf(1,0,1)") == zeros(node(W(1, 0), W(1, 1)), 1)
    assert parse_tree("Rs(1,1,1,1,0)") == node(W(1, 1), P(1, 1, 0))
    assert parse_tree("R(1,1,1,2,0)") == node(M(1), Q(1, 1, 1, 0))
    assert parse_tree("D") == node(P(1, 1, 0), node(P(1, 1, 0), X0))


def test_parse_errors_carry_position():
    with pytest.raises(TreeSyntaxError):
        parse_tree("(X1,X0")
    with pytest.raises(TreeSyntaxError):
        parse_tree("(X1;X0)")
    with pytest.raises(TreeSyntaxError):
        parse_tree("(X1,X0))")
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree("X2")
    assert "X2" in str(err.value)


def test_invalid_family_indices_rejected():
    for bad in ["W(0,0)", "P(0,1,0)", "Q(1,0,1,0)", "R(1,1,1,0,0)",
                "Rs(0,1,1,0,0)", "Qs(1,0,0,0)", "Qf(0,0,0)"]:
        with pytest.raises(TreeSyntaxError):
            parse_tree(bad)
    # mu/nu = 0 is fine, and order constraints are not the parser's job
    parse_tree("W(3,0)")
    parse_tree("P(3,1,2)")


def test_named_form_recognition():
    cases = ["M(0)", "M(3)", "W(2,1)", "P(1,2,3)", "Q(1,1,2,0)",
             "Qs(1,2,3,1)", "Qf(2,1,0)", "R(1,1,2,2,1)", "Rs(1,2,2,0,1)", "D"]
    for text in cases:
        tree = parse_tree(text)
        if text == "M(0)":
            assert named_form(tree) == "X1"
        else:
            assert named_form(tree) == text
    assert named_form(node(X0, X1)) is None


def test_strip_trailing_zeros():
    core, nu = strip_trailing_zeros(zeros(W(1, 0), 4))
    assert core == W(1, 0) and nu == 4
    assert strip_trailing_zeros(X1) == (X1, 0)


def test_interning_makes_identity_structural():
    a = parse_tree("(X1,(X1,X0))")
    b = node(X1, node(X1, X0))
    assert a is b
    assert node(a, b) is node(a, b)
    # identity is equality: no structural __eq__ / __hash__ to keep in sync
    assert BracketTree.__eq__ is object.__eq__
    assert BracketTree.__hash__ is object.__hash__


def test_named_form_parses_back_to_the_same_tree():
    named = 0
    for element in enumerate_basis(6, 7):
        text = named_form(element.tree)
        if text is not None:
            assert parse_tree(text) is element.tree, text
            named += 1
    assert named > 300
