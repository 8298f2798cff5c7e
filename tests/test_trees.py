import itertools
import re
from typing import Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_tree
from lietool import trees
from lietool.hall import HallElement, basis_up_to_length, enumerate_basis
from lietool.trees import (D, M, P, Q, R, BracketTree, FamilyPattern, Q_flat,
                           Q_sharp, R_sharp, TreeSyntaxError, W, X0, X1, ad,
                           display_form, match_named_family, named_form, node,
                           parse_tree, strip_ad, strip_trailing_zeros, zeros)


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


def test_strip_ad_inverts_ad():
    assert strip_ad(X1, ad(X1, 5, X0)) == (X0, 5)
    assert strip_ad(M(1), X1) == (X1, 0)
    assert strip_ad(W(1, 0), ad(W(1, 0), 2, W(1, 0))) == (W(1, 0), 2)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6),
       st.integers(1, 8), st.integers(0, 6))
def test_strip_ad_round_trip(rng, len_a, len_b, m):
    a, b = random_tree(rng, len_a), random_tree(rng, len_b)
    assume(b.is_leaf or b.left is not a)
    assert strip_ad(a, ad(a, m, b)) == (b, m)


# ---------------------------------------------------------------------------
# the family matcher against a reference: the per-shape matcher it replaced

def _ref_match_M(b: BracketTree) -> Optional[int]:
    core, nu = strip_trailing_zeros(b)
    return nu if core is X1 else None


def _ref_match_W_germ(b: BracketTree) -> Optional[int]:
    if b.is_leaf:
        return None
    jl = _ref_match_M(b.left)
    jr = _ref_match_M(b.right)
    if jl is not None and jr == jl + 1:
        return jl + 1
    return None


def _ref_match_W(b: BracketTree) -> Optional[tuple[int, int]]:
    core, nu = strip_trailing_zeros(b)
    j = _ref_match_W_germ(core)
    return (j, nu) if j is not None else None


def _ref_match_P_germ(b: BracketTree) -> Optional[tuple[int, int]]:
    if b.is_leaf:
        return None
    k = _ref_match_M(b.left)
    j = _ref_match_W_germ(b.right)
    if k is not None and j is not None:
        return (j, k + 1)
    return None


def _ref_match_Q_germ(b: BracketTree) -> Optional[tuple[int, int, int]]:
    if b.is_leaf:
        return None
    l = _ref_match_M(b.left)
    jk = _ref_match_P_germ(b.right)
    if l is not None and jk is not None:
        return (jk[0], jk[1], l + 1)
    return None


def reference_match(b: BracketTree) -> Optional[FamilyPattern]:
    core, nu = strip_trailing_zeros(b)
    if core is X1:
        return FamilyPattern("M", (), nu)
    if core.is_leaf:
        return None
    j = _ref_match_W_germ(core)
    if j is not None:
        return FamilyPattern("W", (j,), nu)
    p = _ref_match_P_germ(core)
    if p is not None:
        return FamilyPattern("P", p, nu)
    q = _ref_match_Q_germ(core)
    if q is not None:
        return FamilyPattern("Q", q, nu)
    wl = _ref_match_W(core.left)
    if wl is not None:
        j, mu = wl
        wr = _ref_match_W(core.right)
        if wr is not None:
            k, nur = wr
            if nur == 0 and k != j:
                return FamilyPattern("Qs", (j, mu, k), nu)
            if k == j and nur == mu + 1:
                return FamilyPattern("Qf", (j, mu), nu)
        pr = _ref_match_P_germ(core.right)
        if pr is not None:
            return FamilyPattern("Rs", (*pr, j, mu), nu)
    ml = _ref_match_M(core.left)
    if ml is not None:
        qr = _ref_match_Q_germ(core.right)
        if qr is not None:
            return FamilyPattern("R", (*qr, ml + 1), nu)
    return None


def test_matcher_agrees_with_the_reference_on_the_basis():
    elements = basis_up_to_length(12)
    assert len(elements) == 747
    named = 0
    for element in elements:
        pattern = match_named_family(element.tree)
        assert pattern == reference_match(element.tree), element.tree.text
        named += pattern is not None
    assert named > 300


# family name -> (builder, index count before nu, positions that are >= 1)
_BUILDERS = {
    "M": (M, 0, ()), "W": (W, 1, (0,)), "P": (P, 2, (0, 1)),
    "Q": (Q, 3, (0, 1, 2)), "Qs": (Q_sharp, 3, (0, 2)),
    "Qf": (Q_flat, 2, (0,)), "R": (R, 4, (0, 1, 2, 3)),
    "Rs": (R_sharp, 4, (0, 1, 2)),
}
_HALL_TREES = [element.tree for element in basis_up_to_length(8)]


@st.composite
def _family_instances(draw):
    name = draw(st.sampled_from(sorted(_BUILDERS)))
    builder, arity, positive = _BUILDERS[name]
    idx = [draw(st.integers(1 if i in positive else 0, 4))
           for i in range(arity)]
    return builder(*idx, draw(st.integers(0, 2)))


_ATOMS = st.one_of(_family_instances(), st.sampled_from(_HALL_TREES),
                   st.sampled_from([D(), X0, X1]))
_ZEROED = st.builds(zeros, _ATOMS, st.integers(0, 2))
_NESTED = st.builds(node, _ZEROED, _ZEROED)
_TREES = st.builds(zeros, st.one_of(_ZEROED, _NESTED), st.integers(0, 2))


@settings(max_examples=500, deadline=None)
@given(_TREES)
def test_matcher_agrees_with_the_reference(b):
    assert match_named_family(b) == reference_match(b), b.text


def test_matcher_agrees_with_the_reference_on_pairs_of_instances():
    # every bracket of two small family instances: all composition rules and
    # their near misses (index off by one, nonzero inner nu, wrong family)
    instances = [D(), X0]
    for builder, arity, positive in _BUILDERS.values():
        ranges = [range(1 if i in positive else 0, 3) for i in range(arity)]
        instances += [builder(*idx) for idx in itertools.product(*ranges,
                                                                 range(2))]
    for a in instances:
        for b in instances:
            pair = node(a, b)
            assert match_named_family(pair) == reference_match(pair), pair.text


def test_builders_round_trip_through_the_matcher():
    for name, (builder, arity, positive) in _BUILDERS.items():
        ranges = [range(1 if i in positive else 0, 5) for i in range(arity)]
        for idx in itertools.product(*ranges, range(3)):
            *indices, nu = idx
            tree = builder(*idx)
            if name == "Qs" and indices[0] == indices[2]:
                # (W(j,mu), W(j,0)) is no Qs: the family needs k != j
                assert match_named_family(tree) is None
                continue
            assert match_named_family(tree) == FamilyPattern(
                name, tuple(indices), nu), tree.text


def test_deep_trees_match_without_recursion_error():
    assert match_named_family(ad(X1, 1200, X0)) is None
    comb = X1
    for _ in range(3000):
        comb = node(comb, X1)
    assert match_named_family(comb) is None
    assert named_form(comb) is None
    assert match_named_family(zeros(X1, 5000)) == FamilyPattern("M", (), 5000)


# (text, message, position): every malformed text the reader refuses, with
# the message and position it reports
_MALFORMED = [
    ("", "expected a tree", 0),
    (" ", "expected a tree", 1),
    ("\t", "expected a tree", 1),
    ("(", "expected a tree", 1),
    (")", "expected a tree", 0),
    ("(,X1)", "expected a tree", 1),
    ("((", "expected a tree", 2),
    ("(X1,", "expected a tree", 4),
    ("(D,)", "expected a tree", 3),
    ("  (  X1  ,  ", "expected a tree", 12),
    ("(X1", "expected ','", 3),
    ("(X1;X0)", "expected ','", 3),
    ("(X1 X0)", "expected ','", 4),
    ("((X1,X0)", "expected ','", 8),
    ("(X1,X0", "expected ')'", 6),
    ("((X1,X0),(X1,X0)", "expected ')'", 16),
    ("(X1,X0))", "trailing input after tree", 7),
    ("(X1,X0),X1", "trailing input after tree", 7),
    ("(X1,\tX0)\t)", "trailing input after tree", 9),
    ("X1\tX0", "trailing input after tree", 3),
    ("X1\n,", "trailing input after tree", 3),
    ("D(1)", "trailing input after tree", 1),
    ("M(1)junk", "trailing input after tree", 4),
    ("X2", "unknown symbol 'X2'", 2),
    ("X0abc", "unknown symbol 'X0abc'", 5),
    ("x1", "unknown symbol 'x1'", 2),
    ("12X", "unknown symbol '12X'", 3),
    ("X_1", "unknown symbol 'X'", 1),
    ("\t(X1,\tX2)", "unknown symbol 'X2'", 8),
    ("zzz(", "unknown symbol 'zzz'", 3),
    ("M", "expected '('", 1),
    ("M 1", "expected '('", 2),
    ("Qs", "expected '('", 2),
    ("M(", "expected a decimal integer", 2),
    ("M()", "expected a decimal integer", 2),
    ("M(1,)", "expected a decimal integer", 4),
    ("M(-1)", "expected a decimal integer", 2),
    ("M(X1)", "expected a decimal integer", 2),
    ("\tM(\t-1)", "expected a decimal integer", 4),
    ("P(1,1,0,)", "expected a decimal integer", 8),
    ("M(1", "expected ')'", 3),
    ("M(1 2)", "expected ')'", 4),
    ("M(1a)", "expected ')'", 3),
    ("W(1,0", "expected ')'", 5),
    ("M(1,2)", "M takes 1 indices, got 2", 1),
    ("W(1)", "W takes 2 indices, got 1", 1),
    ("Qs (1,1,1)", "Qs takes 4 indices, got 3", 2),
    ("W(0,1)", "invalid family index: W argument 1 must be >= 1", 1),
    ("W(\t0,\t1\t)", "invalid family index: W argument 1 must be >= 1", 1),
    ("Q(1,0,1,0)", "invalid family index: Q argument 2 must be >= 1", 1),
    ("Qs(1,0,0,0)", "invalid family index: Qs argument 3 must be >= 1", 2),
    ("(X1,W(0,0))", "invalid family index: W argument 1 must be >= 1", 5),
    ("(W(1,0),P(1,0,0))", "invalid family index: P argument 2 must be >= 1",
     9),
]


@pytest.mark.parametrize("text, message, position", _MALFORMED)
def test_malformed_text_message_and_position(text, message, position):
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree(text)
    assert (str(err.value), err.value.position) == (
        f"{message} (at position {position})", position)


_SPACES = st.sampled_from(["", "", " ", "\t", "\n", " \t "])


@st.composite
def _tree_texts(draw):
    """A tree and a text of it: some subtrees in their display form, and
    whitespace at random token boundaries."""
    tree = draw(_TREES)

    def render(t):
        if t.is_leaf or draw(st.booleans()):
            return display_form(t)
        return f"({render(t.left)},{render(t.right)})"

    tokens = re.findall(r"[^\W_]+|\S", render(tree))
    spaces = draw(st.lists(_SPACES, min_size=len(tokens) + 1,
                           max_size=len(tokens) + 1))
    return tree, "".join(map("".join, zip(spaces, tokens))) + spaces[-1]


@settings(max_examples=300, deadline=None)
@given(_tree_texts())
def test_parse_round_trips_with_spaces_and_named_subtrees(tree_and_text):
    tree, text = tree_and_text
    assert parse_tree(text) is tree
    assert parse_tree(tree.text) is tree
    assert parse_tree(display_form(tree)) is tree


def test_deep_trees_parse_without_recursion_error():
    for tree in (zeros(X1, 3000), ad(X1, 3000, X0)):
        assert parse_tree(tree.text) is tree
    assert parse_tree("M(3000)") is zeros(X1, 3000)
