from fractions import Fraction

import pytest

from lietool.conditions import family_n3, neutral_span
from lietool.fields import eval_bracket
from lietool.hall import basis_up_to_length
from lietool.trees import parse_tree
from lietool.zoo import (UnknownSystemError, default_instances, zoo,
                         zoo_names, zoo_parameters)

ALL_LENGTH_8 = basis_up_to_length(8)


def test_unknown_name_lists_catalog():
    with pytest.raises(UnknownSystemError) as err:
        zoo("missing")
    assert "easy" in str(err.value) and "sextic" in str(err.value)


def test_catalog_is_complete():
    names = zoo_names()
    expected = {"easy", "no_zm_pure", "wk_prototype", "jakubczyk",
                "w2_vs_q111", "w2_vs_p11nu", "w3_vs_p1l", "w3_vs_p1l_ge4",
                "w3_vs_q112", "w3_vs_r1111", "w3_vs_rsharp", "w3_vs_q111",
                "w3_time", "sextic", "w3_vs_qb10", "w3_vs_qb11",
                "w3_vs_qb12", "x22_x1k"}
    assert set(names) == expected


def _instances():
    out = default_instances()
    out += [
        zoo("wk_prototype", k=3, p=7),
        zoo("w2_vs_p11nu", nu=3),
        zoo("w3_vs_p1l", l=3, nu=2),
        zoo("w3_vs_p1l_ge4", l=6, nu=1),
        zoo("w3_vs_q112", nu=2),
        zoo("w3_vs_r1111", nu=1),
        zoo("w3_vs_rsharp", mu=1, nu=1),
        zoo("sextic", p=7),
        zoo("x22_x1k", k=3),
        zoo("x22_x1k", k=5),
    ]
    return out


@pytest.mark.parametrize("sys", _instances(), ids=lambda s: s.name)
def test_stated_values_and_vanishing(sys):
    for text, want in sys.expected_values.items():
        assert eval_bracket(sys, text) == want, text
    if sys.zero_elsewhere:
        claimed = set(sys.expected_values)
        for element in ALL_LENGTH_8:
            if element.tree.text in claimed:
                continue
            if (sys.zero_elsewhere_max_n1 is not None
                    and element.n1 > sys.zero_elsewhere_max_n1):
                continue
            value = eval_bracket(sys, element.tree)
            assert not any(value), (sys.name, repr(element), value)


def test_qb12_subspace_claim():
    # every admissible neutralizer except the listed one stays inside e1..e6
    sys = zoo("w3_vs_qb12")
    span = neutral_span(sys, family_n3())
    target = parse_tree("Qf(1,2,0)")
    for tree, vec in zip(span.generating_elements, span.basis_vectors):
        if tree.text == target.text:
            continue
        assert vec[6] == 0, tree.text
    # and crucially: the listed one does reach the seventh coordinate
    assert eval_bracket(sys, target)[6] != 0


def test_w3_time_neutralizer_span_is_first_four_axes():
    sys = zoo("w3_time")
    span = neutral_span(sys, family_n3())
    assert span.rank == 4
    for vec in span.basis_vectors:
        assert vec[4] == 0


def test_parametric_validation():
    with pytest.raises(ValueError):
        zoo("wk_prototype", k=1, p=2)
    with pytest.raises(ValueError):
        zoo("w3_vs_p1l", l=4)
    with pytest.raises(ValueError):
        zoo("w3_vs_p1l_ge4", l=2)
    with pytest.raises(ValueError):
        zoo("w2_vs_p11nu", nu=0)


def test_rational_parameter_is_named_off_its_default():
    assert zoo("wk_prototype").name == "wk_prototype(k=2,p=5)"
    assert zoo("wk_prototype", lam=1).name == "wk_prototype(k=2,p=5)"
    half = zoo("wk_prototype", lam=Fraction(1, 2))
    assert half.name == "wk_prototype(k=2,p=5,lam=1/2)"
    assert zoo_parameters("wk_prototype") == {
        "k": 2, "p": 5, "lam": Fraction(1)}


def test_f0_vanishes_everywhere_in_catalog():
    for sys in default_instances():
        assert not any(sys.f0.value_at_zero())
        assert sys.f1.value_at_zero()[0] == 1
