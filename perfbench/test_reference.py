"""Hand-worked checks of the benchmark's reference semantics.

Run with `python3 -m pytest perfbench` from the repository root.
"""

import pytest

from reference import (
    LANGFUNNY,
    STLC_CONSTS,
    IllTyped,
    Stuck,
    check_value,
    evaluate,
    read_term,
    render,
    size,
    typeof,
)


@pytest.mark.parametrize("text, value, steps, ty", [
    ("(app (lam x B x) c1)", "c1", 1, "B"),
    # v1 = \x.c2, v2 = \x.x: (pair (v2 (v1 c1)) (v1 (v2 c3))) = (pair c2 c2)
    ("(doublyApply (lam x B c2) (lam x B x) c1 c3)", "(pair c2 c2)", 5,
     "(prod B B)"),
    ("(addToPairAsList c1 (pair c2 c3))", "[c1, c2, c3]", 1, "(List B)"),
    ("(app (lam x (arrow B (prod B B)) (app x c3)) (lam x1 B (pair x1 x1)))",
     "(pair c3 c3)", 2, "(prod B B)"),
])
def test_langfunny_hand_worked_terms(text, value, steps, ty):
    term = read_term(text)
    got, taken = evaluate(term, LANGFUNNY)
    assert render(got) == value
    assert taken == steps
    assert render(typeof(term, LANGFUNNY)) == ty


def test_stlc_consts_identity_chain_takes_one_step_per_level():
    text = "ci"
    for _ in range(30):
        text = f"(app (lam x int x) {text})"
    term = read_term(text)
    assert evaluate(term, STLC_CONSTS) == ("ci", 30)
    assert typeof(term, STLC_CONSTS) == "int"


def test_source_typing_has_no_subsumption():
    with pytest.raises(IllTyped):
        typeof(read_term("(app (lam x float x) ci)"), STLC_CONSTS)
    with pytest.raises(IllTyped):
        typeof(read_term("(cons c1 nil)"), LANGFUNNY)


def test_stuck_terms_are_reported():
    with pytest.raises(Stuck):
        evaluate(read_term("(app c1 c2)"), LANGFUNNY)
    with pytest.raises(Stuck):
        evaluate(read_term("(addToPairAsList c1 c2)"), LANGFUNNY)


def test_a_deliberately_wrong_value_is_rejected():
    term = "(app (lam x B c2) c1)"
    assert check_value("value c2", term, LANGFUNNY) is None
    assert check_value("value c1", term, LANGFUNNY) is not None
    assert check_value("out-of-fuel", term, LANGFUNNY) is not None
    assert check_value("stuck", term, LANGFUNNY) is not None


def test_values_are_compared_up_to_bound_names():
    term = "(app (lam x (arrow B B) x) (lam x1 B x1))"
    assert check_value("value (lam x2 B x2)", term, LANGFUNNY) is None
    assert check_value("value (lam x2 B c1)", term, LANGFUNNY) is not None


def test_size_counts_annotations_but_not_binder_names():
    assert size(read_term("(doublyApply (lam x B c2) (lam x B c2) c2 c2)")) == 9
