import pytest
from hypothesis import given
from hypothesis import strategies as st

from langx.ir import (
    COVARIANT,
    CONTRAVARIANT,
    INVARIANT,
    Constructor,
    LangxError,
    Metavariable,
)
from langx.parser import parse_term
from langx.variance import (
    MissingVariance,
    collect_occurrences,
    compose_variance,
    occurrence_variance,
)

marks = st.sampled_from((COVARIANT, CONTRAVARIANT, INVARIANT))


def test_compose_table():
    assert compose_variance(COVARIANT, COVARIANT) == COVARIANT
    assert compose_variance(COVARIANT, CONTRAVARIANT) == CONTRAVARIANT
    assert compose_variance(CONTRAVARIANT, COVARIANT) == CONTRAVARIANT
    assert compose_variance(CONTRAVARIANT, CONTRAVARIANT) == COVARIANT
    assert compose_variance(INVARIANT, COVARIANT) == INVARIANT
    assert compose_variance(COVARIANT, INVARIANT) == INVARIANT
    assert compose_variance(INVARIANT, CONTRAVARIANT) == INVARIANT


@given(marks, marks, marks)
def test_compose_associative(a, b, c):
    assert compose_variance(a, compose_variance(b, c)) == \
        compose_variance(compose_variance(a, b), c)


@given(marks)
def test_covariant_is_identity(a):
    assert compose_variance(COVARIANT, a) == a
    assert compose_variance(a, COVARIANT) == a


@given(marks)
def test_invariant_absorbs(a):
    assert compose_variance(INVARIANT, a) == INVARIANT
    assert compose_variance(a, INVARIANT) == INVARIANT


def test_occurrence_variance_paths(references):
    ty = parse_term("(arrow (arrow T1 T2) (Ref T3))", references)
    assert occurrence_variance(ty, (), references) == COVARIANT
    assert occurrence_variance(ty, (0,), references) == CONTRAVARIANT
    assert occurrence_variance(ty, (0, 0), references) == COVARIANT
    assert occurrence_variance(ty, (0, 1), references) == CONTRAVARIANT
    assert occurrence_variance(ty, (1,), references) == COVARIANT
    assert occurrence_variance(ty, (1, 0), references) == INVARIANT


@pytest.mark.parametrize("path", [(2,), (0, 0, 0), (1, 0, 0)])
def test_occurrence_variance_of_a_path_that_leaves_the_type(references, path):
    ty = parse_term("(arrow (arrow T1 T2) (Ref T3))", references)
    with pytest.raises(LangxError) as info:
        occurrence_variance(ty, path, references)
    assert str(info.value) == f"path {path} does not exist in the given type"


def test_missing_variance():
    from langx.parser import parse_spec

    spec = parse_spec("""\
language novariance

grammar
  Type T ::= B | (pair T T)
  Expression e ::= c

rule t-c
  --------------------------------
  G |- c : B
""")
    ty = Constructor("pair", (Metavariable("T", "1", "Type"),
                              Metavariable("T", "2", "Type")))
    with pytest.raises(MissingVariance) as info:
        occurrence_variance(ty, (0,), spec)
    assert info.value.constructor == "pair"


def test_collect_occurrences_order_and_positions(langfunny):
    rule = next(r for r in langfunny.rules if r.name == "t-doublyApply")
    occs = collect_occurrences(rule, "T1", langfunny)
    assert [(o.premise_index, o.path, o.variance) for o in occs] == [
        (0, (0,), CONTRAVARIANT),
        (1, (1,), COVARIANT),
        (2, (), COVARIANT),
    ]


def test_collect_occurrences_skips_env_and_conclusion(stlc):
    # t-lam: T1 in the environment extension and conclusion only, T2 in both
    # premise type and conclusion; only premise output positions count
    rule = next(r for r in stlc.rules if r.name == "t-lam")
    assert collect_occurrences(rule, "T1", stlc) == ()
    occs = collect_occurrences(rule, "T2", stlc)
    assert [(o.premise_index, o.path) for o in occs] == [(0, ())]


def test_collect_occurrences_nested_pre_order(app2):
    rule = next(r for r in app2.rules if r.name == "t-app2")
    occs = collect_occurrences(rule, "T", app2)
    assert [(o.premise_index, o.path, o.variance) for o in occs] == [
        (0, (0,), CONTRAVARIANT),
        (0, (1, 0), CONTRAVARIANT),
        (1, (0,), COVARIANT),
        (1, (1,), COVARIANT),
    ]
