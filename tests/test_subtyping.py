import dataclasses
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from langx.ir import (
    BinderApp,
    Constructor,
    LangxError,
    Metavariable,
    Typing,
    formula_metavariable_tokens,
)
from langx.parser import parse_spec, parse_term, print_spec, render_formula
from langx.subtyping import (
    MULTIPLE_CONTRAVARIANT,
    NoJoin,
    SubtypingError,
    add_subtyping,
    canonical_rule,
    generate_join_relation,
    generate_subtype_relation,
    join_all,
    join_types,
    meet_types,
    split_equal_types,
    transform_rule,
)
from conftest import FIXTURES
from oracles import enumerate_types, subtype_fixpoint


def rule_named(spec, name):
    return next(r for r in spec.rules if r.name == name)


def premise_texts(rule, spec):
    return [render_formula(p, spec) for p in rule.premises]


# -- split pass --------------------------------------------------------------

def test_split_renames_each_occurrence(stlc):
    t_app = rule_named(stlc, "t-app")
    premises, varmap = split_equal_types(t_app.premises)
    assert set(varmap) == {"T1"}
    assert [mv.token for mv in varmap["T1"]] == ["T11", "T12"]
    assert [render_formula(p, stlc) for p in premises] == [
        "G |- e1 : (arrow T11 T2)",
        "G |- e2 : T12",
    ]


def test_split_counts_against_original_names():
    # splitting T with T1 already present must not collide
    T = Metavariable("T", None, "Type")
    T1 = Metavariable("T", "1", "Type")
    e = Metavariable("e", None, "Expression")
    premises = (Typing("G", e, T), Typing("G", e, T), Typing("G", e, T1))
    out, varmap = split_equal_types(premises)
    assert [mv.token for mv in varmap["T"]] == ["T2", "T3"]
    assert out[2].ty == T1


def test_split_refuses_a_repeated_metavariable_under_a_binder():
    # Occurrences are counted through constructors only, where variance is
    # defined; one more under a binder would be left unrelated.
    T1 = Metavariable("T", "1", "Type")
    e = Metavariable("e", None, "Expression")
    premises = (Typing("G", e, BinderApp("all", "X", (T1,))),
                Typing("G", e, T1), Typing("G", e, T1))
    with pytest.raises(LangxError, match="'T1' also occurs under a binder"):
        split_equal_types(premises)


def test_split_leaves_single_occurrences_alone(stlc):
    t_lam = rule_named(stlc, "t-lam")
    premises, varmap = split_equal_types(t_lam.premises)
    assert varmap == {}
    assert premises == t_lam.premises


def test_split_ignores_env_extension_types(stlc):
    # T1 appears in t-lam's env extension and nowhere else in premise types
    t_lam = rule_named(stlc, "t-lam")
    _, varmap = split_equal_types(t_lam.premises)
    assert "T1" not in varmap


# -- per-rule transform ------------------------------------------------------

def test_contravariant_occurrence_becomes_subtype_premise(stlc):
    out = transform_rule(rule_named(stlc, "t-app"), stlc)
    assert premise_texts(out, stlc) == [
        "G |- e1 : (arrow T11 T2)",
        "G |- e2 : T12",
        "T12 <: T11",
    ]
    assert render_formula(out.conclusion, stlc) == "G |- (app e1 e2) : T2"


def test_invariant_occurrence_becomes_type_equation(references):
    out = transform_rule(rule_named(references, "t-assign"), references)
    assert premise_texts(out, references) == [
        "G |- e1 : (Ref T1)",
        "G |- e2 : T2",
        "T1 = T2",
    ]


def test_an_invariant_metavariable_the_conclusion_uses_keeps_its_name(references):
    text = (FIXTURES / "references.lang").read_text()
    text = text.replace("(if e e e)\n", "(if e e e) | (same e e)\n") + (
        "\nrule t-same\n"
        "  G |- e1 : (Ref T)\n"
        "  G |- e2 : (Ref T)\n"
        "  --------------------------------\n"
        "  G |- (same e1 e2) : T\n")
    spec = add_subtyping(parse_spec(text))
    out = rule_named(spec, "t-same")
    assert premise_texts(out, spec) == [
        "G |- e1 : (Ref T)",
        "G |- e2 : (Ref T2)",
        "T = T2",
    ]
    assert render_formula(out.conclusion, spec) == "G |- (same e1 e2) : T"


def test_covariant_occurrences_become_join(references):
    out = transform_rule(rule_named(references, "t-if"), references)
    assert premise_texts(out, references) == [
        "G |- e1 : Bool",
        "G |- e2 : T1",
        "G |- e3 : T2",
        "T = T1 \\/ T2",
    ]
    assert render_formula(out.conclusion, references) == "G |- (if e1 e2 e3) : T"


def test_two_variables_grouped_in_first_occurrence_order(langfunny):
    out = transform_rule(rule_named(langfunny, "t-doublyApply"), langfunny)
    assert premise_texts(out, langfunny)[4:] == [
        "T12 <: T1",
        "T13 <: T1",
        "T21 <: T2",
        "T23 <: T2",
    ]
    assert render_formula(out.conclusion, langfunny) == \
        "G |- (doublyApply e1 e2 e3 e4) : (prod T2 T1)"


def test_ternary_join(langfunny):
    out = transform_rule(rule_named(langfunny, "t-addToPairAsList"), langfunny)
    assert premise_texts(out, langfunny)[-1] == "T = T1 \\/ T2 \\/ T3"


def test_multiple_contravariant_rejected(app2):
    with pytest.raises(SubtypingError) as info:
        transform_rule(rule_named(app2, "t-app2"), app2)
    err = info.value
    assert err.rule_name == "t-app2"
    assert err.variable.token == "T"
    assert err.reason == MULTIPLE_CONTRAVARIANT
    assert len(err.occurrences) == 4
    assert "T" in str(err) and MULTIPLE_CONTRAVARIANT in str(err)


def test_rules_without_repeats_pass_through(stlc):
    t_lam = rule_named(stlc, "t-lam")
    assert transform_rule(t_lam, stlc) == t_lam


def test_reduction_rules_untouched(langfunny):
    beta = rule_named(langfunny, "beta")
    out = add_subtyping(langfunny)
    assert rule_named(out, "beta") == beta


def test_add_subtyping_idempotent_modulo_renaming(stlc, stlc_consts,
                                                  references, langfunny):
    for spec in (stlc, stlc_consts, references, langfunny):
        once = add_subtyping(spec)
        twice = add_subtyping(once)
        for r1, r2 in zip(once.rules, twice.rules):
            assert canonical_rule(r1, spec) == canonical_rule(r2, spec)


def test_canonical_rule_normalizes_fresh_names(stlc):
    out = transform_rule(rule_named(stlc, "t-app"), stlc)
    canon = canonical_rule(out, stlc)
    tokens = set()
    for p in canon.premises:
        tokens |= set(formula_metavariable_tokens(p))
    assert tokens == {"e1", "e2", "T1", "T2", "T3"}


# -- generated relations -----------------------------------------------------

def test_subtype_relation_rules(references):
    rules = generate_subtype_relation(references)
    names = [r.name for r in rules]
    assert names == [
        "sub-refl-int", "sub-refl-float", "sub-refl-Bool", "sub-refl-unitType",
        "sub-base-int-float", "sub-Ref", "sub-arrow",
    ]
    arrow = next(r for r in rules if r.name == "sub-arrow")
    assert [render_formula(p, references) for p in arrow.premises] == [
        "T1' <: T1",
        "T2 <: T2'",
    ]
    assert render_formula(arrow.conclusion, references) == \
        "(arrow T1 T2) <: (arrow T1' T2')"
    ref = next(r for r in rules if r.name == "sub-Ref")
    assert [render_formula(p, references) for p in ref.premises] == ["T1 = T1'"]


def test_join_relation_rules(references):
    rules = generate_join_relation(references)
    names = [r.name for r in rules]
    assert "join-refl" in names
    assert "join-int-float" in names and "join-float-int" in names
    # arrow is contravariant in its first argument: no structural join rule
    assert "join-arrow" not in names
    assert "join-Ref" in names


def test_join_relation_has_a_rule_per_covariant_constructor(langfunny):
    rules = {r.name: r for r in generate_join_relation(langfunny)}
    assert list(rules) == ["join-refl", "join-prod", "join-List"]
    shown = {name: ([render_formula(p, langfunny) for p in r.premises],
                    render_formula(r.conclusion, langfunny))
             for name, r in rules.items()}
    assert shown["join-prod"] == (
        ["T1 = T1' \\/ T1''", "T2 = T2' \\/ T2''"],
        "(prod T1 T2) = (prod T1' T2') \\/ (prod T1'' T2'')")
    assert shown["join-List"] == (
        ["T1 = T1' \\/ T1''"], "(List T1) = (List T1') \\/ (List T1'')")


def test_relations_skip_a_constructor_whose_marks_miss_its_arity(langfunny):
    # parse_spec refuses such a table; a spec built in code can have one.
    # Neither relation builds a rule for prod, whose two arguments have one
    # mark, and both still build List's.
    odd = dataclasses.replace(langfunny, variance={**langfunny.variance, "prod": ("co",)})
    for generate in (generate_subtype_relation, generate_join_relation):
        names = [r.name for r in generate(odd)]
        assert not any(name.endswith("-prod") for name in names)
        assert names[-1].endswith("-List")


def test_no_transitivity_rule(references):
    assert not any("trans" in r.name for r in generate_subtype_relation(references))


def test_relations_print_and_reparse(references):
    augmented = references.with_rules(
        references.rules
        + tuple(generate_subtype_relation(references))
        + tuple(generate_join_relation(references)))
    assert parse_spec(print_spec(augmented)) == augmented


# -- joins and meets ---------------------------------------------------------

def test_join_and_meet_bases(references):
    ii, ff = Constructor("int"), Constructor("float")
    assert join_types(ii, ff, references) == ff
    assert join_types(ff, ii, references) == ff
    assert meet_types(ii, ff, references) == ii
    assert join_types(ii, ii, references) == ii


def test_join_structural(references):
    t1 = parse_term("(arrow float int)", references, concrete=True)
    t2 = parse_term("(arrow int float)", references, concrete=True)
    assert join_types(t1, t2, references) == \
        parse_term("(arrow int float)", references, concrete=True)
    assert meet_types(t1, t2, references) == \
        parse_term("(arrow float int)", references, concrete=True)


def test_join_invariant_requires_equality(references):
    r1 = parse_term("(Ref int)", references, concrete=True)
    r2 = parse_term("(Ref float)", references, concrete=True)
    with pytest.raises(NoJoin):
        join_types(r1, r2, references)
    assert join_types(r1, r1, references) == r1


# Types alone: no Expression category, and one constructor whose first
# argument is invariant.
TAGS = """\
language tags

grammar
  Type T ::= int | top | (tag T T)

variance
  tag : inv co

subtype-base
  int <: top
"""


def test_join_keeps_an_equal_invariant_argument():
    tags = parse_spec(TAGS)
    t1 = parse_term("(tag int int)", tags, concrete=True)
    t2 = parse_term("(tag int top)", tags, concrete=True)
    assert join_types(t1, t2, tags) == t2
    with pytest.raises(NoJoin):
        join_types(t2, parse_term("(tag top top)", tags, concrete=True), tags)


def test_join_incomparable_bases(references):
    with pytest.raises(NoJoin):
        join_types(Constructor("Bool"), Constructor("int"), references)


def test_join_all_folds(references):
    ii, ff = Constructor("int"), Constructor("float")
    assert join_all((ii, ii, ff), references) == ff


def test_5000_deep_types_join_under_the_default_recursion_limit():
    # join_types and meet_types keep their pairs on a stack of their own;
    # the recursive walk they replaced raised RecursionError about 1,000
    # levels deep.  Each chain nests its arrows in the contravariant slot,
    # so the bound sought flips at every level.
    program = "\n".join([
        "import sys",
        "from langx.engine import check_subtype",
        "from langx.ir import Constructor",
        "from langx.parser import parse_spec",
        "from langx.subtyping import NoJoin, join_types, meet_types",
        f"spec = parse_spec(open({str(FIXTURES / 'references.lang')!r}).read())",
        "ii, ff = Constructor('int'), Constructor('float')",
        "def chain(t):",
        "    for _ in range(5000):",
        "        t = Constructor('arrow', (t, ii))",
        "    return t",
        "low, high = chain(ii), chain(ff)",
        "assert sys.getrecursionlimit() < 5000",
        "assert join_types(low, high, spec) is high and join_types(high, low, spec) is high",
        "assert meet_types(low, high, spec) is low and meet_types(high, low, spec) is low",
        "assert check_subtype(low, high, spec) and not check_subtype(high, low, spec)",
        "refs = Constructor('Ref', (ii,)), Constructor('Ref', (ff,))",
        "try:",
        "    join_types(*map(chain, refs), spec)",
        "except NoJoin as exc:",
        "    print((exc.t1, exc.t2) == refs)",
    ])
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "True\n")


@pytest.fixture(scope="module")
def small_types(references):
    return enumerate_types(references, 2, bases={"int", "float"})


def test_join_agrees_with_bruteforce_lub(references, small_types):
    rel = subtype_fixpoint(small_types, references)
    index = {t: i for i, t in enumerate(small_types)}
    for a in small_types:
        for b in small_types:
            uppers = [u for u in small_types
                      if (a, u) in rel and (b, u) in rel]
            least = [u for u in uppers
                     if all((u, w) in rel for w in uppers)]
            try:
                j = join_types(a, b, references)
            except NoJoin:
                j = None
            if least:
                assert j == least[0]
            else:
                # no lub inside the depth-bounded universe: either no join at
                # all, or the join lies outside the universe
                assert j is None or j not in index or not uppers


@given(st.data())
def test_join_commutative_on_universe(references, small_types, data):
    a = data.draw(st.sampled_from(small_types))
    b = data.draw(st.sampled_from(small_types))
    try:
        ab = join_types(a, b, references)
    except NoJoin:
        ab = None
    try:
        ba = join_types(b, a, references)
    except NoJoin:
        ba = None
    assert ab == ba
