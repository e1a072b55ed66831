import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import langx
from conftest import FIXTURES, GOLDEN, load
from langx.ir import (
    BinderApp,
    Constructor,
    HOLE,
    Join,
    LangxError,
    MachineStep,
    Metavariable,
    Reduction,
    Subst,
    Subtype,
    TypeEq,
    Typing,
    EnvExpr,
    UnknownMetavariable,
    Var,
    children,
    fold,
    formula_metavariable_tokens,
    formula_terms,
    fresh,
    map_formula,
    map_leaves,
    metavariable_tokens,
    resolve_metavariable,
    rebuild,
    subterms,
    term_size,
)
from langx.parser import parse_spec, print_spec
from oracles import oracle_term_size

T = Metavariable("T", None, "Type")
e = Metavariable("e", None, "Expression")
lam = BinderApp("lam", "x", (T, Var("x")))
app = Constructor("app", (lam, Constructor("c")))


def test_token():
    assert Metavariable("T", "12", "Type").token == "T12"
    assert T.token == "T"


def test_term_size_counts_annotation_but_not_bound_var():
    assert term_size(Constructor("c")) == 1
    assert term_size(lam) == 3
    assert term_size(app) == 5
    assert term_size(Subst(Var("x"), Constructor("c"), "y")) == 3


def test_subterms_preorder():
    assert list(subterms(app)) == [app, lam, T, Var("x"), Constructor("c")]


def test_metavariable_tokens():
    inner = Constructor("arrow", (Metavariable("T", "1", "Type"), T))
    assert list(metavariable_tokens(inner)) == ["T1", "T"]


def test_terms_hashable_and_frozen():
    assert len({app, app, lam}) == 2
    with pytest.raises(AttributeError):
        app.name = "oops"


def test_formula_metavariable_tokens():
    f = Typing(EnvExpr("G", ((Var("x"), T),)), e, Metavariable("T", "2", "Type"))
    assert formula_metavariable_tokens(f) == {"T", "e", "T2"}
    assert formula_metavariable_tokens(Subtype(T, T)) == {"T"}
    assert formula_metavariable_tokens(TypeEq(T, e)) == {"T", "e"}
    j = Join(T, (Metavariable("T", "1", "Type"), Metavariable("T", "2", "Type")))
    assert formula_metavariable_tokens(j) == {"T", "T1", "T2"}


def test_resolve_metavariable_longest_prefix(stlc):
    mv = resolve_metavariable("T12", stlc)
    assert (mv.base, mv.suffix, mv.category) == ("T", "12", "Type")
    assert resolve_metavariable("e'", stlc).category == "Expression"
    assert resolve_metavariable("v", stlc).category == "Value"
    with pytest.raises(UnknownMetavariable):
        resolve_metavariable("Q7", stlc)
    with pytest.raises(UnknownMetavariable):
        resolve_metavariable("Tx", stlc)


def test_fresh_smallest_unused():
    used = {"T1", "T2", "T4"}
    assert fresh(T, used).token == "T3"
    assert fresh(T, set()).token == "T1"
    assert fresh(Metavariable("T", "1", "Type"), {"T11"}).token == "T12"


def test_category_lookups(stlc):
    assert stlc.type_category.metavariable == "T"
    assert stlc.expression_category.name == "Expression"
    assert stlc.context_category.productions[0] == HOLE
    assert stlc.category("Nope") is None


def test_rule_partitions(stlc, langfunny):
    assert [r.name for r in stlc.typing_rules()] == ["t-lam", "t-app"]
    assert [r.name for r in stlc.reduction_rules()] == ["beta"]
    assert stlc.machine_rules() == ()
    assert len(langfunny.reduction_rules()) == 3


def test_constructor_arities(stlc):
    arities = stlc.constructor_arities()
    assert arities["app"] == 2
    assert arities["arrow"] == 2
    assert arities["B"] == 0
    assert stlc.binders == {"lam": 1}


def test_base_subtype_closure(references):
    closure = references.base_subtype_closure()
    assert ("int", "float") in closure
    assert ("float", "int") not in closure


def test_base_types_in_grammar_order(references):
    assert references.base_types() == ("int", "float", "Bool", "unitType")


def test_is_variable_token(stlc):
    assert stlc.is_variable_token("x")
    assert stlc.is_variable_token("x12")
    assert stlc.is_variable_token("x'")
    assert not stlc.is_variable_token("y")
    assert not stlc.is_variable_token("T1")


def test_derived_builds_once_per_spec_object():
    spec = load("stlc")
    calls = []

    def rule_count(s):
        calls.append(s)
        return len(s.rules)

    assert spec.derived(rule_count) == spec.derived(rule_count) == 3
    assert len(calls) == 1
    assert spec.typing_rules() is spec.typing_rules()
    assert spec.constructor_arities() is spec.constructor_arities()
    assert spec.base_subtype_closure() is spec.base_subtype_closure()
    trimmed = spec.with_rules(spec.rules[:1])
    assert trimmed.derived(rule_count) == 1
    assert [r.name for r in trimmed.typing_rules()] == ["t-lam"]


def test_spec_with_built_tables_equals_its_round_trip():
    spec = load("langfunny")
    spec.typing_rules()
    spec.constructor_arities()
    spec.base_subtype_closure()
    assert parse_spec(print_spec(spec)) == spec


def test_with_rules_replaces_only_rules(stlc):
    trimmed = stlc.with_rules(stlc.rules[:1])
    assert [r.name for r in trimmed.rules] == ["t-lam"]
    assert trimmed.categories == stlc.categories
    assert stlc.rules[1].name == "t-app"


base_names = st.sampled_from(["T", "e", "v"])
suffixes = st.one_of(st.none(), st.integers(1, 99).map(str))
metavars = st.builds(Metavariable, base_names, suffixes, st.just("Type"))
terms = st.recursive(
    st.one_of(metavars, st.builds(Var, st.sampled_from(["x", "y"])),
              st.just(Constructor("c"))),
    lambda children: st.one_of(
        st.builds(lambda a, b: Constructor("f", (a, b)), children, children),
        st.builds(lambda a: BinderApp("lam", "x", (a,)), children)),
    max_leaves=12)


@given(terms)
def test_subterms_count_matches_size_modulo_subst(t):
    assert len(list(subterms(t))) == term_size(t)


@given(terms)
def test_term_size_matches_the_recursive_oracle(t):
    assert term_size(t) == oracle_term_size(t)


SHARED = Constructor("f", (Var("x"), Var("y")))


@given(terms)
@example(Constructor("f", (SHARED, Constructor("f", (SHARED, Subst(SHARED, HOLE, "x"))))))
def test_fold_combines_each_distinct_node_once_after_its_children(t):
    memo, combined = {}, []

    def combine(node, kids):
        assert kids == tuple(memo[k] for k in children(node))
        combined.append(node)
        return len(combined)

    fold(t, combine, memo)
    assert len(combined) == len(set(combined)) == len(set(subterms(t)))
    assert set(memo) == set(subterms(t))
    assert fold(t, combine, memo) == memo[t] and len(combined) == len(memo)


def test_subterms_and_term_size_walk_a_5000_deep_chain():
    # built directly: the parser would stop at its own depth limit first
    depth = 5000
    ident = BinderApp("lam", "x", (Constructor("int"), Var("x")))
    t = Constructor("ci")
    for _ in range(depth):
        t = Constructor("app", (ident, t))
    walked = list(subterms(t))
    assert term_size(t) == len(walked) == 4 * depth + 1
    assert walked[0] is t and walked[1] is ident
    assert walked[4] is t.args[1]


def test_map_formula_rebuilds_the_terms_formula_terms_yields():
    def wrap(t):
        return Constructor("wrap", (t,))

    kinds = set()
    for path in (*sorted(FIXTURES.glob("*.lang")), *sorted(GOLDEN.glob("*.lang"))):
        spec = parse_spec(path.read_text(), filename=path.name)
        for rule in spec.rules:
            for f in (*rule.premises, rule.conclusion):
                kinds.add(type(f))
                assert map_formula(f, lambda t: t) == f
                assert list(formula_terms(map_formula(f, wrap))) == \
                    [wrap(t) for t in formula_terms(f)]
    assert kinds == {Typing, Reduction, MachineStep, Subtype, TypeEq, Join}


def test_formula_terms_refuses_what_is_not_a_formula():
    with pytest.raises(LangxError, match="not a formula"):
        formula_terms(Constructor("c"))
    with pytest.raises(LangxError, match="not a formula"):
        map_formula(Constructor("c"), lambda t: t)


def numbered_leaves(calls):
    """A leaf function that records each leaf and replaces it by its number."""
    def leaf(t):
        calls.append(t)
        return Constructor(f"n{len(calls)}")
    return leaf


def recursive_map_leaves(t, leaf):
    kids = children(t)
    return rebuild(t, tuple(recursive_map_leaves(k, leaf) for k in kids)) if kids else leaf(t)


@given(terms)
def test_map_leaves_calls_leaf_in_pre_order_once_per_occurrence(t):
    seen, expected = [], []
    assert map_leaves(t, numbered_leaves(seen)) == \
        recursive_map_leaves(t, numbered_leaves(expected))
    assert seen == expected


def test_map_leaves_works_at_any_depth():
    depth = 5000
    t = Metavariable("T", "2", "Type")
    for _ in range(depth):
        t = Constructor("arrow", (Constructor("B"), t))
    seen = []
    mapped = map_leaves(t, numbered_leaves(seen))
    assert seen == [Constructor("B")] * depth + [Metavariable("T", "2", "Type")]
    expected = Constructor(f"n{depth + 1}")
    for n in range(depth, 0, -1):
        expected = Constructor("arrow", (Constructor(f"n{n}"), expected))
    assert mapped is expected


@given(terms)
def test_first_subterm_is_self(t):
    assert next(subterms(t)) == t


@given(metavars, st.sets(st.text("T0123456789", min_size=1, max_size=4)))
def test_fresh_never_collides(mv, used):
    assert fresh(mv, used).token not in used


PUBLIC_NAMES = """
    AmbiguousStart BadContext BinderApp CKError Constructor ContinuationOp
    EnvExpr GrammarCategory HOLE Hole InferenceRule Join LanguageSpec
    LangxError MT MachineConfig MachineStep Metavariable MissingVariance
    NoFinalContinuation NoJoin NoStart Occurrence OrderAmbiguity OutOfFuel
    ParseError PatternMismatch Reduction SpecParseError Stuck StuckMachine
    Subst Subtype SubtypingError Term TraceStep TypeEq TypecheckError Typing
    Var add_subtyping canonical_rule check_subtype ck ck_eval
    collect_occurrences compose_variance decompose derive_ck engine evaluate
    generate_join_relation generate_subtype_relation ir is_value join_types
    match_pattern meet_types occurrence_variance parse_spec parse_term parser
    plug print_spec random_terms render_formula render_term split_equal_types
    step substitute subterms subtyping term_size typecheck variance
""".split()


def test_public_names_stay_exported():
    assert len(PUBLIC_NAMES) == 75
    assert set(PUBLIC_NAMES) <= set(langx.__all__)
    assert all(hasattr(langx, name) for name in PUBLIC_NAMES)


# Re-imports langx 15 times, as a benchmark set-up does, and counts the
# LanguageSpec classes still alive.  It runs in a subprocess, so the
# re-imports never replace the classes the rest of the suite uses.
REIMPORT = textwrap.dedent("""
    import gc, importlib, sys
    for _ in range(15):
        for name in [n for n in sys.modules if n == "langx" or n.startswith("langx.")]:
            del sys.modules[name]
        importlib.import_module("langx")
    gc.collect()
    print(sum(1 for o in gc.get_objects()
              if isinstance(o, type) and o.__name__ == "LanguageSpec"))
""")


def test_reimported_modules_are_freed():
    # A module-level typing.Union is cached with its member classes, and so
    # would keep every re-imported copy of langx.ir alive.
    src = str(pathlib.Path(langx.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "1"
