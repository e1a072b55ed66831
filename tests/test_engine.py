import copy
import dataclasses
import functools
import gc
import hashlib
import pickle
import random
import subprocess
import sys
import traceback
import weakref
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from langx import cli, engine, ir
from langx.ck import derive_ck
from langx.engine import (
    MT,
    EngineError,
    NoRuleApplies,
    NotSyntaxDirected,
    OutOfFuel,
    Stuck,
    StuckMachine,
    SubtypeFailure,
    TraceStep,
    TypecheckError,
    UnboundVariable,
    categories,
    check_subtype,
    ck_eval,
    decompose,
    evaluate,
    free_vars,
    instantiate,
    is_value,
    is_value_pattern,
    iter_random_terms,
    iter_swarm_terms,
    machine_step,
    match_pattern,
    member,
    plug,
    random_terms,
    step,
    substitute,
    typecheck,
)
from langx.ir import (
    HOLE,
    BinderApp,
    Constructor,
    Focused,
    GrammarCategory,
    Hole,
    MachineConfig,
    MachineStep,
    Metavariable,
    Subst,
    Typing,
    Var,
    subterms,
    term_size,
)
from langx.parser import parse_spec, parse_term, render_term
from langx.subtyping import SubtypingError, add_subtyping
from conftest import FIXTURES, GOLDEN, load, swapped_order_machine_text
from oracles import (
    enumerate_closed_terms,
    enumerate_types,
    oracle_check_subtype,
    oracle_ck_eval,
    oracle_decompose,
    oracle_evaluate,
    oracle_free_vars,
    oracle_iter_random_terms,
    oracle_instantiate,
    oracle_iter_swarm_terms,
    oracle_match,
    oracle_member,
    oracle_substitute,
    oracle_typecheck,
)
from test_ck import NUMS
from test_subtyping import TAGS


def conc(text, spec):
    return parse_term(text, spec, concrete=True)


ID = "(lam x B x)"


# -- grammar membership and matching -------------------------------------------

def test_membership_and_values(stlc):
    lam = conc(ID, stlc)
    assert is_value(lam, stlc)
    assert member(lam, "Expression", stlc)
    assert member(Constructor("arrow", (Constructor("B"), Constructor("B"))),
                  "Type", stlc)
    redex = conc(f"(app {ID} {ID})", stlc)
    assert not is_value(redex, stlc)
    assert not member(lam, "NoSuchCategory", stlc)


def assert_membership_matches_oracle(terms, spec):
    names = [cat.name for cat in spec.categories]
    for t in terms:
        expected = {name for name in names if oracle_member(t, name, spec)}
        assert categories(t, spec) == expected, t
        for name in names:
            assert member(t, name, spec) == (name in expected), (t, name)
        assert not member(t, "NoSuchCategory", spec)


SPEC_FIXTURES = ("stlc", "stlc_consts", "references", "app2", "langfunny", "boollist")


@pytest.mark.parametrize("name", SPEC_FIXTURES)
def test_categories_match_the_top_down_oracle_on_generated_terms(name):
    spec = load(name)
    terms = list(islice(iter_random_terms(spec, seed=3, max_size=9), 150))
    terms += islice(iter_swarm_terms(spec, seed=4, max_size=9), 150)
    subs = [s for t in terms for s in subterms(t)]
    odd = [Var("x"), HOLE, Metavariable("e", None, "Expression"),
           Metavariable("v", "1", "Value"), Constructor("nosuch", (Var("x"),))]
    assert_membership_matches_oracle(subs + odd, spec)


def test_categories_match_the_top_down_oracle_on_continuations(langfunny):
    machine = derive_ck(langfunny)
    states = []
    for t in islice(iter_swarm_terms(langfunny, seed=9, max_size=9), 60):
        try:
            _, trace = ck_eval(MachineConfig(t, MT), machine, fuel=300)
        except (StuckMachine, OutOfFuel) as failed:
            trace = failed.trace
        for ts in trace:
            states += [ts.before.focus, ts.before.continuation,
                       ts.after.focus, ts.after.continuation]
    assert any(isinstance(s, Constructor) and s.name.endswith("_2") for s in states)
    assert_membership_matches_oracle(states, machine)


UNITS = """\
language units

variables x

grammar
  Type T ::= B | (arrow T T)
  Number n ::= zero | (succ n)
  Value v ::= n | (lam x T e) | (pair v v)
  Expression e ::= x | v | (lam x T e) | (app e e) | (pair e e) | (twice (lam x T e) n) | (fst (pair e e))
  Context E ::= [.] | (app E e) | (app v E) | (pair E e) | (pair v E) | (succ [.])

binder lam 1
"""


def any_trees(size):
    """Every tree of exactly `size` nodes over the units signature and one
    head outside it, whatever the grammar says, with a variable and a hole
    among the leaves."""
    if size == 1:
        return [Constructor("zero"), Constructor("B"), Var("x"), HOLE]
    out = [Constructor(name, (a,)) for a in any_trees(size - 1)
           for name in ("succ", "fst", "nosuch")]
    for left in range(1, size - 1):
        for a in any_trees(left):
            for b in any_trees(size - 1 - left):
                out += [Constructor("pair", (a, b)), Constructor("app", (a, b)),
                        Constructor("twice", (a, b)), BinderApp("lam", "x", (a, b))]
    return out


def test_categories_follow_unit_productions_and_nested_slots():
    spec = parse_spec(UNITS)
    two = Constructor("succ", (Constructor("succ", (Constructor("zero"),)),))
    assert categories(two, spec) == {"Number", "Value", "Expression"}
    lam = conc("(lam x B x)", spec)
    assert categories(Constructor("twice", (lam, two)), spec) == {"Expression"}
    assert categories(Constructor("twice", (two, two)), spec) == frozenset()
    assert categories(Constructor("fst", (Constructor("pair", (lam, two)),)), spec) \
        == {"Expression"}
    assert categories(Constructor("succ", (HOLE,)), spec) == {"Context"}
    terms = [t for size in range(1, 6) for t in any_trees(size)]
    terms += enumerate_closed_terms(spec, 6)
    assert_membership_matches_oracle(terms, spec)


def test_membership_memo_is_shared_and_keeps_its_nodes(langfunny):
    t = conc("(pair (pair c1 (lam x B x)) nil)", langfunny)
    cats = {}
    assert categories(t, langfunny, cats) == {"Expression", "Value"}
    # The keys are the term's nodes themselves, leaves included.
    assert set(cats) == set(subterms(t))
    assert all(cats[s] == categories(s, langfunny) for s in cats)
    kept = dict(cats)
    assert is_value(t.args[0], langfunny, cats)
    assert cats == kept


def test_value_metavariable_only_matches_values(stlc):
    v = Metavariable("v", None, "Value")
    lam = conc(ID, stlc)
    redex = conc(f"(app {ID} {ID})", stlc)
    assert match_pattern(v, lam, stlc) == {"v": lam}
    assert match_pattern(v, redex, stlc) is None


def test_repeated_metavariable_must_agree(stlc):
    e = Metavariable("e", None, "Expression")
    pat = Constructor("app", (e, e))
    lam = conc(ID, stlc)
    other = conc("(lam x (arrow B B) x)", stlc)
    assert match_pattern(pat, Constructor("app", (lam, lam)), stlc) == {"e": lam}
    assert match_pattern(pat, Constructor("app", (lam, other)), stlc) is None


def test_binder_pattern_binds_the_bound_variable(stlc):
    beta = next(r for r in stlc.rules if r.name == "beta")
    subject = conc(f"(app (lam x1 B x1) {ID})", stlc)
    sigma = match_pattern(beta.conclusion.lhs, subject, stlc)
    assert sigma["x"] == Var("x1")
    assert sigma["T"] == Constructor("B")
    assert sigma["e"] == Var("x1")
    assert sigma["v"] == conc(ID, stlc)


def test_a_binder_pattern_binds_its_variable_to_one_name(stlc_consts):
    pattern = parse_term("(app (lam x T1 e1) (lam x T2 e2))", stlc_consts)
    same = conc("(app (lam x int x) (lam x float x))", stlc_consts)
    renamed = conc("(app (lam x int x) (lam x1 int x1))", stlc_consts)
    assert match_pattern(pattern, same, stlc_consts)["x"] == Var("x")
    assert match_pattern(pattern, renamed, stlc_consts) is None


def test_match_extends_given_bindings(stlc):
    e = Metavariable("e", None, "Expression")
    lam = conc(ID, stlc)
    other = conc("(lam x (arrow B B) x)", stlc)
    assert match_pattern(e, lam, stlc, {"e": lam}) == {"e": lam}
    assert match_pattern(e, lam, stlc, {"e": other}) is None


def test_shared_heads_keep_holes_substitutions_and_binders_apart(stlc):
    # The walks compare nodes by term_head, which gives a substitution the
    # head of a metavariable; each row is an answer that must not blur.
    e = Metavariable("e", None, "Expression")
    subst = Subst(e, e, "x")
    lam = conc(ID, stlc)
    lam_constructor = Constructor("lam", lam.args)   # same name and arity
    closed = conc(f"(app {ID} (lam x1 (arrow B B) x1))", stlc)
    # A category whose one production holds a substitution slot; the parser
    # refuses such a production, so it is built here.
    odd = dataclasses.replace(stlc, categories=(
        *stlc.categories, GrammarCategory("Odd", "o", (Constructor("wrap", (subst,)),))))
    rows = {
        "hole pattern": match_pattern(HOLE, HOLE, stlc) is None,
        "substitution pattern, same substitution": match_pattern(subst, subst, stlc) is None,
        "substitution pattern, metavariable": match_pattern(subst, e, stlc) is None,
        "binder pattern, constructor subject":
            match_pattern(lam, lam_constructor, stlc) is None,
        "constructor pattern, binder subject":
            match_pattern(lam_constructor, lam, stlc) is None,
        "instantiate without metavariables": instantiate(closed, {}, stlc) is closed,
        "substitution slot, substitution": not member(Constructor("wrap", (subst,)), "Odd", odd),
        "substitution slot, metavariable": not member(Constructor("wrap", (e,)), "Odd", odd),
    }
    assert [name for name, holds in rows.items() if not holds] == []


def test_instantiate_rejects_unbound_metavariable(stlc):
    e = Metavariable("e", None, "Expression")
    with pytest.raises(EngineError):
        instantiate(e, {}, stlc)


def test_instantiate_substitution_term(stlc):
    lam = conc(ID, stlc)
    pattern = Subst(Metavariable("e", None, "Expression"),
                    Metavariable("v", None, "Value"), "x")
    sigma = {"e": Var("x"), "v": lam, "x": Var("x")}
    assert instantiate(pattern, sigma, stlc) == lam


def built_or_error(build):
    """What build() returns, or the class and message of its EngineError."""
    try:
        return build()
    except EngineError as exc:
        return type(exc), str(exc)


# Every fixture, every golden and the criterion-12 mutant, by name.
RULE_SPECS = {
    **{name: lambda name=name: load(name) for name in SPEC_FIXTURES},
    **{path.name: lambda path=path: parse_spec(path.read_text())
       for path in sorted(GOLDEN.glob("*.lang"))},
    "criterion-12-mutant": lambda: parse_spec(swapped_order_machine_text()),
}


@pytest.mark.parametrize("name", RULE_SPECS)
def test_rule_patterns_match_and_build_as_the_recursive_oracle(name):
    # Each rule pattern against each subterm of the spec's first 2,000 swarm
    # terms and of their types, those with the pattern's head: the same
    # bindings or the same refusal.  Under each match and under no
    # bindings, every pattern of the rule builds the identical term or
    # raises the same EngineError.
    spec = RULE_SPECS[name]()
    subjects: dict[tuple, dict] = {}
    for term in islice(iter_swarm_terms(spec, seed=0, max_size=10), 2000):
        terms = [term]
        try:
            terms.append(typecheck(term, spec))
        except TypecheckError:
            pass
        for s in (s for t in terms for s in subterms(t)):
            subjects.setdefault(ir.term_head(s), {})[s] = None
    everything = [s for by_head in subjects.values() for s in by_head]
    for rule in spec.rules:
        patterns = [t for f in (*rule.premises, rule.conclusion) for t in ir.formula_terms(f)]
        sigmas = [{}]
        for p in patterns:
            nested = type(p) in (Constructor, BinderApp)
            for s in subjects.get(ir.term_head(p), {}) if nested else everything:
                expected = {}
                if not oracle_match(p, s, expected, spec, {}):
                    expected = None
                assert match_pattern(p, s, spec) == expected, (rule.name, p, s)
                if nested and expected is not None:
                    sigmas.append(expected)
        for sigma in sigmas:
            for p in patterns:
                got = built_or_error(lambda: instantiate(p, sigma, spec))
                want = built_or_error(lambda: oracle_instantiate(p, sigma))
                assert got is want or (type(want) is tuple and got == want), (rule.name, p)


# -- substitution ----------------------------------------------------------------

def test_substitute_free_occurrences():
    t = Constructor("app", (Var("x"), Var("y")))
    assert substitute(t, "x", Constructor("c")) == \
        Constructor("app", (Constructor("c"), Var("y")))


def test_substitute_respects_shadowing():
    t = BinderApp("lam", "x", (Constructor("B"), Var("x")))
    assert substitute(t, "x", Var("z")) == t


def test_substitute_avoids_capture():
    t = BinderApp("lam", "x", (Constructor("B"), Var("y")))
    out = substitute(t, "y", Var("x"))
    assert out == BinderApp("lam", "x1", (Constructor("B"), Var("x")))


def test_free_vars_of_substitution_term():
    t = Subst(Var("x"), Var("y"), "x")
    assert free_vars(t) == {"y"}
    assert free_vars(BinderApp("lam", "x", (Var("x"), Var("z")))) == {"z"}


def test_free_vars_walks_a_5000_deep_term():
    t = Var("y")
    for _ in range(5000):
        t = BinderApp("lam", "x", (Constructor("B"), Constructor("app", (Var("x"), t))))
    assert free_vars(t) == {"y"}
    assert free_vars(Subst(t, Var("z"), "y")) == {"z"}


def test_substitute_returns_a_subterm_without_the_variable_as_it_is():
    t = BinderApp("lam", "x", (Constructor("B"), Var("y")))
    # x is free in the replacement, but z is not free in t: the binder is
    # not renamed, and t comes back itself.
    assert substitute(t, "z", Var("x")) is t
    out = substitute(Constructor("app", (t, Var("z"))), "z", Var("x"))
    assert out == Constructor("app", (t, Var("x")))
    assert out.args[0] is t


NAMES = st.sampled_from(["x", "y", "x1"])
BINDER_TERMS = st.recursive(
    st.one_of(st.builds(Var, NAMES), st.just(Constructor("c"))),
    lambda kids: st.one_of(
        st.builds(lambda a, b: Constructor("app", (a, b)), kids, kids),
        st.builds(lambda v, a: BinderApp("lam", v, (Constructor("B"), a)), NAMES, kids)),
    max_leaves=10)


@given(BINDER_TERMS, NAMES, BINDER_TERMS)
def test_substitute_equals_the_recursive_oracle(t, var, replacement):
    assert substitute(t, var, replacement) == oracle_substitute(t, var, replacement)
    assert free_vars(t) == oracle_free_vars(t)


def test_walks_of_a_5000_deep_chain_keep_to_the_default_recursion_limit(stlc_consts):
    depth = 5000
    assert sys.getrecursionlimit() < depth
    lam = BinderApp("lam", "x", (Constructor("int"), Var("x")))
    t = Var("y")
    for _ in range(depth):
        t = Constructor("app", (lam, t))
    assert render_term(t, stlc_consts) == "(app (lam x int x) " * depth + "y" + ")" * depth
    assert substitute(t, "y", Constructor("ci")) == identity_chain(depth)
    context, focus = decompose(t, stlc_consts)
    assert focus == Var("y")
    assert plug(context, focus) == t
    assert free_vars(t) == {"y"}
    assert term_size(t) == 4 * depth + 1


# -- decomposition ---------------------------------------------------------------

def test_decompose_finds_leftmost_innermost_redex(stlc):
    t = conc(f"(app (app {ID} {ID}) (app {ID} {ID}))", stlc)
    context, redex = decompose(t, stlc)
    assert redex == t.args[0]
    assert plug(context, redex) == t


def test_decompose_of_redex_is_identity_context(stlc):
    t = conc(f"(app {ID} {ID})", stlc)
    context, redex = decompose(t, stlc)
    assert redex == t
    assert plug(context, Constructor("mark")) == Constructor("mark")


def test_plug_inverts_decompose_on_random_terms(boollist):
    for t in random_terms(boollist, 300, seed=11, max_size=9):
        context, redex = decompose(t, boollist)
        assert plug(context, redex) == t


CONTEXT_FIXTURES = ("stlc", "stlc_consts", "langfunny", "boollist")


@pytest.mark.parametrize("name", CONTEXT_FIXTURES)
def test_decompose_equals_the_slots_first_oracle_on_generated_terms(name):
    spec = load(name)
    assert spec.context_category is not None
    for seed in (0, 1):
        for t in islice(iter_swarm_terms(spec, seed=seed, max_size=10), 300):
            for s in subterms(t):
                assert decompose(s, spec) == oracle_decompose(s, spec), s


# -- small-step evaluation ------------------------------------------------------

def test_step_uses_first_matching_rule():
    spec = parse_spec("""\
language order

variables x

grammar
  Expression e ::= x | c1 | c2 | (f e)
  Value v ::= c1 | c2
  Context E ::= [.] | (f E)

rule first
  --------------------------------
  (f v) --> c1

rule second
  --------------------------------
  (f v) --> c2
""")
    ts = step(conc("(f c2)", spec), spec)
    assert ts.rule_name == "first"
    assert ts.after == Constructor("c1")


def test_evaluate_traces_each_contextual_step(boollist):
    t = conc("(app (lam x (if x t f)) (and f (hd (cons t nil))))", boollist)
    value, trace = evaluate(t, boollist)
    assert value == Constructor("f")
    assert [s.rule_name for s in trace] == \
        ["hd-head", "and-false", "beta", "if-false"]
    assert all(s.kind == "contextual-reduction" for s in trace)
    for before, after in zip(trace, trace[1:]):
        assert before.after == after.before


def test_a_step_holds_decompositions_and_reads_whole_terms(boollist):
    start, end = conc("(and (and t t) f)", boollist), conc("(and t f)", boollist)
    ts = evaluate(start, boollist)[1][0]
    assert type(ts.start) is type(ts.end) is Focused
    assert (ts.before, ts.after) == (start, end)
    whole = TraceStep("contextual-reduction", "and-true", start, end)
    assert ts == whole and hash(ts) == hash(whole) and repr(ts) == repr(whole)
    assert ts != TraceStep("contextual-reduction", "and-true", start, start)
    assert pickle.loads(pickle.dumps(ts)) == ts == copy.deepcopy(ts)
    with pytest.raises(AttributeError, match="cannot assign to field 'after'"):
        ts.after = start


def test_a_step_is_unequal_to_what_is_not_a_step(boollist):
    ts = evaluate(conc("(and (and t t) f)", boollist), boollist)[1][0]
    fields = (ts.kind, ts.rule_name, ts.before, ts.after)
    assert ts.__eq__(fields) is NotImplemented
    assert ts != fields and fields != ts


def test_evaluate_stuck(boollist):
    t = conc("(hd nil)", boollist)
    with pytest.raises(Stuck) as info:
        evaluate(t, boollist)
    assert info.value.term == t
    assert info.value.trace == []


@pytest.mark.parametrize("stream", [iter_random_terms, iter_swarm_terms])
def test_a_spec_without_expressions_generates_no_terms(stream):
    with pytest.raises(EngineError, match="spec has no Expression category"):
        next(stream(parse_spec(TAGS)))


def identity_chain(depth):
    """(app (lam x int x) (app (lam x int x) ... ci)), depth applications."""
    t = Constructor("ci")
    for _ in range(depth):
        t = Constructor("app", (BinderApp("lam", "x", (Constructor("int"), Var("x"))), t))
    return t


@pytest.mark.parametrize("depth", [300, 450])
def test_evaluate_deeply_nested_term(stlc_consts, depth):
    value, trace = evaluate(identity_chain(depth), stlc_consts)
    assert value == Constructor("ci")
    assert len(trace) == depth
    assert {ts.kind for ts in trace} == {"contextual-reduction"}


def test_evaluate_out_of_fuel(boollist):
    omega = conc("(app (lam x (app x x)) (lam x (app x x)))", boollist)
    with pytest.raises(OutOfFuel) as info:
        evaluate(omega, boollist, fuel=5)
    assert len(info.value.trace) == 5


# -- machine evaluation ---------------------------------------------------------

def test_machine_terminal_configuration(langfunny):
    derived = derive_ck(langfunny)
    v = conc("(pair c1 c2)", langfunny)
    value, trace = ck_eval(MachineConfig(v, MT), derived)
    assert value == v
    assert trace == []


def test_machine_rebuilds_value_formers(langfunny):
    derived = derive_ck(langfunny)
    t = conc("(pair (app (lam x B x) c1) c2)", langfunny)
    value, trace = ck_eval(MachineConfig(t, MT), derived)
    assert value == conc("(pair c1 c2)", langfunny)
    assert [s.rule_name for s in trace] == [
        "pair-start", "app-start", "app-order-1", "app-comp-1",
        "pair-order-1", "pair-plug",
    ]


def test_machine_stuck(boollist):
    derived = derive_ck(boollist)
    t = conc("(hd nil)", boollist)
    with pytest.raises(StuckMachine) as info:
        ck_eval(MachineConfig(t, MT), derived)
    assert [s.rule_name for s in info.value.trace] == ["hd-start"]
    assert info.value.config.focus == Constructor("nil")


def test_machine_out_of_fuel(boollist):
    derived = derive_ck(boollist)
    omega = conc("(app (lam x (app x x)) (lam x (app x x)))", boollist)
    with pytest.raises(OutOfFuel):
        ck_eval(MachineConfig(omega, MT), derived, fuel=10)


# id-app's left-hand side names the bound variable, and wrap-lam's right-hand
# side builds a binder around it, so matching and instantiation meet object
# variables and binders in rule patterns.
WRAPPER = """\
language wrapper

variables x

grammar
  Type T ::= int | (arrow T T)
  Expression e ::= x | ci | (lam x T e) | (app e e) | (wrap e)
  Value v ::= ci | (lam x T e)
  Context E ::= [.] | (app E e) | (app v E) | (wrap E)

binder lam 1

rule id-app
  --------------------------------
  (app (lam x T x) v) --> v

rule beta
  --------------------------------
  (app (lam x T e) v) --> e[v/x]

rule wrap-lam
  --------------------------------
  (wrap (lam x T e)) --> (lam x T (app (lam x T e) x))

rule wrap-ci
  --------------------------------
  (wrap ci) --> ci
"""


@pytest.mark.parametrize("text,small_rules,machine_rules", [
    ("(app (lam x1 int x1) ci)", ["id-app"],
     ["app-start", "app-order-1", "app-comp-1"]),
    ("(app (wrap (lam x int x)) ci)", ["wrap-lam", "beta", "id-app"],
     ["app-start", "wrap-start", "wrap-comp-1", "app-order-1", "app-comp-2",
      "app-start", "app-order-1", "app-comp-1"]),
    ("(wrap (app (lam x1 int x1) ci))", ["id-app", "wrap-ci"],
     ["wrap-start", "app-start", "app-order-1", "app-comp-1", "wrap-comp-2"]),
])
def test_rule_patterns_with_variables_and_binders(text, small_rules, machine_rules):
    spec = parse_spec(WRAPPER)
    term = conc(text, spec)
    value, trace = evaluate(term, spec)
    assert (value, [s.rule_name for s in trace]) == (Constructor("ci"), small_rules)
    value, trace = ck_eval(MachineConfig(term, MT), derive_ck(spec))
    assert (value, [s.rule_name for s in trace]) == (Constructor("ci"), machine_rules)


def test_wrapping_rebuilds_the_lambda_around_its_own_bound_variable():
    spec = parse_spec(WRAPPER)
    _, trace = evaluate(conc("(app (wrap (lam x1 int x1)) ci)", spec), spec)
    assert trace[0].after == conc("(app (lam x1 int (app (lam x1 int x1) x1)) ci)", spec)


OMEGA = "(app (lam x (app x x)) (lam x (app x x)))"
# Every step of this loop rebuilds its state as a fresh copy of an earlier
# one; terms are interned, so the copy is that earlier state and the repeat
# is seen.
BIG_LOOP_HALF = "(lam x (app (lam x1 (app x x)) (cons t (cons f (cons t nil)))))"
BIG_LOOP = f"(app {BIG_LOOP_HALF} {BIG_LOOP_HALF})"
SHORT_RUN = "(app (lam x (if x t f)) (and f (hd (cons t nil))))"
# The root's (cons v E) frame holds a non-list until the last step makes a
# list below it.
LIST_FLIP = "(cons (and t t) (hd (cons (cons (and t f) nil) nil)))"

# name: spec, term (None for a 300-deep identity chain), semantics, and how
# the run ends: it repeats a state, runs out of fuel unseen, reaches a value,
# or gets stuck
RUNS = {
    "omega": ("boollist", OMEGA, "smallstep", "repeats"),
    "omega-machine": ("boollist", OMEGA, "ck", "repeats"),
    "swapped-order-machine": ("langfunny", "(doublyApply (lam x B c2) (lam x B c2) c2 c2)",
                              "swapped", "repeats"),
    "big-loop": ("boollist", BIG_LOOP, "smallstep", "repeats"),
    "big-loop-machine": ("boollist", BIG_LOOP, "ck", "repeats"),
    "short-run": ("boollist", SHORT_RUN, "smallstep", "value"),
    "short-run-machine": ("boollist", SHORT_RUN, "ck", "value"),
    "identity-chain": ("stlc_consts", None, "smallstep", "value"),
    "identity-chain-machine": ("stlc_consts", None, "ck", "value"),
    "list-flip": ("boollist", LIST_FLIP, "smallstep", "value"),
    "list-flip-machine": ("boollist", LIST_FLIP, "ck", "value"),
    "stuck-run": ("boollist", "(hd (app (lam x x) nil))", "smallstep", "stuck"),
    "stuck-run-machine": ("boollist", "(hd (app (lam x x) nil))", "ck", "stuck"),
}


@functools.cache
def full_fuel_run(spec_name, text, semantics):
    """A RUNS case as (source spec, the spec it runs on, the fast run, start
    state, budget, the oracle's outcome at the budget).  The budget is the
    one compare gives that side."""
    spec = load(spec_name)
    term = identity_chain(300) if text is None else conc(text, spec)
    if semantics == "smallstep":
        return spec, spec, evaluate, term, 10000, cli._outcome(oracle_evaluate, term, spec, 10000)
    machine = (parse_spec(swapped_order_machine_text()) if semantics == "swapped"
               else derive_ck(spec))
    config = MachineConfig(term, MT)
    return (spec, machine, ck_eval, config, 3 * 10000,
            cli._outcome(oracle_ck_eval, config, machine, 3 * 10000))


def outcome_at(full, fuel):
    """The outcome the oracle gives with this fuel, read off its outcome full
    at a fuel no smaller: the full run up to the fuel-th step.  A run that
    ends after exactly fuel steps without a value is out of fuel there, even
    when it would be stuck with more."""
    kind, _, trace = full
    if fuel > len(trace) or (fuel == len(trace) and kind == "value"):
        return full
    return "out-of-fuel", trace[fuel - 1].after, trace[:fuel]


@pytest.mark.parametrize("spec_name,text,semantics,ending", RUNS.values(), ids=RUNS)
def test_runs_end_exactly_as_the_full_fuel_loop(spec_name, text, semantics, ending):
    _, spec, run, state, budget, full = full_fuel_run(spec_name, text, semantics)
    for fuel in [*range(1, 41), budget]:
        fast = cli._outcome(run, state, spec, fuel)
        assert fast == outcome_at(full, fuel), fuel
    # A run seen to repeat pads its trace with the loop's own steps.
    kind, _, trace = fast
    assert kind == (ending if ending in ("value", "stuck") else "out-of-fuel")
    assert (len({id(s) for s in trace}) < len(trace)) == (ending == "repeats")


@pytest.mark.parametrize("spec_name,text,semantics,ending", RUNS.values(), ids=RUNS)
def test_decompose_equals_the_slots_first_oracle_on_every_state_of_a_run(
        spec_name, text, semantics, ending):
    spec, _, _, state, _, (_, _, trace) = full_fuel_run(spec_name, text, semantics)
    if semantics == "smallstep":
        states = [state] + [ts.after for ts in trace]
    else:
        # A machine state's focus is a term of the source language.
        states = [state.focus] + [ts.after.focus for ts in trace]
    # Hashing and == of a state are identity; the oracle's membership
    # recurses a few frames per level of it.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        for s in dict.fromkeys(states):   # a loop's states, once each
            assert decompose(s, spec) == oracle_decompose(s, spec)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("name", CONTEXT_FIXTURES)
def test_runs_equal_the_per_step_memo_oracles_on_well_typed_terms(name):
    spec = load(name)
    machine = derive_ck(spec)
    for term in cli.well_typed_terms(spec, 200, 0, 10):
        assert cli._outcome(evaluate, term, spec, 300) == \
            cli._outcome(oracle_evaluate, term, spec, 300), term
        config = MachineConfig(term, MT)
        assert cli._outcome(ck_eval, config, machine, 900) == \
            cli._outcome(oracle_ck_eval, config, machine, 900), term


def counted_categories(monkeypatch):
    """A one-item list counting, from now on, the calls of engine._categories,
    which reads a slot's states, and of engine._derived_by, which
    categorises one node."""
    calls = [0]

    def counting(name):
        walk = getattr(engine, name)

        def counted(*args):
            calls[0] += 1
            return walk(*args)

        monkeypatch.setattr(engine, name, counted)

    counting("_categories")
    counting("_derived_by")
    return calls


def test_a_run_categorises_its_focus_path_not_the_whole_term(monkeypatch, stlc_consts):
    calls = counted_categories(monkeypatch)
    value, trace = evaluate(identity_chain(200), stlc_consts)
    assert value == Constructor("ci") and len(trace) == 200
    # A memo per step, and the other slots tested before the hole, made
    # 200,401 calls.
    assert calls[0] <= 25000


def and_beside_a_list(n):
    """(and A BIG): A a 50-deep left-nested and chain, BIG a list of n values."""
    chain = Constructor("t")
    for _ in range(50):
        chain = Constructor("and", (chain, Constructor("t")))
    big = Constructor("nil")
    for _ in range(n):
        big = Constructor("cons", (Constructor("t"), big))
    return Constructor("and", (chain, big))


def test_a_run_walks_a_subterm_off_its_focus_path_once(monkeypatch, boollist):
    calls = counted_categories(monkeypatch)
    runs, walks = {}, {}
    for n in (100, 1600):
        term = and_beside_a_list(n)
        calls[0] = 0
        categories(term.args[1], boollist)
        walks[n] = calls[0]
        calls[0] = 0
        value, trace = evaluate(term, boollist)
        assert value is term.args[1] and len(trace) == 51
        runs[n] = calls[0]
    # The 1,500 more list nodes cost one walk of them: 10,500 calls, seven
    # per node.  A memo per step walked them once per step, 546,000 calls.
    assert 0 < runs[1600] - runs[100] <= walks[1600] - walks[100]


def mixed_name_chain(depth):
    """identity_chain with its bound names cycling through x, x1, x2 and x'
    from the inside out.  A step's reduct then makes a chain that no earlier
    state holds, so no two states share the nodes of their spines."""
    t = Constructor("ci")
    for i in range(depth):
        name = ("x", "x1", "x2", "x'")[i % 4]
        t = Constructor("app", (BinderApp("lam", name, (Constructor("int"), Var(name))), t))
    return t


@pytest.mark.parametrize("spec_name", ["stlc_consts", "boxes"])
def test_a_refocused_run_does_membership_work_linear_in_depth(monkeypatch, spec_name):
    spec = parse_spec(SPEC_TEXTS[spec_name]) if spec_name in SPEC_TEXTS else load(spec_name)
    calls = counted_categories(monkeypatch)
    depth = 400
    value, trace = evaluate(mixed_name_chain(depth), spec)
    assert value == Constructor("ci") and len(trace) == depth
    # Decomposing every state from the root, as boxes used to since its
    # (box (app v v)) nests a slot, made about 79,800 calls.
    assert calls[0] <= 4 * depth


class CountedStates(frozenset):
    """A node's states, counting in tests the slot tests made against them."""
    tests = 0

    def __contains__(self, state):
        CountedStates.tests += 1
        return frozenset.__contains__(self, state)


def test_membership_through_a_nested_production_is_linear_in_its_depth(monkeypatch):
    derived_by = engine._derived_by
    monkeypatch.setattr(engine, "_derived_by",
                        lambda *args: CountedStates(derived_by(*args)))
    monkeypatch.setattr(CountedStates, "tests", 0)
    stlc = (FIXTURES / "stlc.lang").read_text()
    tests = {}
    for depth in (200, 400):
        spec = parse_spec(stlc.replace(
            "(app e e)\n", "(app e e) | " + "(wrap " * depth + "e" + ")" * depth + "\n"))
        term = conc("(wrap " * depth + "(lam x B x)" + ")" * depth, spec)
        CountedStates.tests = 0
        assert categories(term, spec) == {"Expression"}
        tests[depth] = CountedStates.tests
    # Each wrap node tried every wrap transition, one per level of the
    # production: four times the slot tests at twice the depth.
    assert 0 < tests[400] <= 2.2 * tests[200]


def random_name_chain(depth):
    """identity_chain with each bound name drawn from x, x1, x2 and x'."""
    rng = random.Random(0)
    t = Constructor("ci")
    for _ in range(depth):
        name = rng.choice(("x", "x1", "x2", "x'"))
        t = Constructor("app", (BinderApp("lam", name, (Constructor("int"), Var(name))), t))
    return t


def test_a_run_builds_nodes_linear_in_depth(monkeypatch, stlc_consts):
    intern = ir._intern
    built = {}
    for depth in (500, 1000):
        term = random_name_chain(depth)
        calls = [0]

        def counted(cls, key):
            calls[0] += 1
            return intern(cls, key)

        monkeypatch.setattr(ir, "_intern", counted)
        value, trace = evaluate(term, stlc_consts)
        monkeypatch.setattr(ir, "_intern", intern)
        assert value == Constructor("ci") and len(trace) == depth
        built[depth] = calls[0]
    # Rebuilding the path to the redex on every step built about four times
    # as many nodes at twice the depth.
    assert built[1000] < 2.5 * built[500]


def test_a_run_skips_the_value_test_of_a_root_that_keeps_its_categories(
        monkeypatch, langfunny):
    # (pair (app (lam x B x) c2) (pair ... c1)): pair can head a value, and
    # testing every state's root for one folded every rebuilt node of the
    # path, 565,802 calls.
    term = Constructor("c1")
    for _ in range(400):
        term = Constructor("pair", (conc(f"(app {ID} c2)", langfunny), term))
    expected = oracle_evaluate(term, langfunny)
    calls = counted_categories(monkeypatch)
    assert evaluate(term, langfunny) == expected
    assert calls[0] <= 20000


# A Value production that nests a pattern: (box (app v v)) is a value when
# the application's arguments are.
BOXES = """\
language boxes

variables x

grammar
  Type T ::= int | (arrow T T)
  Expression e ::= x | ci | (lam x T e) | (app e e) | (pair e e) | (box e)
  Value v ::= ci | (lam x T e) | (pair v v) | (box (app v v))
  Context E ::= [.] | (app E e) | (app v E) | (pair E e) | (pair v E) | (box E)

binder lam 1

rule beta
  --------------------------------
  (app (lam x T e) v) --> e[v/x]
"""

# foo is a context operator that no category derives a node of, so no
# membership reads its argument: the (foo [.]) frame stays as it is.
NO_FOO_TERMS = """\
language nofoo

grammar
  Expression e ::= c | d | (bar e)
  Value v ::= c | d
  Context E ::= [.] | (foo [.]) | (bar E)

rule unfold
  --------------------------------
  (bar c) --> (foo (bar d))

rule drop
  --------------------------------
  (bar d) --> d
"""

# Specs written out here, by name; any other name is a fixture.
SPEC_TEXTS = {
    "no-foo-terms": NO_FOO_TERMS,
    "nums-under-succ": NUMS.replace("(pred E)", "(succ E) | (pred E)"),
    "boxes": BOXES,
    # stlc_consts with its context productions writing the hole as [.].
    "stlc-consts-hole-contexts": (FIXTURES / "stlc_consts.lang").read_text().replace(
        "(app E e) | (app v E)", "(app [.] e) | (app v [.])"),
}

# name: spec, term (None for the 60-deep mixed-name chain)
REFOCUSED = {
    # The value c2 turns the outer frame from (pair E e) into (pair v E).
    "value-turns-the-frame-above": (
        "langfunny", "(pair (pair c1 (app (lam x B x) c2)) (app (lam x B x) c3))"),
    # zero makes (succ zero), the whole term, a value.
    "value-makes-a-value-above": ("nums-under-succ", "(succ (pred (succ zero)))"),
    # The reduct (and t t) is no value, and the (if E e e) frame stays.
    "frame-kept-above-a-non-value": (
        "boollist", "(if (app (lam x (and x t)) t) (hd (cons f nil)) t)"),
    # ci makes the box a value by the shape of its argument, which the
    # categories of that argument do not show.
    "nested-value-production": (
        "boxes", "(pair (box (app (lam x int x) (app (lam x int x) ci))) "
                 "(app (lam x int x) ci))"),
    # The reduct d leaves the (foo [.]) frame, whose node is in no category.
    "frame-of-no-category": ("no-foo-terms", "(bar c)"),
    "mixed-name-chain": ("stlc_consts", None),
    "mixed-name-chain-under-hole-contexts": ("stlc-consts-hole-contexts", None),
}


@pytest.mark.parametrize("spec_name,text", REFOCUSED.values(), ids=REFOCUSED)
def test_refocused_runs_equal_the_oracle_at_every_fuel(spec_name, text):
    spec = parse_spec(SPEC_TEXTS[spec_name]) if spec_name in SPEC_TEXTS else load(spec_name)
    term = mixed_name_chain(60) if text is None else conc(text, spec)
    _, _, trace = cli._outcome(oracle_evaluate, term, spec, 10000)
    for fuel in range(1, len(trace) + 1):
        assert cli._outcome(evaluate, term, spec, fuel) == \
            cli._outcome(oracle_evaluate, term, spec, fuel), fuel


# name: spec, and the machine its terms run on
SHARED_MEMO_RUNS = {
    "stlc": ("stlc", None),
    "stlc_consts": ("stlc_consts", None),
    "boollist": ("boollist", None),
    "langfunny": ("langfunny", None),
    "langfunny-swapped-order": ("langfunny", swapped_order_machine_text),
}


@pytest.mark.parametrize("spec_name,machine_text", SHARED_MEMO_RUNS.values(),
                         ids=SHARED_MEMO_RUNS)
def test_runs_sharing_one_memo_per_spec_equal_fresh_runs(spec_name, machine_text):
    # compare keeps one membership memo per spec for all its runs.
    spec = load(spec_name)
    machine = derive_ck(spec) if machine_text is None else parse_spec(machine_text())
    source_cats, machine_cats = {}, {}
    for term in cli.well_typed_terms(spec, 2000, 0, 10):
        assert cli._outcome(evaluate, term, spec, 10000, cats=source_cats) == \
            cli._outcome(evaluate, term, spec, 10000), term
        config = MachineConfig(term, MT)
        assert cli._outcome(ck_eval, config, machine, 30000, cats=machine_cats) == \
            cli._outcome(ck_eval, config, machine, 30000), term
    assert source_cats and machine_cats


def test_contexts_written_with_holes_keep_refocusing(monkeypatch):
    text = SPEC_TEXTS["stlc-consts-hole-contexts"]
    assert "(app [.] e) | (app v [.])" in text
    spec = parse_spec(text)
    calls = counted_categories(monkeypatch)
    depth = 400
    value, trace = evaluate(mixed_name_chain(depth), spec)
    assert value == Constructor("ci") and len(trace) == depth
    # Reading the productions' [.] slots as slots that are not metavariables
    # turned refocusing off: decomposing every state from the root made
    # 79,813 calls.
    assert calls[0] <= 4 * depth


def stepped(state, advance, finished):
    """How a run ends and its trace, advancing state one transition at a
    time until finished(state) holds or advance(state) returns None."""
    trace = []
    while not finished(state):
        taken = advance(state)
        if taken is None:
            return "stuck", trace
        trace.append(taken)
        state = taken.after
    return "value", trace


# name: spec, term, and how both semantics end on it
STEPPED = {
    "short-run": ("boollist", SHORT_RUN, "value"),
    "pair": ("langfunny", "(pair (app (lam x B x) c1) (doublyApply (lam x B x) "
                          "(lam x B c2) c3 (pair c1 c2)))", "value"),
    "stuck": ("boollist", "(hd nil)", "stuck"),
}


@pytest.mark.parametrize("spec_name,text,ending", STEPPED.values(), ids=STEPPED)
def test_step_and_machine_step_take_the_runs_transitions_one_at_a_time(
        spec_name, text, ending):
    spec = load(spec_name)
    machine = derive_ck(spec)
    term = conc(text, spec)
    config = MachineConfig(term, MT)
    small = stepped(term, lambda t: step(t, spec), lambda t: is_value(t, spec))
    big = stepped(config, lambda c: machine_step(c, machine),
                  lambda c: c.continuation == MT and is_value(c.focus, machine))
    assert small[0] == big[0] == ending
    assert small == cli._outcome(evaluate, term, spec, 10000)[::2]
    assert big == cli._outcome(ck_eval, config, machine, 10000)[::2]
    if spec_name == "langfunny":
        assert {s.kind for s in big[1]} == {
            "machine-start", "machine-order", "machine-computation", "machine-plug"}
    if ending == "stuck":
        assert small[1] == []
        assert [s.rule_name for s in big[1]] == ["hd-start"]


def test_a_machine_rule_for_any_continuation_keeps_its_place_in_rule_order():
    # Machine rules are tried by the head of the continuation; one whose
    # continuation pattern is a metavariable is tried under every head, in
    # its place among the rules for that head.
    machine = parse_spec((GOLDEN / "stlc.ck.lang").read_text().replace(
        "rule app-order-1", "rule drop\n  ---\n  <v , k> --> <v , mt>\n\nrule app-order-1"))
    config = MachineConfig(conc(f"(app {ID} {ID})", machine), MT)
    outcome = cli._outcome(ck_eval, config, machine, 100)
    assert [s.rule_name for s in outcome[2]] == ["app-start", "drop"]
    assert outcome == cli._outcome(oracle_ck_eval, config, machine, 100)


def test_equal_terms_built_apart_are_one_object(stlc_consts):
    assert BinderApp("lam", "x", (Var("x"),)) is BinderApp("lam", "x", (Var("x"),))
    assert identity_chain(20) is identity_chain(20)
    assert identity_chain(5000) is identity_chain(5000)
    assert len({BinderApp(binder, bound, (Var(name),)) for binder in ("lam", "mu")
                for bound in ("x", "y") for name in ("x", "y")}) == 8
    assert identity_chain(20) is not identity_chain(21)
    assert identity_chain(5000) != identity_chain(4999)
    assert isinstance(hash(identity_chain(5000)), int)
    # The generated == recursed once per level: RecursionError here.
    machine = derive_ck(stlc_consts)
    assert (ck_eval(MachineConfig(identity_chain(300), MT), machine)
            == ck_eval(MachineConfig(identity_chain(300), MT), machine))


def test_a_dropped_deep_term_leaves_no_entry_behind():
    tables = [cls._table for cls in (Constructor, BinderApp, Var)]
    live = [len(table) for table in tables]
    for i in range(100):
        t = Var(f"dropped{i}")
        for _ in range(100):   # alternates the two compound tables
            t = Constructor("app", (BinderApp("lam", "x", (t,)), Var("y")))
        t = Constructor("wrap", (Subst(t, Var("z"), "x"),))
    del t
    assert [len(table) - n for table, n in zip(tables, live)] == [0, 0, 0]
    t = identity_chain(100_000)   # freeing it walks no Python frame per level
    del t
    assert [len(table) - n for table, n in zip(tables, live)] == [0, 0, 0]


def test_terms_are_immutable_copy_as_themselves_and_print_as_dataclasses():
    lam = BinderApp("lam", "x", (Var("x"),))
    assert copy.deepcopy(lam) is lam and pickle.loads(pickle.dumps(lam)) is lam
    with pytest.raises(AttributeError, match="cannot assign to field 'binder'"):
        lam.binder = "mu"
    assert repr(lam) == "BinderApp(binder='lam', bound_var='x', args=(Var(name='x'),))"
    assert repr(Metavariable("T", None, "Type")) == (
        "Metavariable(base='T', suffix=None, category='Type')")
    assert repr(Constructor("nil")) == "Constructor(name='nil', args=())"


def outcome_smallstep(t, spec, fuel):
    try:
        value, _ = evaluate(t, spec, fuel=fuel)
        return ("value", value)
    except (Stuck, OutOfFuel):
        return ("failed", None)


def outcome_machine(t, derived, fuel):
    try:
        value, _ = ck_eval(MachineConfig(t, MT), derived, fuel=fuel)
        return ("value", value)
    except (StuckMachine, OutOfFuel):
        return ("failed", None)


def test_machine_agrees_with_small_step(stlc, stlc_consts, langfunny, boollist):
    for spec in (stlc, stlc_consts, langfunny, boollist):
        derived = derive_ck(spec)
        for t in random_terms(spec, 250, seed=7, max_size=8):
            assert outcome_smallstep(t, spec, 300) == \
                outcome_machine(t, derived, 900)


# -- subtype checking -----------------------------------------------------------

def test_check_subtype_units(references):
    ii, ff = Constructor("int"), Constructor("float")
    arrow = lambda a, b: Constructor("arrow", (a, b))
    ref = lambda a: Constructor("Ref", (a,))
    assert check_subtype(ii, ff, references)
    assert not check_subtype(ff, ii, references)
    assert check_subtype(arrow(ff, ii), arrow(ii, ff), references)
    assert not check_subtype(arrow(ii, ii), arrow(ff, ii), references)
    assert check_subtype(ref(ii), ref(ii), references)
    assert not check_subtype(ref(ii), ref(ff), references)
    assert check_subtype(arrow(ii, ff), arrow(ii, ff), references)
    assert not check_subtype(ii, Constructor("Bool"), references)


def test_check_subtype_equals_the_variance_walk_on_all_small_types():
    pairs = 0
    for name in SPEC_FIXTURES:
        spec = load(name)
        if spec.type_category is None:
            continue
        types = enumerate_closed_terms(spec, 5, "Type")
        for t1 in types:
            for t2 in types:
                assert check_subtype(t1, t2, spec) == oracle_check_subtype(t1, t2, spec), \
                    (name, t1, t2)
        pairs += len(types) ** 2
    assert pairs == 96574


def test_subtyping_is_a_partial_order(references):
    types = enumerate_types(references, 2, bases={"int", "float"})
    rel = {(a, b) for a in types for b in types
           if check_subtype(a, b, references)}
    above = {}
    for a, b in rel:
        above.setdefault(a, set()).add(b)
    for t in types:
        assert (t, t) in rel
    for a, b in rel:
        if (b, a) in rel:
            assert a == b
    for a, b in rel:
        for c in above.get(b, ()):
            assert (a, c) in rel


# -- typechecking ---------------------------------------------------------------

def test_typecheck_constants_and_lambda(references):
    assert typecheck(conc("ci", references), references) == Constructor("int")
    assert typecheck(conc("cf", references), references) == Constructor("float")
    assert typecheck(conc("(lam x int x)", references), references) == \
        Constructor("arrow", (Constructor("int"), Constructor("int")))


def test_typecheck_env_and_unbound(references):
    assert typecheck(Var("x"), references, {"x": Constructor("int")}) == \
        Constructor("int")
    with pytest.raises(UnboundVariable):
        typecheck(Var("x"), references)


def test_equality_typing_rejects_application_at_a_subtype(references):
    t = conc("(app (lam x float x) ci)", references)
    with pytest.raises(TypecheckError):
        typecheck(t, references)


def test_transformed_rules_accept_application_at_a_subtype(references):
    wide = add_subtyping(references)
    t = conc("(app (lam x float x) ci)", references)
    assert typecheck(t, wide) == Constructor("float")
    # still no way to use a float where an int is demanded
    with pytest.raises(TypecheckError):
        typecheck(conc("(app (lam x int x) cf)", references), wide)


def test_transformed_conditional_joins_branch_types(references):
    wide = add_subtyping(references)
    t = conc("(if true ci cf)", references)
    with pytest.raises(TypecheckError):
        typecheck(t, references)
    assert typecheck(t, wide) == Constructor("float")


def test_transformed_assignment_keeps_the_reference_type_invariant(references):
    # Ref is invariant, so add-subtyping gives t-assign T1 = T2, not T2 <: T1.
    wide = add_subtyping(references)
    ref_int = conc("(lam x (Ref int) (assign x ci))", references)
    assert typecheck(ref_int, wide) == conc("(arrow (Ref int) unitType)", references)
    with pytest.raises(SubtypeFailure) as info:
        typecheck(conc("(lam x (Ref float) (assign x ci))", references), wide)
    assert (info.value.t1, info.value.t2) == (Constructor("float"), Constructor("int"))


PREMISES = """\
language premises

variables x

grammar
  Type T ::= int | float
  Expression e ::= x | ci | cf | (left e) | (right e) | (both e e) | (run e)

subtype-base
  int <: float

rule t-ci
  --------------------------------
  G |- ci : int

rule t-cf
  --------------------------------
  G |- cf : float

rule t-left
  G |- e : T1
  T2 = T1
  --------------------------------
  G |- (left e) : T2

rule t-right
  G |- e : T1
  T1 = T2
  --------------------------------
  G |- (right e) : T2

rule t-both
  G |- e1 : T1
  G |- e2 : T2
  T1 = T1 \\/ T2
  --------------------------------
  G |- (both e1 e2) : T1

rule t-run
  e --> e'
  --------------------------------
  G |- (run e) : int
"""


def test_typecheck_discharges_equality_join_and_unsupported_premises():
    spec = parse_spec(PREMISES)
    # An equality binds whichever side the rule has not bound yet.
    assert typecheck(conc("(left ci)", spec), spec) == Constructor("int")
    assert typecheck(conc("(right cf)", spec), spec) == Constructor("float")
    # A join whose result is bound already must equal it.
    assert typecheck(conc("(both cf ci)", spec), spec) == Constructor("float")
    with pytest.raises(SubtypeFailure) as info:
        typecheck(conc("(both ci cf)", spec), spec)
    assert (info.value.t1, info.value.t2) == (Constructor("int"), Constructor("float"))
    # A step premise has no meaning to the checker.
    with pytest.raises(TypecheckError, match="rule 't-run' has an unsupported premise"):
        typecheck(conc("(run ci)", spec), spec)


def test_a_join_premise_over_types_without_a_join_is_a_subtype_failure():
    # int and bool have no upper bound in common, so t-both's join premise
    # fails, naming the two types, and no subtyping error escapes.
    spec = parse_spec(PREMISES.replace("int | float", "int | float | bool").replace(
        "| cf |", "| cf | cb |") + """
rule t-cb
  --------------------------------
  G |- cb : bool
""")
    with pytest.raises(SubtypeFailure) as info:
        typecheck(conc("(both ci cb)", spec), spec)
    assert (info.value.t1, info.value.t2) == (Constructor("int"), Constructor("bool"))


def test_two_rules_for_one_head_rejected():
    spec = parse_spec("""\
language twice

variables x

grammar
  Type T ::= B
  Expression e ::= x | c
  Value v ::= c

rule t-c1
  --------------------------------
  G |- c : B

rule t-c2
  --------------------------------
  G |- c : B
""")
    with pytest.raises(NotSyntaxDirected) as info:
        typecheck(Constructor("c"), spec)
    assert info.value.head == "c"


def test_not_syntax_directed_is_raised_on_every_call(stlc):
    twice = stlc.with_rules(
        (*stlc.rules, dataclasses.replace(stlc.rules[0], name="t-lam2")))
    for _ in range(2):
        with pytest.raises(NotSyntaxDirected):
            typecheck(conc("(lam x B x)", stlc), twice)


def test_transformations_do_not_inherit_the_source_tables():
    spec = load("langfunny")
    term = conc("(addToPairAsList c1 (app (lam x B (pair x c2)) c3))", spec)
    typecheck(term, spec)
    evaluate(term, spec)
    assert spec.machine_rules() == ()

    wide = add_subtyping(spec)
    assert wide.typing_rules() == tuple(
        r for r in wide.rules if isinstance(r.conclusion, Typing))
    assert wide.typing_rules() != spec.typing_rules()

    machine = derive_ck(spec)
    assert machine.machine_rules() == tuple(
        r for r in machine.rules if isinstance(r.conclusion, MachineStep))
    assert machine.machine_rules() and machine.reduction_rules() == ()
    assert ck_eval(MachineConfig(term, MT), machine)[0] == evaluate(term, spec)[0]


def test_metavariable_left_unbound_by_the_rule_is_a_typecheck_error():
    # t-lam's T1 occurs neither in the subject nor in an earlier premise.
    spec = parse_spec("""\
language unannotated

variables x

grammar
  Type T ::= B
  Expression e ::= x | c | (lam x e)

binder lam 1

rule t-c
  --------------------------------
  G |- c : B

rule t-lam
  G, x : T1 |- e : T2
  --------------------------------
  G |- (lam x e) : T2
""")
    with pytest.raises(NoRuleApplies) as info:
        typecheck(conc("(lam x c)", spec), spec)
    assert isinstance(info.value, TypecheckError)


def typing_outcome(check, t, spec, env=None):
    """What check makes of t: its type, or the class of the TypecheckError
    it raises with the fields that say what failed, and its message."""
    try:
        return check(t, spec, env)
    except TypecheckError as exc:
        fields = ("term", "t1", "t2", "name", "head")
        return type(exc), {f: getattr(exc, f) for f in fields if hasattr(exc, f)}, str(exc)


# Edits of references.sub whose rule reads a metavariable nothing binds, at
# each kind of step: a typing premise's subject and its environment, a
# subtype, a join operand, an equality, a conclusion and an axiom's type.
UNBOUND_READS = (
    ("  G |- e3 : T2\n", "  G |- e3 : T2\n  G |- e9 : T3\n"),
    ("  G, x : T1 |- e : T2", "  G, x : T8 |- e : T2"),
    ("  T12 <: T11\n", "  T12 <: T11\n  T12 <: T99\n"),
    ("  T = T1 \\/ T2\n", "  T = T1 \\/ T77\n"),
    ("  T1 = T2\n", "  T1 = T2\n  T5 = T6\n"),
    ("  G |- (app e1 e2) : T2", "  G |- (app e1 e2) : T42"),
    ("  G |- ci : int", "  G |- ci : T42"),
)


def test_a_rule_is_refused_where_it_first_reads_an_unbound_metavariable():
    # t-if's join result reads T13, which nothing binds.  The join comes
    # first, so branches without a join are a SubtypeFailure; joinable ones
    # are refused at the join, before the always-failing T1 <: Bool.
    text = (GOLDEN / "references.sub.lang").read_text()
    spec = parse_spec(text.replace(
        "  T = T1 \\/ T2\n  --------------------------------\n  G |- (if e1 e2 e3) : T",
        "  (arrow T T13) = T1 \\/ T2\n  T1 <: Bool\n"
        "  --------------------------------\n  G |- (if e1 e2 e3) : T1"))
    outcomes = {text: typing_outcome(typecheck, conc(text, spec), spec)
                for text in ("(if true ci true)", "(if true ci ci)")}
    assert outcomes == {text: typing_outcome(oracle_typecheck, conc(text, spec), spec)
                        for text in outcomes}
    assert [o[0] for o in outcomes.values()] == [SubtypeFailure, NoRuleApplies]
    # Each other kind of step, on swarm draws typed fresh and with one memo,
    # and on an application that reaches t-app's last premise.
    for old, new in UNBOUND_READS:
        assert old in text
        spec, types = parse_spec(text.replace(old, new)), {}
        draws = dict.fromkeys(islice(iter_swarm_terms(spec, seed=0, max_size=8), 500))
        for t in (*draws, conc("(app (lam x int x) ci)", spec)):
            expected = typing_outcome(oracle_typecheck, t, spec)
            assert typing_outcome(typecheck, t, spec) == expected, (new, t)
            assert typing_outcome(lambda t, spec, env: typecheck(t, spec, env, types),
                                  t, spec) == expected, (new, t)


# d's rule and lam's leave a metavariable of their type unbound.
UNBOUND_TYPES = """\
language unbound

variables x

grammar
  Type T ::= B | (arrow T T)
  Expression e ::= x | c | d | (lam x e) | (app e e)

binder lam 1

rule t-c
  --------------------------------
  G |- c : B

rule t-d
  --------------------------------
  G |- d : T

rule t-lam
  G, x : T1 |- e : T2
  --------------------------------
  G |- (lam x e) : (arrow T1 T2)

rule t-app
  G |- e1 : (arrow T1 T2)
  G |- e2 : T1
  --------------------------------
  G |- (app e1 e2) : T2
"""


def typing_specs():
    """Every fixture and golden, add-subtyping of each fixture it accepts,
    the premise and unbound-type specs above, and stlc with a second rule
    for lam, which is not syntax-directed."""
    for path in (*sorted(FIXTURES.glob("*.lang")), *sorted(GOLDEN.glob("*.lang"))):
        spec = parse_spec(path.read_text(), filename=path.name)
        yield path.name, spec
        if path.parent == FIXTURES:
            try:
                yield f"{path.name} subtyped", add_subtyping(spec)
            except SubtypingError:
                pass
    yield "premises", parse_spec(PREMISES)
    yield "unbound", parse_spec(UNBOUND_TYPES)
    stlc = load("stlc")
    yield "twice", stlc.with_rules((*stlc.rules, dataclasses.replace(stlc.rules[0], name="t-lam2")))


def test_typecheck_agrees_with_the_recursive_oracle():
    # The distinct draws among 2,000 swarm terms of each spec, then their
    # open subterms under no environment (an unbound variable) and with
    # each free variable at one of two types.  The .sub goldens and the
    # subtyped fixtures carry subtype and join premises.
    seen = {}
    for name, spec in typing_specs():
        draws = dict.fromkeys(islice(iter_swarm_terms(spec, seed=0, max_size=10), 2000))
        types = [Constructor(b) for b in spec.base_types()[:2]]
        cases = [(t, None) for t in draws]
        for t in {s for d in draws for s in subterms(d) if free_vars(s)}:
            cases += [(t, None), *((t, dict.fromkeys(free_vars(t), ty)) for ty in types)]
        for t, env in cases:
            expected = typing_outcome(oracle_typecheck, t, spec, env)
            assert typing_outcome(typecheck, t, spec, env) == expected, (name, t, env)
            kind = expected[0] if type(expected) is tuple else "typed"
            seen[kind] = seen.get(kind, 0) + 1
    assert {"typed", NoRuleApplies, UnboundVariable, SubtypeFailure, NotSyntaxDirected,
            TypecheckError} <= set(seen), seen


def test_typecheck_with_one_typing_memo_agrees_with_the_recursive_oracle():
    # The distinct draws among 2,000 swarm terms of each spec, in draw
    # order, share one typing memo, as compare's filter does: a draw's
    # subterms, and often the draw itself, were typed or refused by the
    # draws before it.  Then their open subterms, under no environment,
    # which nothing typed under a binder may answer for.
    seen, kept = set(), set()
    for name, spec in typing_specs():
        types = {}

        def shared(t, spec, env):
            return typecheck(t, spec, env, types)

        draws = dict.fromkeys(islice(iter_swarm_terms(spec, seed=0, max_size=10), 2000))
        open_terms = dict.fromkeys(s for d in draws for s in subterms(d) if free_vars(s))
        for t in (*draws, *open_terms):
            expected = typing_outcome(oracle_typecheck, t, spec)
            was_kept = t in types
            assert typing_outcome(shared, t, spec) == expected, (name, t)
            kind = expected[0] if type(expected) is tuple else "typed"
            seen.add(kind)
            if was_kept:
                kept.add(kind)
    assert {"typed", NoRuleApplies, SubtypeFailure, NotSyntaxDirected,
            TypecheckError} <= seen, seen
    assert {"typed", NoRuleApplies} <= kept, kept


def test_a_kept_failure_is_raised_as_a_fresh_object(stlc_consts):
    # (app ci ci) is refused once; the term that holds it, and each term
    # again, are refused by the kept failure.  Each raise is an object of
    # its own with a traceback as long as the first one's, and the kept
    # failure is never raised.
    bad = conc("(app ci ci)", stlc_consts)
    outer = conc("(app (lam x int x) (app ci ci))", stlc_consts)
    types = {}
    raised = []
    for t in (bad, outer, bad, outer):
        with pytest.raises(NoRuleApplies) as caught:
            typecheck(t, stlc_consts, types=types)
        raised.append(caught.value)
    assert types[bad] is types[outer] and types[bad].__traceback__ is None
    assert len({id(exc) for exc in (*raised, types[bad])}) == 5
    assert {(type(exc), exc.term, str(exc)) for exc in raised} == \
        {(NoRuleApplies, bad, "no typing rule applies to a subterm")}
    depth = len(traceback.extract_tb(raised[0].__traceback__))
    assert all(len(traceback.extract_tb(exc.__traceback__)) == depth for exc in raised)


def test_a_5000_deep_chain_typechecks_under_the_default_recursion_limit():
    # typecheck keeps its frames on a stack of its own; the recursive body
    # it replaced raised RecursionError from depth 990.
    program = "\n".join([
        "import sys",
        "from langx.engine import typecheck",
        "from langx.ir import BinderApp, Constructor, Var",
        "from langx.parser import parse_spec",
        f"spec = parse_spec(open({str(FIXTURES / 'stlc_consts.lang')!r}).read())",
        "t = Constructor('ci')",
        "for _ in range(5000):",
        "    t = Constructor('app', (BinderApp('lam', 'x', (Constructor('int'), Var('x'))), t))",
        "assert sys.getrecursionlimit() < 5000",
        "print(typecheck(t, spec))",
    ])
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == repr(Constructor("int")) + "\n"


# -- random term generation -------------------------------------------------------

def test_random_terms_deterministic_and_prefix_stable(langfunny):
    a = random_terms(langfunny, 50, seed=3)
    b = random_terms(langfunny, 50, seed=3)
    assert a == b
    assert random_terms(langfunny, 10, seed=3) == a[:10]
    assert random_terms(langfunny, 50, seed=4) != a


def test_random_terms_are_closed_members_within_budget(boollist):
    for t in random_terms(boollist, 200, seed=2, max_size=6):
        assert term_size(t) <= 6
        assert free_vars(t) == frozenset()
        assert member(t, "Expression", boollist)


def test_swarm_terms_deterministic_and_well_formed(langfunny):
    a = list(islice(iter_swarm_terms(langfunny, seed=5, max_size=9), 80))
    b = list(islice(iter_swarm_terms(langfunny, seed=5, max_size=9), 80))
    assert a == b
    for t in a:
        assert term_size(t) <= 9
        assert free_vars(t) == frozenset()
        assert member(t, "Expression", langfunny)


def test_swarm_reaches_wide_constructors(langfunny):
    heads = set()
    for t in islice(iter_swarm_terms(langfunny, seed=0, max_size=10), 1500):
        if isinstance(t, Constructor):
            heads.add(t.name)
    assert {"doublyApply", "addToPairAsList", "pair"} <= heads


def test_generation_fails_when_smallest_term_exceeds_budget(stlc):
    with pytest.raises(EngineError):
        random_terms(stlc, 1, max_size=2)


def fingerprint(terms, spec):
    """First 16 hex digits of the SHA-256 of the rendered terms, one a line."""
    digest = hashlib.sha256()
    for t in terms:
        digest.update((render_term(t, spec) + "\n").encode())
    return digest.hexdigest()[:16]


def test_seeded_term_streams_are_pinned(stlc, stlc_consts, langfunny):
    assert fingerprint(islice(iter_random_terms(stlc_consts, seed=0, max_size=9), 1000),
                       stlc_consts) == "0a6114130811bf70"
    assert fingerprint(islice(iter_swarm_terms(langfunny, seed=0, max_size=10), 1000),
                       langfunny) == "58d514590a24512a"
    assert fingerprint(cli.well_typed_terms(langfunny, 1000, 0, 10),
                       langfunny) == "d67d9ad44cc94597"
    # stlc has no constant leaf, so some narrowed grammars have no closed
    # term that fits and are drawn again.
    assert fingerprint(islice(iter_swarm_terms(stlc, seed=0, max_size=10), 1000),
                       stlc) == "d349436aaf0cb5ea"


def _draws(generate, spec, *args):
    """The first 100 terms generate yields, or the message of its error."""
    try:
        return list(islice(generate(spec, *args), 100))
    except EngineError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "name", ["app2", "boollist", "langfunny", "references", "stlc", "stlc_consts"])
def test_generator_draws_what_the_per_draw_sizing_oracle_draws(name):
    spec = load(name)
    for seed in (0, 1, 1001):
        for max_size in range(4, 13):
            args = (seed, max_size)
            assert _draws(iter_random_terms, spec, *args) \
                == _draws(oracle_iter_random_terms, spec, *args), args


@pytest.mark.parametrize(
    "name", ["app2", "boollist", "langfunny", "references", "stlc", "stlc_consts"])
def test_swarm_draws_what_the_restricted_spec_oracle_draws(name):
    # The oracle narrows a grammar by building a spec and draws through
    # Random.choice and Random.randint, so this pins both the masks and the
    # plan's own uniform draw against the standard library.
    spec = load(name)
    for seed in (0, 1, 1001):
        for max_size in range(4, 13):
            args = (seed, max_size)
            assert _draws(iter_swarm_terms, spec, *args) \
                == _draws(oracle_iter_swarm_terms, spec, *args), args


# Expression reaches Value and Value reaches Expression, so a mask over
# Expression changes Value's sizes and choices too.
CYCLIC_VALUES = """language cyclic

variables x

grammar
  Type T ::= B | (arrow T T)
  Expression e ::= x | v | (lam x T e) | (box e) | (app e e) | (fst e)
  Value v ::= (lam x T e) | (box v)

binder lam 1
"""


def test_swarm_masks_every_category_of_the_expression_cycle():
    spec = parse_spec(CYCLIC_VALUES, filename="cyclic.lang")
    for seed in (0, 1, 1001):
        for max_size in range(4, 13):
            args = (seed, max_size)
            assert _draws(iter_swarm_terms, spec, *args) \
                == _draws(oracle_iter_swarm_terms, spec, *args), args
    plan = spec.derived(engine._GenerationPlan)
    assert plan.cycle == ("Expression", "Value")
    # A mask refits Value's sizes with Expression's, never Type's, and every
    # mask shares Type's choices with the whole grammar.
    unmasked, whole = plan.size_tables[None], plan.masks[None]
    assert any(sizes[1]["Value"] != unmasked[1]["Value"] for sizes in plan.size_tables.values())
    assert all(sizes[closed]["Type"] == unmasked[closed]["Type"]
               for sizes in plan.size_tables.values() for closed in (False, True))
    assert all(choices[plan.indices["Type", closed]] is whole[plan.indices["Type", closed]]
               for choices in plan.masks.values() for closed in (False, True))


def test_swarm_sizes_each_mask_once(monkeypatch):
    calls = 0
    sized = engine._production_size

    def counted(*args):
        nonlocal calls
        calls += 1
        return sized(*args)

    masks = []
    size_mask = engine._GenerationPlan.size_mask

    def fitted(plan, kept):
        masks.append(kept)
        return size_mask(plan, kept)

    monkeypatch.setattr(engine, "_production_size", counted)
    monkeypatch.setattr(engine._GenerationPlan, "size_mask", fitted)
    spec = load("langfunny")
    for _ in islice(iter_swarm_terms(spec, seed=0, max_size=10), 10000):
        pass
    plan = spec.derived(engine._GenerationPlan)
    assert plan.cycle == ("Expression",)
    assert len(masks) == len(set(masks)) > 100
    assert set(masks) == set(plan.size_tables) - {None}
    # Sizing a new spec per narrowed grammar made 48,987 calls.
    assert calls <= 12000


def test_swarm_compiles_each_production_once_per_size_table(monkeypatch):
    # Every langfunny mask keeps a constant leaf, which reaches Expression's
    # smallest closed and open sizes, so all masks share the unmasked table,
    # and each node of each production is compiled once, for open and closed
    # terms together.  Compiling per mask made about 2,600 calls per
    # 5,000-term compare.
    calls = []
    compile_ = engine._GenerationPlan.compile

    def recorded(plan, sizes, p, kids):
        calls.append((p, id(sizes)))
        return compile_(plan, sizes, p, kids)

    monkeypatch.setattr(engine._GenerationPlan, "compile", recorded)
    spec = load("langfunny")
    for _ in islice(iter_swarm_terms(spec, seed=0, max_size=10), 10000):
        pass
    plan = spec.derived(engine._GenerationPlan)
    unmasked = plan.size_tables[None]
    assert len(plan.masks) > 100
    assert all(sizes is unmasked for sizes in plan.size_tables.values())
    assert sorted(calls, key=repr) == sorted(
        {(s, id(unmasked)) for cat in spec.categories for p in cat.productions
         if not isinstance(p, Hole) for s in subterms(p)}, key=repr)


def test_generation_sizes_productions_once_per_spec(monkeypatch):
    calls = 0
    sized = engine._production_size

    def counted(*args):
        nonlocal calls
        calls += 1
        return sized(*args)

    monkeypatch.setattr(engine, "_production_size", counted)
    counts = []
    for draws in (1000, 10000):
        calls = 0
        spec = load("langfunny")
        for _ in islice(iter_random_terms(spec, seed=0, max_size=10), draws):
            pass
        counts.append(calls)
    assert counts[0] == counts[1] > 0


def test_a_closed_stream_frees_its_random_without_the_collector(monkeypatch):
    made = []

    class Recorded(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(engine.random, "Random", Recorded)
    spec = load("langfunny")
    gc.disable()
    try:
        stream = iter_swarm_terms(spec, seed=0, max_size=10)
        for _ in islice(stream, 2500):
            pass
        drawing = sum(r() is not None for r in made)
        del stream
        closed = sum(r() is not None for r in made)
    finally:
        gc.enable()
    # The swarm's own Random and the open chunk's; each of the other 99
    # chunks' stayed in a reference cycle until the collector ran.
    assert len(made) == 101
    assert (drawing, closed) == (2, 0)


def test_generation_plans_are_freed_with_their_specs():
    # A compare draws about 140 narrowed grammars, all masks over the spec's
    # one plan; a plan in a reference cycle would outlive its spec until the
    # cycle collector ran.
    gc.disable()
    try:
        spec = load("langfunny")
        for _ in islice(iter_swarm_terms(spec, seed=0, max_size=10), 500):
            pass
        plan = spec.__dict__[engine._GenerationPlan]
        assert any(kept is not None for kept in plan.masks)
        plan = weakref.ref(plan)
        del spec
        assert plan() is None
    finally:
        gc.enable()
