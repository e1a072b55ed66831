import dataclasses
import json

import pytest

from conftest import load
from langx import cli
from langx.ck import (
    AmbiguousStart,
    BadContext,
    ContinuationOp,
    NoFinalContinuation,
    NoPlugRule,
    NoStart,
    OrderAmbiguity,
    PatternMismatch,
    continuation_ops,
    derive_ck,
    generate_continuation_grammar,
    generate_start_rule,
)
from langx.engine import MT, ck_eval, evaluate, is_value, is_value_pattern
from langx.ir import (
    Constructor,
    GrammarCategory,
    Hole,
    MachineConfig,
    MachineStep,
    Metavariable,
    Typing,
)
from langx.parser import parse_spec, parse_term, print_spec, render_formula
from oracles import enumerate_closed_terms


def machine_names(spec):
    return [r.name for r in spec.rules if isinstance(r.conclusion, MachineStep)]


def rule_text(spec, name):
    rule = next(r for r in spec.rules if r.name == name)
    return render_formula(rule.conclusion, spec)


# -- continuation constructors -----------------------------------------------

def test_continuation_ops_shapes(stlc):
    ops = continuation_ops(stlc)
    assert ops == {"app": [
        ContinuationOp("app", 1, ((2, "e"),)),
        ContinuationOp("app", 2, ((1, "v"),)),
    ]}
    assert [c.name for c in ops["app"]] == ["app_1", "app_2"]


def test_continuation_grammar(stlc):
    cat = generate_continuation_grammar(stlc)
    assert cat.name == "Continuation"
    assert cat.metavariable == "k"
    e = Metavariable("e", None, "Expression")
    v = Metavariable("v", None, "Value")
    k = Metavariable("k", None, "Continuation")
    assert cat.productions == (
        Constructor("mt"),
        Constructor("app_1", (e, k)),
        Constructor("app_2", (v, k)),
    )


# -- rule shapes on the smallest fixture ---------------------------------------

def test_stlc_machine_rule_text(stlc):
    derived = derive_ck(stlc)
    assert machine_names(derived) == ["app-start", "app-order-1", "app-comp-1"]
    assert rule_text(derived, "app-start") == \
        "<(app e1 e2) , k> --> <e1 , (app_1 e2 k)>"
    assert rule_text(derived, "app-order-1") == \
        "<v1 , (app_1 e2 k)> --> <e2 , (app_2 v1 k)>"
    assert rule_text(derived, "app-comp-1") == \
        "<v , (app_2 (lam x T e) k)> --> <e[v/x] , k>"


def test_computation_rule_keeps_source_patterns(boollist):
    derived = derive_ck(boollist)
    # reduction patterns are copied, not freshly named
    assert rule_text(derived, "hd-comp-1") == \
        "<(cons v1 v2) , (hd_1 k)> --> <v1 , k>"
    assert rule_text(derived, "and-comp-1") == "<v , (and_2 t k)> --> <v , k>"
    assert rule_text(derived, "and-comp-2") == "<v , (and_2 f k)> --> <f , k>"


def test_value_former_gets_plug_rule(boollist):
    derived = derive_ck(boollist)
    assert rule_text(derived, "cons-plug") == \
        "<v2 , (cons_2 v1 k)> --> <(cons v1 v2) , k>"
    # hd is not a value former and has a reduction: no plug rule
    assert "hd-plug" not in machine_names(derived)


# -- output spec structure -----------------------------------------------------

def test_derived_spec_structure(langfunny):
    derived = derive_ck(langfunny)
    assert [c.name for c in derived.categories] == \
        ["Type", "Expression", "Value", "Continuation"]
    assert derived.context_name is None
    assert derived.context_category is None
    assert derived.reduction_rules() == ()
    assert derived.typing_rules() == langfunny.typing_rules()
    assert machine_names(derived) == [
        "app-start", "app-order-1", "app-comp-1",
        "pair-start", "pair-order-1", "pair-plug",
        "doublyApply-start", "doublyApply-order-1", "doublyApply-order-2",
        "doublyApply-order-3", "doublyApply-comp-1",
        "addToPairAsList-start", "addToPairAsList-order-1",
        "addToPairAsList-comp-1",
    ]


def test_derived_spec_round_trips(stlc, langfunny, boollist):
    for spec in (stlc, langfunny, boollist):
        derived = derive_ck(spec)
        assert parse_spec(print_spec(derived)) == derived


def test_derive_twice_rejected(stlc):
    with pytest.raises(BadContext):
        derive_ck(derive_ck(stlc))


def test_rule_counts_per_operator(stlc, langfunny, boollist):
    for spec in (stlc, langfunny, boollist):
        ops = continuation_ops(spec)
        reductions = {}
        for r in spec.reduction_rules():
            lhs = r.conclusion.lhs
            if isinstance(lhs, Constructor) and lhs.name in ops:
                reductions.setdefault(lhs.name, []).append(r)
        names = machine_names(derive_ck(spec))
        vbase = spec.value_category.metavariable
        for op, conts in ops.items():
            arity = spec.constructor_arities()[op]
            saturated = Constructor(op, tuple(
                Metavariable(vbase, str(i), spec.value_category.name)
                for i in range(1, arity + 1)))
            n_red = len(reductions.get(op, ()))
            assert names.count(f"{op}-start") == 1
            assert sum(1 for n in names if n.startswith(f"{op}-order-")) == \
                len(conts) - 1
            assert sum(1 for n in names if n.startswith(f"{op}-comp-")) == n_red
            wants_plug = not n_red and is_value_pattern(saturated, spec)
            assert names.count(f"{op}-plug") == (1 if wants_plug else 0)


# -- machine execution ---------------------------------------------------------

def test_machine_trace_on_nested_term(langfunny):
    derived = derive_ck(langfunny)
    term = parse_term("(doublyApply (lam x B x) (lam x1 B x1) c1 c2)",
                      langfunny, concrete=True)
    value, trace = ck_eval(MachineConfig(term, MT), derived)
    assert value == parse_term("(pair c1 c2)", langfunny, concrete=True)
    names = [t.rule_name for t in trace]
    assert names[:5] == [
        "doublyApply-start", "doublyApply-order-1", "doublyApply-order-2",
        "doublyApply-order-3", "doublyApply-comp-1",
    ]
    assert names[-1] == "pair-plug"
    for t in trace:
        if t.rule_name.endswith("-start"):
            assert t.kind == "machine-start"
        elif "-order-" in t.rule_name:
            assert t.kind == "machine-order"
        elif "-comp-" in t.rule_name:
            assert t.kind == "machine-computation"
        else:
            assert t.kind == "machine-plug"
    small, _ = evaluate(term, langfunny)
    assert small == value


def test_contextless_reduction_becomes_direct_rule():
    spec = parse_spec("""\
language direct

variables x

grammar
  Expression e ::= x | c | (f e e) | (wrap e)
  Value v ::= c
  Context E ::= [.] | (f E e) | (f v E)

rule r-f
  --------------------------------
  (f v1 v2) --> v1

rule r-wrap
  --------------------------------
  (wrap v) --> v
""")
    derived = derive_ck(spec)
    assert machine_names(derived) == \
        ["f-start", "f-order-1", "f-comp-1", "wrap-comp-1"]
    assert rule_text(derived, "wrap-comp-1") == "<(wrap v) , k> --> <v , k>"
    term = parse_term("(f (wrap c) c)", spec, concrete=True)
    value, trace = ck_eval(MachineConfig(term, MT), derived)
    assert value == Constructor("c")
    assert "wrap-comp-1" in [t.rule_name for t in trace]


def test_context_op_without_reduction_or_value_form_gets_no_rules_beyond_start():
    spec = parse_spec("""\
language noplug

variables x

grammar
  Expression e ::= x | c | (h e)
  Value v ::= c
  Context E ::= [.] | (h E)
""")
    derived = derive_ck(spec)
    assert machine_names(derived) == ["h-start"]


# Values include numbers through a unit production, so a number pattern is a
# value although no Value production names its head.
NUMS = """\
language nums

variables x

grammar
  Type T ::= N | (arrow T T)
  Number n ::= zero | (succ n)
  Value v ::= n | (lam x T e)
  Expression e ::= x | zero | (succ e) | (pred e) | (lam x T e) | (app e e)
  Context E ::= [.] | (pred E) | (app E e) | (app v E)

binder lam 1

rule pred-succ
  --------------------------------
  (pred (succ n1)) --> n1

rule pred-zero
  --------------------------------
  (pred zero) --> zero

rule beta
  --------------------------------
  (app (lam x T e) v) --> e[v/x]
"""


def test_value_patterns_are_values_by_the_grammar(capsys, tmp_path):
    nums = parse_spec(NUMS)
    for spec, size in [(nums, 7), *((load(name), 5) for name in
                                    ("stlc", "stlc_consts", "langfunny", "boollist"))]:
        for cat in spec.categories:
            for g in enumerate_closed_terms(spec, size, cat.name):
                assert is_value_pattern(g, spec) == is_value(g, spec), g
    assert machine_names(derive_ck(nums)) == [
        "pred-start", "pred-comp-1", "pred-comp-2",
        "app-start", "app-order-1", "app-comp-1"]
    path = tmp_path / "nums.lang"
    path.write_text(NUMS)
    code = cli.main(["compare", str(path), "--count", "2000", "--max-size", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("2000/2000 agree\n")


# -- rejected inputs -----------------------------------------------------------

def test_an_operator_forming_values_no_plug_rule_rebuilds_is_refused(capsys, tmp_path):
    # (succ v1) is no value pattern, as Value reaches succ only through
    # Number.  Without a succ-plug rule the machine stuck at
    # <zero , (succ_1 mt)> where small-step gives (succ zero).
    text = NUMS.replace("(pred E)", "(succ E) | (pred E)")
    with pytest.raises(NoPlugRule) as info:
        derive_ck(parse_spec(text))
    assert info.value.op == "succ"
    message = str(info.value)
    path = tmp_path / "succ.lang"
    path.write_text(text)
    for command in ("derive-ck", "compare"):
        for form in ([], ["--format", "structured"]):
            code = cli.main([*form, command, str(path)])
            out, err = capsys.readouterr()
            assert code == 2
            if form:
                assert err == ""
                assert [json.loads(line) for line in out.splitlines()] == [
                    {"kind": "error", "message": message}]
            else:
                assert (out, err) == ("", message + "\n")


def test_no_start_when_every_context_expects_a_value():
    spec = parse_spec("""\
language nostart

variables x

grammar
  Expression e ::= x | c | (f e e)
  Value v ::= c
  Context E ::= [.] | (f v E)

rule r-f
  --------------------------------
  (f v1 v2) --> v1
""")
    with pytest.raises(NoStart) as info:
        derive_ck(spec)
    assert info.value.op == "f"
    assert "'f'" in str(info.value)


def test_ambiguous_start_with_two_unevaluated_contexts():
    spec = parse_spec("""\
language ambig

variables x

grammar
  Expression e ::= x | c | (f e e)
  Value v ::= c
  Context E ::= [.] | (f E e) | (f e E)
""")
    with pytest.raises(AmbiguousStart) as info:
        derive_ck(spec)
    assert info.value.op == "f"


def test_order_ambiguity_when_value_vector_fits_two_contexts():
    spec = parse_spec("""\
language orderamb

variables x

grammar
  Expression e ::= x | c | (g e e e)
  Value v ::= c
  Context E ::= [.] | (g E e e) | (g v E e) | (g v e E)
""")
    with pytest.raises(OrderAmbiguity) as info:
        derive_ck(spec)
    assert info.value.op == "g"
    assert info.value.index == 1


def test_no_final_continuation_on_cyclic_contexts():
    spec = parse_spec("""\
language nofinal

variables x

grammar
  Expression e ::= x | c | (g e e)
  Value v ::= c
  Context E ::= [.] | (g E e) | (g v E) | (g E v)

rule r-g
  --------------------------------
  (g v1 v2) --> v1
""")
    with pytest.raises(NoFinalContinuation) as info:
        derive_ck(spec)
    assert info.value.op == "g"


def test_pattern_mismatch_at_evaluated_position():
    spec = parse_spec("""\
language patmis

variables x

grammar
  Expression e ::= x | c | (f e e)
  Value v ::= c
  Context E ::= [.] | (f E e) | (f v E)

rule r-f
  --------------------------------
  (f e1 v2) --> v2
""")
    with pytest.raises(PatternMismatch) as info:
        derive_ck(spec)
    assert info.value.op == "f"
    assert info.value.rule_name == "r-f"
    assert info.value.position == 1


def test_missing_context_category_rejected(references):
    with pytest.raises(BadContext) as info:
        continuation_ops(references)
    assert "no evaluation-context category" in str(info.value)
    with pytest.raises(BadContext):
        derive_ck(references)


def _with_context_productions(spec, productions):
    ctx = spec.context_category
    replaced = GrammarCategory(ctx.name, ctx.metavariable, productions)
    cats = tuple(replaced if c.name == ctx.name else c for c in spec.categories)
    return dataclasses.replace(spec, categories=cats)


def test_two_holes_rejected(stlc):
    E = Metavariable("E", None, "Context")
    broken = _with_context_productions(
        stlc, (Hole(), Constructor("app", (E, E))))
    with pytest.raises(BadContext) as info:
        continuation_ops(broken)
    assert "exactly one hole" in str(info.value)


def test_non_metavariable_slot_rejected(stlc):
    E = Metavariable("E", None, "Context")
    T = Metavariable("T", None, "Type")
    broken = _with_context_productions(
        stlc, (Hole(), Constructor("app", (E, T))))
    with pytest.raises(BadContext) as info:
        continuation_ops(broken)
    assert "expression or value" in str(info.value)


def test_non_constructor_context_production_rejected(stlc):
    broken = _with_context_productions(
        stlc, (Hole(), Metavariable("e", None, "Expression")))
    with pytest.raises(BadContext):
        continuation_ops(broken)


def test_start_rule_alone(stlc):
    ops = continuation_ops(stlc)
    rule = generate_start_rule("app", ops["app"], stlc)
    assert rule.name == "app-start"
    assert rule.premises == ()
    lhs = rule.conclusion.lhs
    assert lhs.focus == Constructor("app", (
        Metavariable("e", "1", "Expression"), Metavariable("e", "2", "Expression")))
    assert lhs.continuation == Metavariable("k", None, "Continuation")
