import collections
import hashlib
import random
import re
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langx import ir, parser
from langx.engine import MT, iter_swarm_terms
from langx.ir import (
    HOLE,
    BinderApp,
    Constructor,
    MachineConfig,
    Metavariable,
    Reduction,
    Subst,
    Typing,
    Var,
    formula_terms,
)
from langx.parser import (
    SpecParseError,
    parse_spec,
    parse_term,
    print_spec,
    render_formula,
    render_state,
    render_term,
)
from conftest import FIXTURES, GOLDEN

MINIMAL = """\
language mini

variables x

grammar
  Type T ::= B
  Expression e ::= x | c | (lam x T e) | (app e e)
  Value v ::= c | (lam x T e)
  Context E ::= [.] | (app E e) | (app v E)

binder lam 1

rule t-c
  --------------------------------
  G |- c : B

rule beta
  --------------------------------
  (app (lam x T e) v) --> e[v/x]
"""


def roundtrip(text):
    return print_spec(parse_spec(text))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lang")))
def test_fixture_roundtrip_bytes(path):
    text = path.read_text()
    assert roundtrip(text) == text


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.lang")))
def test_golden_roundtrip_bytes(path):
    text = path.read_text()
    assert roundtrip(text) == text


def test_minimal_parses():
    spec = parse_spec(MINIMAL)
    assert spec.name == "mini"
    assert spec.variables == ("x",)
    assert [c.name for c in spec.categories] == [
        "Type", "Expression", "Value", "Context"]
    assert [r.name for r in spec.rules] == ["t-c", "beta"]


def test_binder_production_shape():
    spec = parse_spec(MINIMAL)
    lam = spec.expression_category.productions[2]
    assert isinstance(lam, BinderApp)
    assert lam.binder == "lam"
    assert lam.bound_var == "x"
    assert len(lam.args) == 2


def test_reduction_rhs_subst():
    spec = parse_spec(MINIMAL)
    beta = spec.rules[1]
    assert isinstance(beta.conclusion, Reduction)
    rhs = beta.conclusion.rhs
    assert isinstance(rhs, Subst)
    assert rhs.var == "x"


def test_subst_requires_adjacent_bracket():
    # "e [v/x]" with a space is a parse error, not a quiet list
    bad = MINIMAL.replace("e[v/x]", "e [v/x]")
    with pytest.raises(SpecParseError):
        parse_spec(bad)


def test_list_sugar_desugars_and_resugars(langfunny):
    t = parse_term("[c1, c2, c3]", langfunny, concrete=True)
    assert t == Constructor("cons", (
        Constructor("c1"),
        Constructor("cons", (Constructor("c2"),
                             Constructor("cons", (Constructor("c3"),
                                                  Constructor("nil")))))))
    assert render_term(t, langfunny) == "[c1, c2, c3]"
    assert render_term(Constructor("nil"), langfunny) == "nil"


@pytest.mark.parametrize("productions", ["c | [] | (cons e e)", "c | [e]"])
def test_list_sugar_in_a_production_declares_the_constructors_it_builds(productions):
    # The rule names nil, which only the sugar declares; with [e], cons too.
    text = f"""\
language sugar

grammar
  Expression e ::= {productions}

rule cons-nil
  --------------------------------
  (cons c nil) --> c
"""
    spec = parse_spec(text)
    assert spec.reduction_rules()[0].conclusion.lhs == Constructor(
        "cons", (Constructor("c"), Constructor("nil")))
    assert parse_spec(print_spec(spec)) == spec


def test_cons_chain_without_nil_tail_not_sugared(langfunny):
    t = parse_term("(cons c1 c2)", langfunny, concrete=True)
    assert render_term(t, langfunny) == "(cons c1 c2)"


@pytest.mark.parametrize("name", ["langfunny", "stlc", "boollist", "references"])
def test_rendering_through_ropes_gives_the_same_text(monkeypatch, name):
    # Past parser._ROPE_AT characters a node's text is a rope; at 0 every
    # node with children is one, lists, binders and substitutions included.
    spec = parse_spec((FIXTURES / f"{name}.lang").read_text())
    terms = list(islice(iter_swarm_terms(spec, seed=1, max_size=12), 300))
    terms.append(parse_term("(cons c1 (cons c2 [c3, c1]))", spec)
                 if name == "langfunny" else HOLE)
    texts = [render_term(t, spec) for t in terms]
    printed = print_spec(spec)
    monkeypatch.setattr(parser, "_ROPE_AT", 0)
    assert [render_term(t, spec) for t in terms] == texts
    assert print_spec(spec) == printed


def test_parse_term_rule_mode_vs_concrete(stlc):
    pattern = parse_term("(app (lam x T e) v)", stlc)
    assert isinstance(pattern.args[0].args[0], Metavariable)
    with pytest.raises(SpecParseError):
        parse_term("(app e1 e2)", stlc, concrete=True)


def test_parse_term_variables(stlc):
    t = parse_term("(lam x B x)", stlc, concrete=True)
    assert t.args[1] == Var("x")
    with pytest.raises(SpecParseError):
        parse_term("y", stlc, concrete=True)


def test_parse_term_rejects_a_substitution_in_program_text():
    spec = parse_spec(MINIMAL)
    assert isinstance(parse_term("e[e/x]", spec), Subst)
    with pytest.raises(SpecParseError, match="1:2: error: substitution"):
        parse_term("c[c/x]", spec, concrete=True)


def test_parse_term_rejects_a_context_hole_in_program_text():
    spec = parse_spec(MINIMAL)
    assert parse_term("(app [.] c)", spec) == Constructor("app", (HOLE, Constructor("c")))
    for text, col in (("[.]", 1), ("(app [.] c)", 6)):
        with pytest.raises(SpecParseError, match=f"1:{col}: error: context hole"):
            parse_term(text, spec, concrete=True)


def test_render_state_shows_a_term_or_a_configuration(boollist):
    t = parse_term("(hd nil)", boollist, concrete=True)
    assert render_state(t, boollist) == "(hd nil)"
    assert render_state(MachineConfig(t, MT), boollist) == "<(hd nil) , mt>"


def test_machine_config_formula(stlc):
    spec = parse_spec(print_spec(stlc))
    assert spec == stlc


def test_render_formula_shapes(references):
    t_if = next(r for r in references.rules if r.name == "t-if")
    assert render_formula(t_if.conclusion, references) == \
        "G |- (if e1 e2 e3) : T"
    assert render_formula(t_if.premises[0], references) == "G |- e1 : Bool"


def test_comments_and_blank_lines_ignored():
    commented = MINIMAL.replace("language mini",
                                "# leading comment\nlanguage mini")
    commented = commented.replace("  Type T ::= B",
                                  "  Type T ::= B  # trailing comment")
    assert parse_spec(commented) == parse_spec(MINIMAL)


def errors_of(text):
    with pytest.raises(SpecParseError) as info:
        parse_spec(text)
    return [str(e) for e in info.value.errors]


def test_duplicate_rule_name():
    msgs = errors_of(MINIMAL + "\nrule t-c\n" + "  " + "-" * 32 + "\n  G |- c : B\n")
    assert any("t-c" in m and "duplicate" in m for m in msgs)


def test_arity_mismatch_reported():
    bad = MINIMAL.replace("(app (lam x T e) v) --> e[v/x]",
                          "(app (lam x T e) v c) --> e[v/x]")
    msgs = errors_of(bad)
    assert any("'app' used with arities 2 and 3" in m for m in msgs)


def test_nonlinear_lhs_rejected():
    bad = MINIMAL + "\nrule twice\n  " + "-" * 32 + "\n  (app e e) --> e\n"
    assert any("e" in m for m in errors_of(bad))


def test_rhs_out_of_scope_rejected():
    bad = MINIMAL + "\nrule oops\n  " + "-" * 32 + "\n  (app e1 e2) --> e3\n"
    assert any("e3" in m for m in errors_of(bad))


def test_unknown_token_reported_with_span():
    bad = MINIMAL.replace("G |- c : B", "G |- q : B")
    msgs = errors_of(bad)
    assert any("q" in m and ":" in m for m in msgs)


def test_multiple_errors_collected():
    bad = MINIMAL.replace("G |- c : B", "G |- q : B") \
                 .replace("(app (lam x T e) v)", "(app (lam x T e) v c)")
    assert len(errors_of(bad)) >= 2


def test_hole_outside_context_category_rejected():
    bad = MINIMAL.replace("Expression e ::= x | c",
                          "Expression e ::= x | c | [.]")
    msgs = errors_of(bad)
    assert any("hole" in m.lower() for m in msgs)


def test_substitution_in_a_production_rejected():
    # The term generator would yield such a production as it stands,
    # metavariables and all.
    bad = MINIMAL.replace("(app e e)\n", "(app e e) | e[e/x]\n")
    assert any("production 'e[e/x]' contains a substitution" in m
               for m in errors_of(bad))


def test_context_missing_hole_rejected():
    bad = MINIMAL.replace("(app E e) | (app v E)", "(app e e)")
    msgs = errors_of(bad)
    assert any("hole" in m.lower() or "context" in m.lower() for m in msgs)


@pytest.mark.parametrize("production", ["(unwrap (wrap E))", "(lam x T E)"])
def test_context_hole_must_be_a_direct_operator_argument(production):
    # decompose and derive-ck find the hole among an operator's direct
    # arguments only, so a nested hole or a binder context is refused
    bad = MINIMAL.replace("Expression e ::= x | c",
                          "Expression e ::= x | c | (wrap e) | (unwrap e)") \
                 .replace("(app v E)", f"(app v E) | {production}")
    msgs = errors_of(bad)
    assert any(f"context production {production!r}" in m
               and "hole as a direct argument" in m for m in msgs)


def test_variance_unknown_mark_rejected():
    bad = MINIMAL + "\nvariance\n  lam : sideways co\n"
    assert errors_of(bad)


def test_default_variance_fills_an_undeclared_arrow():
    text = (FIXTURES / "stlc.lang").read_text()
    undeclared = text.replace("variance\n  arrow : contra co\n\n", "")
    assert "variance" not in undeclared
    spec = parse_spec(undeclared)
    assert spec.variance == {"arrow": ("contra", "co")}
    assert print_spec(spec) == text
    assert parse_spec(print_spec(spec)) == spec


def test_default_variance_needs_the_default_arity():
    bad = MINIMAL.replace("Type T ::= B", "Type T ::= B | (prod T T T)") \
        .replace("G |- c : B", "G |- c : (prod B B B)")
    msgs = errors_of(bad)
    assert any("missing variance entry for type constructor 'prod'" in m for m in msgs)


def test_base_subtype_cycle_rejected():
    bad = MINIMAL.replace("Type T ::= B", "Type T ::= B | C") \
        + "\nsubtype-base\n  B <: C\n  C <: B\n"
    msgs = errors_of(bad)
    assert any("cycl" in m.lower() or "antisym" in m.lower() for m in msgs)


def test_value_not_generated_by_expression_rejected():
    bad = MINIMAL.replace("Value v ::= c | (lam x T e)",
                          "Value v ::= c | (lam x T e) | (box e)")
    assert errors_of(bad)


def test_duplicate_env_binding_rejected():
    bad = MINIMAL + (
        "\nrule t-dup\n  G, x : T1, x : T2 |- e : T1\n  "
        + "-" * 32 + "\n  G |- (lam x T1 e) : T1\n")
    msgs = errors_of(bad)
    assert any("repeats a variable" in m for m in msgs)


def test_separator_always_printed(stlc):
    text = print_spec(stlc)
    assert text.count("-" * 32) == len(stlc.rules)


def test_print_canonical_section_order(langfunny):
    text = print_spec(langfunny)
    keywords = [line.split()[0] for line in text.splitlines()
                if line and not line[0].isspace()]
    assert keywords == ["language", "variables", "grammar", "binder",
                        "variance"] + ["rule"] * len(langfunny.rules)


# ---------------------------------------------------------------------------
# constructor names, and mutated specs


STLC_TEXT = (FIXTURES / "stlc.lang").read_text()
STLC_EXPRESSIONS = "  Expression e ::= x | (lam x T e) | (app e e)\n"


def stlc_with_production(production):
    assert STLC_TEXT.count(STLC_EXPRESSIONS) == 1
    return STLC_TEXT.replace(STLC_EXPRESSIONS,
                             STLC_EXPRESSIONS[:-1] + f" | {production}\n")


@pytest.mark.parametrize("production,message", [
    ("(T)", "constructor name 'T' is a metavariable token"),
    ("(e)", "constructor name 'e' is a metavariable token"),
    ("(x)", "constructor name 'x' is a variable token"),
    ("(T e)", "constructor name 'T' is a metavariable token"),
])
def test_a_constructor_named_by_a_metavariable_or_variable_token_is_refused(
        production, message):
    # A nullary constructor T would shadow the Type metavariable in every
    # rule, and the printed production would read back as the metavariable.
    with pytest.raises(SpecParseError) as info:
        parse_spec(stlc_with_production(production), "stlc.lang")
    column = len(STLC_EXPRESSIONS.rstrip()) + len(" | (") + 1
    assert [str(e) for e in info.value.errors] == [
        f"stlc.lang:7:{column}: error: {message}"]


def test_a_binder_named_by_a_metavariable_token_is_refused():
    bad = MINIMAL.replace("binder lam 1", "binder lam 1\nbinder e 1") \
                 .replace("(app e e)", "(app e e) | (e x T e)")
    assert any("binder name 'e' is a metavariable token" in m for m in errors_of(bad))


# Edits of stlc that each reach one diagnostic of parse_spec.  "joins fewer
# than two operands" has no case: the parser reads T = T1 as a TypeEq.
STLC_EDITS = {
    "indented-first-line": (lambda t: "  " + t,
                            "1:1: error: indented line before any block"),
    "contexts-two-names": (
        lambda t: t.replace("binder lam 1\n", "binder lam 1\n\ncontexts A B\n"),
        "13:1: error: contexts directive takes one category name"),
    "contexts-unknown": (
        lambda t: t.replace("binder lam 1\n", "binder lam 1\n\ncontexts Ctx\n"),
        "1:1: error: contexts directive names unknown category 'Ctx'"),
    "metavariable-variable": (
        lambda t: t.replace("variables x\n", "variables x T\n"),
        "6:1: error: metavariable 'T' collides with a variable token"),
    "step-with-typing-premise": (
        lambda t: t.replace("rule beta\n", "rule beta\n  G |- e : T\n"),
        "27:1: error: rule 'beta' concludes a step but has a non-step premise"),
    "lhs-substitution": (
        lambda t: t.replace("(app (lam x T e) v) --> e[v/x]", "e[v/x] --> e"),
        "27:1: error: rule 'beta' has a substitution on its left-hand side"),
    "reflexive-base-pair": (lambda t: t + "\nsubtype-base\n  B <: B\n",
                            "1:1: error: subtype-base pair B <: B is reflexive"),
    "substitution-variable": (
        lambda t: t.replace("e[v/x]", "e[v/y]"),
        "29:31: error: substitution variable 'y' is not a declared variable token"),
    "binder-position": (
        lambda t: t.replace("binder lam 1", "binder lam 5"),
        "7:25: error: binder 'lam' needs a bound variable at position 5"),
}


@pytest.mark.parametrize("edit,message", STLC_EDITS.values(), ids=STLC_EDITS)
def test_an_edited_stlc_is_refused_with_its_diagnostic(edit, message):
    with pytest.raises(SpecParseError) as info:
        parse_spec(edit(STLC_TEXT), "stlc.lang")
    assert f"stlc.lang:{message}" in [str(e) for e in info.value.errors]


SPEC_FILES = sorted(FIXTURES.glob("*.lang")) + sorted(GOLDEN.glob("*.lang"))
SPEC_TEXTS = [path.read_text() for path in SPEC_FILES]
INSERTED_TOKENS = (
    "(", ")", "[", "]", "[.]", "|", "::=", "-->", "<:", "|-", "\\/", ",", ":",
    "=", "/", "<", ">", "e", "v", "T", "E", "x", "x1", "lam", "app", "nil",
    "rule", "grammar", "variance", "co", " ", "\n", "\t", "#", "-" * 32, "?",
)


def mutate(text, rng):
    """text with one mutation: some characters deleted, a token inserted, or
    a line duplicated."""
    kind = rng.randrange(3)
    if kind == 0:
        start = rng.randrange(len(text))
        return text[:start] + text[start + rng.randint(1, 8):]
    if kind == 1:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(INSERTED_TOKENS) + text[at:]
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    return "\n".join(lines[:at + 1] + lines[at:])


def parse_outcome(text):
    """The diagnostics of a spec text, or its printed form if it parses."""
    try:
        return print_spec(parse_spec(text, "mutant.lang"))
    except SpecParseError as e:
        return str(e)


def test_diagnostics_of_mutated_specs_are_unchanged():
    # Pins every diagnostic, its span and their order, and every printed
    # spec, across 1,000 mutants of the fixtures and goldens.
    rng = random.Random(13)
    digest = hashlib.sha256()
    outcomes = {"parsed": 0, "refused": 0}
    for _ in range(1000):
        out = parse_outcome(mutate(rng.choice(SPEC_TEXTS), rng))
        outcomes["refused" if "error:" in out else "parsed"] += 1
        digest.update(out.encode() + b"\0")
    assert min(outcomes.values()) > 100
    assert digest.hexdigest() == "484506947fd775e42622239a804d4e3e8850e0dd7263e64f96aa50a371928e24"


TERM_SPECS = [parse_spec((FIXTURES / f"{name}.lang").read_text())
              for name in ("stlc_consts", "boollist", "langfunny")]


def mutate_term(text, spec, rng):
    """text with one edit: characters deleted, a character or spec token
    inserted, two characters swapped, or a word replaced by a spec token."""
    tokens = [*spec.constructor_arities(), *spec.binders, *spec.variables,
              *(c.metavariable + rng.choice(("", "1", "'")) for c in spec.categories),
              "(", ")", "[", "]", "[.]", ",", "/", " ", "x1", "?"]
    kind = rng.randrange(4)
    at = rng.randrange(len(text))
    if kind == 0:
        return text[:at] + text[at + rng.randint(1, 4):]
    if kind == 1:
        return text[:at] + rng.choice([*tokens, text[rng.randrange(len(text))]]) + text[at:]
    if kind == 2:
        other = rng.randrange(len(text))
        chars = list(text)
        chars[at], chars[other] = chars[other], chars[at]
        return "".join(chars)
    words = text.split(" ")
    words[rng.randrange(len(words))] = rng.choice(tokens)
    return " ".join(words)


def term_outcome(text, spec, concrete):
    """The rendered term a text parses to, or its diagnostics with their
    lines and columns."""
    try:
        return render_term(parse_term(text, spec, concrete=concrete), spec)
    except SpecParseError as e:
        return str(e)


def test_parses_of_mutated_terms_are_unchanged():
    # Pins every parsed term and every diagnostic with its span, in concrete
    # and rule mode, across 1,000 mutants of rendered swarm terms.
    rng = random.Random(23)
    texts = [(spec, render_term(t, spec)) for spec in TERM_SPECS
             for t in islice(iter_swarm_terms(spec, seed=5, max_size=10), 100)]
    digest = hashlib.sha256()
    outcomes = {"parsed": 0, "refused": 0}
    for _ in range(1000):
        spec, text = rng.choice(texts)
        mutant = mutate_term(text, spec, rng)
        for concrete in (True, False):
            out = term_outcome(mutant, spec, concrete)
            outcomes["refused" if "error:" in out else "parsed"] += 1
            digest.update(out.encode() + b"\0")
    assert min(outcomes.values()) > 200
    assert digest.hexdigest() == "29fb41bf9987be97a1a34dd6030b028468a0da204f9877ea1ea1794f5c978034"


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lang")), ids=lambda p: p.stem)
def test_a_rendered_swarm_term_parses_back_to_itself(path):
    spec = parse_spec(path.read_text())
    assert spec.expression_category is not None
    for t in islice(iter_swarm_terms(spec, max_size=10), 2000):
        assert parse_term(render_term(t, spec), spec, concrete=True) is t


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_every_spec_term_parses_back_to_itself_in_rule_mode(path):
    spec = parse_spec(path.read_text())
    terms = [p for cat in spec.categories for p in cat.productions]
    terms += [t for rule in spec.rules for f in (*rule.premises, rule.conclusion)
              for t in formula_terms(f)]
    for t in terms:
        again = parse_term(render_term(t, spec), spec)
        # a substitution is a plain record; every other node is interned
        assert again == t if isinstance(t, Subst) else again is t


@settings(deadline=None)
@given(st.builds(mutate, st.sampled_from(SPEC_TEXTS), st.randoms(use_true_random=False)))
@example(stlc_with_production("(T)"))
def test_a_mutated_spec_is_refused_or_reads_back_from_its_print(text):
    try:
        spec = parse_spec(text)
    except SpecParseError:
        return
    assert parse_spec(print_spec(spec)) == spec


# ---------------------------------------------------------------------------
# work done once per parse


LANGFUNNY_CK = (GOLDEN / "langfunny.ck.lang").read_text()


def test_each_distinct_identifier_is_resolved_at_most_twice(monkeypatch):
    # once as a production leaf or name, once as a rule leaf
    identifiers = {
        word for line in LANGFUNNY_CK.splitlines() if line[:1].isspace()
        for word in re.findall(r"[A-Za-z_][A-Za-z0-9_']*", line.split("#")[0])}
    assert len(identifiers) == 47
    resolved = collections.Counter()
    real = parser.find_metavariable

    def counting(token, categories):
        resolved[token] += 1
        return real(token, categories)

    monkeypatch.setattr(parser, "find_metavariable", counting)
    parse_spec(LANGFUNNY_CK)
    assert set(resolved) <= identifiers
    assert max(resolved.values()) <= 2


def test_the_parser_walks_each_term_of_a_spec_at_most_once(monkeypatch):
    # ir's constructor_arities table, kept on the spec for later users,
    # is not the parser's walk
    walked = []
    real = ir.subterms

    def counting(t):
        walked.append(t)
        return real(t)

    monkeypatch.setattr(parser, "subterms", counting)
    spec = parse_spec(LANGFUNNY_CK)
    terms = [p for cat in spec.categories for p in cat.productions]
    terms += [t for rule in spec.rules for f in (*rule.premises, rule.conclusion)
              for t in formula_terms(f)]
    assert len(terms) == 128
    assert len({id(t) for t in walked}) == len(walked) <= len(terms)
