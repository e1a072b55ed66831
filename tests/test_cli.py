import contextlib
import io
import json
import runpy
import string
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, GOLDEN, load, swapped_order_machine_text
from langx import cli, engine
from langx.ck import derive_ck
from langx.engine import MT, ck_eval, evaluate, iter_swarm_terms, member
from langx.ir import MachineConfig, subterms
from langx.parser import SpecParseError, parse_spec, parse_term, print_spec, render_term
from oracles import oracle_compare, oracle_print_trace


def fix(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------------

def test_check_valid_spec(capsys):
    code, out, err = run(capsys, "check", fix("stlc.lang"))
    assert code == 0
    assert out == "stlc: valid\n"
    assert err == ""


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", fix("nope.lang"))
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("structured", [False, True])
def test_check_refuses_typing_rules_that_are_not_syntax_directed(capsys, tmp_path,
                                                                 structured):
    # Two typing rules conclude ci: compare refuses such a spec, so check
    # must not call it valid.
    spec = tmp_path / "twice.lang"
    spec.write_text((FIXTURES / "stlc_consts.lang").read_text() + """
rule t-ci-float
  --------------------------------
  G |- ci : float
""")
    form = ["--format", "structured"] if structured else []
    code, out, err = run(capsys, *form, "check", str(spec))
    assert code == 1
    message = "more than one typing rule concludes a ci subject"
    if structured:
        assert err == ""
        assert [json.loads(line) for line in out.splitlines()] == [
            {"kind": "diagnostic", "message": message, "span": None}]
    else:
        assert (out, err) == ("", message + "\n")


def test_check_reports_errors_on_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.lang"
    bad.write_text("language broken\n\ngrammar\n  Expression e ::= x | (f e\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert out == ""
    assert err.strip() != ""


def test_structured_check(capsys):
    code, out, err = run(capsys, "--format", "structured", "check",
                         fix("stlc.lang"))
    assert code == 0
    record = json.loads(out.strip())
    assert record == {"kind": "ok", "message": "stlc: valid"}


def test_structured_diagnostics_carry_spans(capsys, tmp_path):
    bad = tmp_path / "bad.lang"
    bad.write_text("language broken\n\ngrammar\n  Expression e ::= x | (f e\n")
    code, out, err = run(capsys, "--format", "structured", "check", str(bad))
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["kind"] == "diagnostic" for r in records)
    assert all("span" in r for r in records)


# -- add-subtyping ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["stlc", "references", "langfunny"])
def test_add_subtyping_matches_golden(capsys, name):
    code, out, err = run(capsys, "add-subtyping", fix(f"{name}.lang"))
    assert code == 0
    assert out == (GOLDEN / f"{name}.sub.lang").read_text()


def test_add_subtyping_writes_file(capsys, tmp_path):
    target = tmp_path / "out.lang"
    code, out, err = run(capsys, "add-subtyping", fix("stlc.lang"),
                         "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "stlc.sub.lang").read_text()


def test_add_subtyping_rejects_double_contravariance(capsys):
    code, out, err = run(capsys, "add-subtyping", fix("app2.lang"))
    assert code == 2
    assert "t-app2" in err
    assert "'T'" in err
    assert "MultipleContravariant" in err


def test_add_subtyping_with_relations(capsys):
    code, out, err = run(capsys, "add-subtyping", fix("references.lang"),
                         "--with-relations")
    assert code == 0
    spec = parse_spec(out)
    names = [r.name for r in spec.rules]
    assert "sub-arrow" in names
    assert "join-refl" in names
    assert "sub-base-int-float" in names


# -- derive-ck ---------------------------------------------------------------------

@pytest.mark.parametrize("name", ["stlc", "langfunny"])
def test_derive_ck_matches_golden(capsys, name):
    code, out, err = run(capsys, "derive-ck", fix(f"{name}.lang"))
    assert code == 0
    assert out == (GOLDEN / f"{name}.ck.lang").read_text()


def test_derive_ck_needs_contexts(capsys):
    code, out, err = run(capsys, "derive-ck", fix("references.lang"))
    assert code == 1
    assert "no evaluation-context category" in err


# -- eval --------------------------------------------------------------------------

def test_eval_value(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(and t f)")
    assert code == 0
    assert out == "f\n"


def test_eval_term_file(capsys, tmp_path):
    term = tmp_path / "term.txt"
    term.write_text("(and t f)\n")
    code, out, err = run(capsys, "eval", fix("boollist.lang"),
                         "--term-file", str(term))
    assert code == 0
    assert out == "f\n"


@pytest.mark.parametrize("machine", ["smallstep", "ck"])
@pytest.mark.parametrize("depth", [600, 5000])
def test_eval_of_a_very_deeply_nested_term_succeeds(tmp_path, depth, machine):
    # The term parser keeps its open applications on a stack, and the
    # machine takes 3 transitions per level.
    term = tmp_path / "deep.txt"
    term.write_text("(app (lam x int x) " * depth + "ci" + ")" * depth)
    result = subprocess.run(
        [sys.executable, "-m", "langx", "eval", fix("stlc_consts.lang"),
         "--term-file", str(term), "--machine", machine, "--fuel", "20000"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ci\n"
    assert "Traceback" not in result.stderr


def test_compare_with_a_very_deeply_nested_conclusion_type_succeeds(tmp_path):
    # Rule patterns are matched and built by flat programs, so typecheck
    # builds the t-lam type 5,000 levels deep under the default recursion
    # limit.
    spec = tmp_path / "deep.lang"
    spec.write_text((FIXTURES / "stlc.lang").read_text().replace(
        "G |- (lam x T1 e) : (arrow T1 T2)",
        "G |- (lam x T1 e) : (arrow T1 " + "(arrow B " * 5000 + "T2" + ")" * 5001))
    result = subprocess.run(
        [sys.executable, "-m", "langx", "--format", "structured", "compare", str(spec),
         "--count", "5"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["message"] == "5/5 agree"


def test_compare_with_a_very_deeply_nested_production_succeeds(tmp_path):
    # Term generation sizes and compiles each production on explicit
    # stacks, so a production 3,000 levels deep, which no term of at most
    # --max-size nodes can use, is planned under the default recursion
    # limit.
    spec = tmp_path / "deep.lang"
    spec.write_text(deep_production(3000))
    result = subprocess.run(
        [sys.executable, "-m", "langx", "--format", "structured", "compare", str(spec),
         "--count", "5"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["message"] == "5/5 agree"


def test_eval_of_a_term_of_a_deeply_nested_production_ends_stuck(tmp_path):
    # Membership reads a nested production slot as one more state of the
    # grammar, one level per node, so a 1,000-deep production derives its
    # term under the default recursion limit; no rule reduces wrap.
    spec, term = tmp_path / "deep.lang", tmp_path / "deep.term"
    spec.write_text(deep_production(1000))
    term.write_text("(wrap " * 1000 + "(lam x B x)" + ")" * 1000 + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "langx", "eval", str(spec), "--term-file", str(term)],
        capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("stuck: (wrap (wrap ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv,message", [
    (["derive-ck", fix("stlc.lang"), "-o", "{tmp}"], "cannot write {tmp}: Is a directory"),
    (["add-subtyping", fix("stlc.lang"), "-o", "{tmp}/nodir/out.lang"],
     "cannot write {tmp}/nodir/out.lang: No such file or directory"),
    (["eval", fix("boollist.lang"), "(and t f)", "--term-file", "{tmp}/term.txt"],
     "eval takes a term argument or --term-file, not both"),
], ids=["output-directory", "output-missing-parent", "term-and-term-file"])
def test_bad_output_and_term_arguments_end_in_a_diagnostic(tmp_path, argv, message):
    (tmp_path / "term.txt").write_text("(and t f)\n")
    result = subprocess.run(
        [sys.executable, "-m", "langx", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == message.format(tmp=tmp_path) + "\n"


def test_non_utf8_input_ends_in_a_diagnostic(tmp_path):
    spec = tmp_path / "bytes.lang"
    spec.write_bytes(b"\xff\xfe")
    result = subprocess.run([sys.executable, "-m", "langx", "check", str(spec)],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"cannot read {spec}: not UTF-8 at byte 0\n"


def test_add_subtyping_of_a_very_deeply_nested_premise_type_succeeds(tmp_path):
    # The occurrence walk and the split both run on explicit stacks; the
    # split premise keeps its nesting, and the rest is stlc's golden.
    deep = "(arrow B " * 5000 + "T2" + ")" * 5000
    spec = tmp_path / "deep.lang"
    spec.write_text((FIXTURES / "stlc.lang").read_text().replace(
        "G |- e1 : (arrow T1 T2)", f"G |- e1 : (arrow T1 {deep})"))
    result = subprocess.run([sys.executable, "-m", "langx", "add-subtyping", str(spec)],
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (GOLDEN / "stlc.sub.lang").read_text().replace(
        "G |- e1 : (arrow T11 T2)", f"G |- e1 : (arrow T11 {deep})")


@pytest.mark.parametrize("depth", [300, 450])
def test_small_step_eval_of_a_deeply_nested_term_succeeds(tmp_path, depth):
    term = tmp_path / "deep.txt"
    term.write_text("(app (lam x int x) " * depth + "ci" + ")" * depth)
    result = subprocess.run(
        [sys.executable, "-m", "langx", "eval", fix("stlc_consts.lang"),
         "--term-file", str(term)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ci\n"


@pytest.mark.parametrize("machine,steps", [("smallstep", 300), ("ck", 900)])
def test_traced_eval_of_a_deeply_nested_term_succeeds(tmp_path, machine, steps):
    term = tmp_path / "deep.txt"
    term.write_text("(app (lam x int x) " * 300 + "ci" + ")" * 300)
    result = subprocess.run(
        [sys.executable, "-m", "langx", "eval", fix("stlc_consts.lang"),
         "--term-file", str(term), "--machine", machine, "--trace"],
        capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert len(lines) == steps + 1 and lines[-1] == "ci"


@pytest.mark.parametrize("machine", ["smallstep", "ck"])
@pytest.mark.parametrize("spec,term,message", [
    ("stlc.lang", "(app x (lam x B x))", "free variable: x"),
    ("references.lang", "x", "free variable: x"),
    ("stlc.lang", "(app x1 (lam x B x2))", "free variables: x1, x2"),
])
def test_eval_of_an_open_term_names_its_free_variables(capsys, machine, spec, term,
                                                       message):
    code, out, err = run(capsys, "eval", fix(spec), term, "--machine", machine)
    assert (code, out) == (1, "")
    assert err == f"eval needs a closed term; {message}\n"
    code, out, err = run(capsys, "--format", "structured", "eval", fix(spec), term,
                         "--machine", machine)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"kind": "diagnostic", "span": None,
                               "message": f"eval needs a closed term; {message}"}


def test_eval_of_a_deep_open_term_names_its_free_variable(tmp_path):
    term = tmp_path / "deep.txt"
    term.write_text("(app (lam x int x) " * 450 + "x" + ")" * 450)
    result = subprocess.run(
        [sys.executable, "-m", "langx", "eval", fix("stlc_consts.lang"),
         "--term-file", str(term), "--machine", "ck"],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "eval needs a closed term; free variable: x\n"


@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("machine", ["smallstep", "ck"])
@pytest.mark.parametrize("spec,term,fuel", [
    ("stlc_consts.lang", "(app (lam x int x) " * 80 + "ci" + ")" * 80, "10000"),
    # Stopped at its first repeated state and padded to its fuel with the
    # loop's own steps, so a step may start from a state the step before it
    # did not end in.
    ("boollist.lang", "(app (lam x (app x x)) (lam x (app x x)))", "40"),
])
def test_eval_trace_equals_rendering_every_state(capsys, monkeypatch, structured,
                                                 machine, spec, term, fuel):
    argv = [*(["--format", "structured"] if structured else []), "eval", fix(spec),
            term, "--machine", machine, "--fuel", fuel, "--trace"]
    shown = run(capsys, *argv)
    monkeypatch.setattr(cli, "_print_trace", oracle_print_trace)
    assert shown == run(capsys, *argv)
    assert shown[1].count("\n") >= 40


def test_trace_printer_renders_a_step_that_starts_elsewhere(capsys, boollist):
    # Runs never make such a trace: a looping run's padding starts a step
    # from a state equal, though not identical, to the last one shown.
    trace = []
    for text in ("(and t f)", "(and (and t t) f)"):
        trace += evaluate(parse_term(text, boollist, concrete=True), boollist)[1]
    rep = cli.Reporter(False, cli.Style())
    cli._print_trace(trace, boollist, rep)
    shown = capsys.readouterr()
    oracle_print_trace(trace, boollist, rep)
    assert shown == capsys.readouterr()
    assert shown.out.count("\n") == len(trace) == 3


# nil is no value here, so a (cons v E) frame can hold it as the focus: the
# frame prints as [v] around it, and as (cons v t) once nil steps to t.
NIL_STEPS = """\
language nilsteps

variables x

grammar
  Expression e ::= x | t | nil | (lam x e) | (app e e) | (cons e e) | (hd e)
  Value v ::= t | (lam x e) | (cons v v)
  Context E ::= [.] | (app E e) | (app v E) | (cons E e) | (cons v E) | (hd E)

binder lam 1

rule beta
  --------------------------------
  (app (lam x e) v) --> e[v/x]

rule hd-head
  --------------------------------
  (hd (cons v1 v2)) --> v1

rule nil-t
  --------------------------------
  nil --> t
"""


@pytest.mark.parametrize("name", ["boollist", "langfunny", "nilsteps"])
def test_trace_printer_renders_each_state_as_render_state_does(capsys, name):
    # One trace of many runs, under both semantics, so that a step often
    # starts from a state whose frames share nothing with the last one shown.
    spec = parse_spec(NIL_STEPS) if name == "nilsteps" else load(name)
    machine = derive_ck(spec)
    terms = list(islice(iter_swarm_terms(spec, seed=3, max_size=14), 400))
    # Under kept (cons v E) frames the text below turns into a list.
    terms += [parse_term(text, spec, concrete=True) for text in {
        "boollist": ["(cons t (cons f (if t [(and t f)] nil)))"],
        "langfunny": [],
        "nilsteps": ["(cons t (cons t (app (lam x [x, (hd [x])]) t)))"]}[name]]
    trace = []
    for term in terms:
        trace += cli._outcome(evaluate, term, spec, 60)[2]
        trace += cli._outcome(ck_eval, MachineConfig(term, MT), machine, 60)[2]
    rep = cli.Reporter(False, cli.Style())
    cli._print_trace(trace, spec, rep)
    shown = capsys.readouterr()
    oracle_print_trace(trace, spec, rep)
    assert shown == capsys.readouterr()
    assert shown.out.count("[") > 100


OUTSIDE_THE_GRAMMAR = ("eval needs a term of category Expression; "
                       "the grammar does not derive this one")


@pytest.mark.parametrize("machine", ["smallstep", "ck"])
@pytest.mark.parametrize("spec,term", [
    ("stlc_consts.lang", "(app ci)"),      # app has arity 2
    ("stlc_consts.lang", "(ci ci)"),       # ci is a constant
    ("stlc_consts.lang", "[ci, cf]"),      # list sugar, and the grammar has no lists
    ("stlc_consts.lang", "int"),           # a type
    # The binder lam takes a type and a body; the small-step run used to end
    # stuck, the machine's in nil.
    ("boollist.lang", "(if (and t f) (lam x) nil)"),
])
def test_eval_refuses_a_term_the_grammar_does_not_derive(capsys, machine, spec, term):
    code, out, err = run(capsys, "eval", fix(spec), term, "--machine", machine)
    assert (code, out, err) == (1, "", OUTSIDE_THE_GRAMMAR + "\n")
    code, out, err = run(capsys, "--format", "structured", "eval", fix(spec), term,
                         "--machine", machine)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"kind": "diagnostic", "span": None,
                               "message": OUTSIDE_THE_GRAMMAR}


def _fuzz_material(name):
    """A spec, distinct rendered terms of its grammar to mutate, and its tokens."""
    spec = load(name)
    texts = dict.fromkeys(render_term(t, spec)
                          for t in islice(iter_swarm_terms(spec, max_size=10), 400))
    tokens = [*spec.constructor_arities(), *spec.binders, *spec.variables,
              *(cat.metavariable for cat in spec.categories), "[.]", "[x/x]"]
    return spec, sorted(texts), tokens


FUZZ = {name: _fuzz_material(name) for name in ("stlc_consts", "boollist", "langfunny")}


@st.composite
def mutated_term_text(draw):
    """A fuzzed spec name and a term text of its grammar after one to four
    edits: a character or token inserted, a character deleted, or two
    neighbouring characters swapped."""
    name = draw(st.sampled_from(sorted(FUZZ)))
    _, texts, tokens = FUZZ[name]
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "swap")))
        if edit == "insert":
            piece = draw(st.sampled_from(tokens) | st.sampled_from(string.printable))
            text = text[:at] + piece + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]
    return name, text


@settings(derandomize=True, max_examples=250, deadline=None)
@given(mutated_term_text(), st.sampled_from(("smallstep", "ck")))
def test_eval_of_mutated_term_text_ends_in_a_documented_exit_code(case, machine):
    name, text = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # The leading space keeps a text that starts with "-" from reading
        # as an option; the term parser skips it.
        code = cli.main(["eval", fix(f"{name}.lang"), " " + text, "--machine", machine,
                         "--fuel", "200"])
    assert code in (0, 1, 3, 4), (text, out.getvalue(), err.getvalue())
    if code == 3:   # only a program of the language may end stuck
        spec = FUZZ[name][0]
        try:
            term = parse_term(text, spec, concrete=True)
        except SpecParseError:
            pytest.fail(f"{text!r} does not parse but ended stuck")
        assert member(term, "Expression", spec), text


# name: a command line argparse refuses, and a piece of it the diagnostic shows
USAGE_ERRORS = {
    "term-read-as-an-option": (["eval", fix("boollist.lang"), "-t"], "-t"),
    "fuel-not-a-number": (["eval", fix("boollist.lang"), "t", "--fuel", "abc"], "abc"),
    "unknown-subcommand": (["bogus", fix("boollist.lang")], "bogus"),
}


@pytest.mark.parametrize("argv,shown", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_a_command_line_argparse_refuses_ends_in_one_diagnostic(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and shown in err
    code, out, err = run(capsys, "--format", "structured", *argv)
    assert code == 1 and err == ""
    [record] = map(json.loads, out.splitlines())
    assert record["kind"] == "diagnostic" and shown in record["message"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["-h"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: langx")


def test_eval_without_term(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"))
    assert code == 1
    assert "term" in err


def test_eval_rejects_unparsable_term(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(nosuch t)")
    assert code == 1
    assert err.strip() != ""


def test_eval_stuck(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(hd nil)")
    assert code == 3
    assert "stuck: (hd nil)" in err


def test_eval_out_of_fuel(capsys):
    omega = "(app (lam x (app x x)) (lam x (app x x)))"
    code, out, err = run(capsys, "eval", fix("boollist.lang"), omega,
                         "--fuel", "5")
    assert code == 4
    assert "out of fuel after 5 steps" in err


def test_eval_machine_derived_on_the_fly(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(and t f)",
                         "--machine", "ck")
    assert code == 0
    assert out == "f\n"


def test_eval_machine_spec_used_directly(capsys):
    code, out, err = run(capsys, "eval", str(GOLDEN / "stlc.ck.lang"),
                         "(app (lam x B x) (lam x1 B x1))", "--machine", "ck")
    assert code == 0
    assert out == "(lam x1 B x1)\n"


def test_eval_trace_lines(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(and t f)",
                         "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[contextual-reduction/and-true] (and t f)  ~~>  f"
    assert lines[-1] == "f"


def test_eval_machine_trace_lines(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(and t f)",
                         "--machine", "ck", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == \
        "[machine-start/and-start] <(and t f) , mt>  ~~>  <t , (and_1 f mt)>"
    assert lines[-1] == "f"


def test_eval_trace_printed_on_failure(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"),
                         "(hd (app (lam x x) nil))", "--trace")
    assert code == 3
    assert "[contextual-reduction/beta]" in out
    assert "stuck: (hd nil)" in err


def test_structured_eval(capsys):
    code, out, err = run(capsys, "--format", "structured", "eval",
                         fix("boollist.lang"), "(and t f)", "--trace")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["kind"] == "contextual-reduction"
    assert records[0]["rule"] == "and-true"
    assert records[0]["before"] == "(and t f)"
    assert records[-1] == {"kind": "value", "message": "f"}


# -- compare -----------------------------------------------------------------------

def test_compare_agreement(capsys):
    code, out, err = run(capsys, "compare", fix("boollist.lang"),
                         "--count", "50", "--fuel", "200")
    assert code == 0
    assert out.strip().endswith("50/50 agree")


def test_structured_compare(capsys):
    code, out, err = run(capsys, "--format", "structured", "compare",
                         fix("langfunny.lang"), "--count", "10",
                         "--fuel", "200")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    compares = [r for r in records if r["kind"] == "compare"]
    assert len(compares) == 10
    assert all(r["agree"] for r in compares)
    assert records[-1]["kind"] == "summary"
    assert records[-1]["agree"] == records[-1]["total"] == 10


def mutated_machine(tmp_path, capsys):
    out_path = tmp_path / "boollist.ck.lang"
    code, out, err = run(capsys, "derive-ck", fix("boollist.lang"),
                         "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    needle = "<v , (and_2 t k)> --> <v , k>"
    assert needle in text
    bad = tmp_path / "boollist.ck.bad.lang"
    bad.write_text(text.replace(needle, "<v , (and_2 t k)> --> <t , k>"))
    return bad


def test_compare_flags_wrong_machine(capsys, tmp_path):
    bad = mutated_machine(tmp_path, capsys)
    code, out, err = run(capsys, "compare", fix("boollist.lang"),
                         "--ck", str(bad), "--count", "50", "--fuel", "200")
    assert code == 5
    assert "disagreement on term" in out
    assert "48/50 agree" in out
    assert "minimal counterexample (3 nodes): (and t f)" in out


def test_compare_structured_counterexample(capsys, tmp_path):
    bad = mutated_machine(tmp_path, capsys)
    code, out, err = run(capsys, "--format", "structured", "compare",
                         fix("boollist.lang"), "--ck", str(bad),
                         "--count", "50", "--fuel", "200")
    assert code == 5
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1]["kind"] == "counterexample"
    assert records[-1]["term"] == "(and t f)"
    assert records[-1]["size"] == 3


def test_compare_warns_when_fewer_terms_typecheck_than_requested(capsys, tmp_path):
    # No rule types the leaf c, so no generated term typechecks.
    spec = tmp_path / "untypable.lang"
    spec.write_text("""\
language untypable

grammar
  Type T ::= B
  Expression e ::= c | (s e)
  Value v ::= c
  Context E ::= [.] | (s E)

rule t-s
  G |- e : B
  --------------------------------
  G |- (s e) : B

rule s-c
  --------------------------------
  (s c) --> c
""")
    code, out, err = run(capsys, "compare", str(spec), "--count", "5")
    assert code == 0
    assert out.strip().endswith("0/0 agree")
    assert "only 0 of the 5 requested terms" in err


@pytest.mark.parametrize("structured", [False, True])
def test_compare_refuses_typing_rules_that_are_not_syntax_directed(capsys, tmp_path,
                                                                   structured):
    # Two typing rules conclude ci: a fault of the spec, reported once, not
    # a stream of ill-typed terms ending in a vacuous "0/0 agree".
    spec = tmp_path / "twice.lang"
    spec.write_text((FIXTURES / "stlc_consts.lang").read_text() + """
rule t-ci-float
  --------------------------------
  G |- ci : float
""")
    form = ["--format", "structured"] if structured else []
    code, out, err = run(capsys, *form, "compare", str(spec), "--count", "50")
    assert code == 1
    message = "more than one typing rule concludes a ci subject"
    if structured:
        assert err == ""
        assert [json.loads(line) for line in out.splitlines()] == [
            {"kind": "diagnostic", "message": message, "span": None}]
    else:
        assert (out, err) == ("", message + "\n")


def test_compare_missing_machine_file(capsys):
    code, out, err = run(capsys, "compare", fix("boollist.lang"),
                         "--ck", fix("missing.lang"))
    assert code == 1
    assert "cannot read" in err


def test_compare_needs_contexts(capsys):
    code, out, err = run(capsys, "compare", fix("references.lang"),
                         "--count", "5")
    assert code == 1
    assert "no evaluation-context category" in err


def test_eval_on_the_machine_needs_contexts(capsys):
    code, out, err = run(capsys, "eval", fix("references.lang"), "ci",
                         "--machine", "ck")
    assert code == 1
    assert "references.lang: no evaluation-context category" in err


def test_a_contexts_directive_names_the_context_category(capsys, tmp_path, stlc_consts):
    text = (FIXTURES / "stlc_consts.lang").read_text()
    renamed = text.replace("  Context E ::=", "  Ctx E ::=").replace(
        "binder lam 1\n", "binder lam 1\n\ncontexts Ctx\n")
    spec = parse_spec(renamed)
    assert "\ncontexts Ctx\n" in print_spec(spec)
    assert parse_spec(print_spec(spec)) == spec
    assert print_spec(derive_ck(spec)) == print_spec(derive_ck(stlc_consts))
    path = tmp_path / "ctx.lang"
    path.write_text(renamed)
    outputs = [run(capsys, "--format", "structured", "compare", spec_file, "--count",
                   "5000", "--max-size", "10", "--seed", "0")
               for spec_file in (fix("stlc_consts.lang"), str(path))]
    assert outputs[0] == outputs[1]


def test_compare_works_on_each_distinct_term_once(capsys, monkeypatch):
    received = {"typecheck": [], "evaluate": [], "ck_eval": []}

    def counting(name, focus=lambda state: state):
        original = getattr(cli, name)

        def counted(state, *args, **kwargs):
            received[name].append(focus(state))
            return original(state, *args, **kwargs)
        monkeypatch.setattr(cli, name, counted)

    counting("typecheck")
    counting("evaluate")
    counting("ck_eval", focus=lambda config: config.focus)
    draws = []
    stream = cli.iter_swarm_terms

    def recorded_stream(*args, **kwargs):
        for term in stream(*args, **kwargs):
            draws.append(term)
            yield term
    monkeypatch.setattr(cli, "iter_swarm_terms", recorded_stream)

    code, out, err = run(capsys, "--format", "structured", "compare",
                         fix("langfunny.lang"), "--count", "1000",
                         "--max-size", "10", "--seed", "0")
    assert code == 0
    assert len(set(draws)) < len(draws)
    for name, terms in received.items():
        assert terms, name
        assert len(set(terms)) == len(terms), name
    assert len(received["typecheck"]) == len(set(draws))


def test_compare_matches_a_typing_rule_once_per_distinct_node(capsys, monkeypatch):
    # One typing memo for the call keeps each node typed under the empty
    # environment; only the bodies under a binder are typed again, once per
    # binder node.  Typing every draw afresh matched once per node of each
    # distinct draw.
    subjects, matches, draws = set(), [0], []
    rules, match, stream = engine._typing_rules, engine._run_match, cli.iter_swarm_terms

    def recorded_rules(spec):
        compiled = rules(spec)
        subjects.update(id(rule[0]) for rule in compiled[0].values())
        return compiled

    def counted_match(program, *args):
        matches[0] += id(program) in subjects
        return match(program, *args)

    def recorded_stream(*args, **kwargs):
        for term in stream(*args, **kwargs):
            draws.append(term)
            yield term

    monkeypatch.setattr(engine, "_typing_rules", recorded_rules)
    monkeypatch.setattr(engine, "_run_match", counted_match)
    monkeypatch.setattr(cli, "iter_swarm_terms", recorded_stream)
    code, out, err = run(capsys, "--format", "structured", "compare",
                         fix("langfunny.lang"), "--count", "1000",
                         "--max-size", "10", "--seed", "0")
    assert code == 0 and subjects
    distinct = set(draws)
    nodes = {s for d in distinct for s in subterms(d)}
    occurrences = sum(1 for d in distinct for _ in subterms(d))
    assert 0 < matches[0] <= len(nodes) < occurrences // 2


def swapped_order_machine(tmp_path, capsys):
    path = tmp_path / "langfunny.ck.bad.lang"
    path.write_text(swapped_order_machine_text())
    return path


# The criterion-12 mutant at seed 4 disagrees on 5 records holding 4
# distinct terms, so a disagreeing term repeats.  The boollist mutant's first
# disagreement at seed 7, (if f t (and t f)), shrinks to (and t f).
ORACLE_COMPARES = {
    "langfunny-0": ("langfunny", None, 0),
    "langfunny-1": ("langfunny", None, 1),
    "langfunny-2": ("langfunny", None, 2),
    "stlc_consts-0": ("stlc_consts", None, 0),
    "langfunny.sub-0": ("golden/langfunny.sub", None, 0),
    "swapped-order-4": ("langfunny", swapped_order_machine, 4),
    "boollist-mutant-7": ("boollist", mutated_machine, 7),
}


@pytest.mark.parametrize("name,machine,seed", ORACLE_COMPARES.values(),
                         ids=ORACLE_COMPARES)
def test_compare_output_equals_the_memo_free_oracle(capsys, tmp_path, name,
                                                    machine, seed):
    spec = load(name)
    argv = ["--format", "structured", "compare", fix(f"{name}.lang")]
    if machine is None:
        machine_spec = derive_ck(spec)
    else:
        path = machine(tmp_path, capsys)
        argv += ["--ck", str(path)]
        machine_spec = parse_spec(path.read_text(), filename=str(path))
    code, out, err = run(capsys, *argv, "--count", "5000", "--max-size", "10",
                         "--seed", str(seed))
    assert (code, out) == oracle_compare(spec, machine_spec, 5000, seed, 10)
    assert err == ""


def test_compare_keeps_one_membership_memo_per_spec(capsys, tmp_path):
    # The machine's grammar leaves cf out of Value, so the categories the
    # small-step side records for cf must not answer for the machine.
    spec = load("stlc_consts")
    text = print_spec(derive_ck(spec)).replace(
        "Value v ::= ci | cf | (lam x T e)", "Value v ::= ci | (lam x T e)")
    path = tmp_path / "narrow.ck.lang"
    path.write_text(text)
    machine_spec = parse_spec(text, filename=str(path))
    code, out, err = run(capsys, "--format", "structured", "compare",
                         fix("stlc_consts.lang"), "--ck", str(path), "--count", "500",
                         "--max-size", "10", "--seed", "0")
    assert code == 5
    assert (code, out) == oracle_compare(spec, machine_spec, 500, 0, 10)


# Each compare line is built from its record's fields after kind and index,
# encoded once per distinct term.  The criterion-12 mutant disagrees at
# seed 0.
ENCODED_COMPARES = {
    f"{name}-{seed}": (name, None, seed)
    for name in ("langfunny", "boollist", "stlc_consts") for seed in (0, 3)
} | {"swapped-order-0": ("langfunny", swapped_order_machine, 0)}


@pytest.mark.parametrize("name,machine,seed", ENCODED_COMPARES.values(),
                         ids=ENCODED_COMPARES)
def test_compare_lines_are_the_json_dumps_of_their_records(capsys, tmp_path, name,
                                                          machine, seed):
    argv = ["--format", "structured", "compare", fix(f"{name}.lang")]
    if machine is not None:
        argv += ["--ck", str(machine(tmp_path, capsys))]
    code, out, err = run(capsys, *argv, "--count", "5000", "--max-size", "10",
                         "--seed", str(seed))
    assert code == (0 if machine is None else 5)
    lines = out.splitlines()
    for line in lines:
        assert line == json.dumps(json.loads(line)), line
    compared = [json.loads(line) for line in lines[:5000]]
    assert [list(record) for record in compared] == \
        [["kind", "index", "term", "source", "machine", "agree"]] * 5000
    assert [record["index"] for record in compared] == list(range(5000))
    assert all(record["agree"] for record in compared) == (machine is None)


def test_an_indexed_record_prints_as_json_dumps_of_the_whole_record(capsys):
    rep = cli.Reporter(True, cli.Style())
    fields = {"term": 'λ "x"\n', "source": "value ∅", "agree": False, "span": None}
    for kind, index in (("compare", 0), ("cömpare", 12345), ('"', -1)):
        rep.emit_indexed("unused", kind, index, rep.encode(**fields))
        assert capsys.readouterr().out == \
            json.dumps({"kind": kind, "index": index, **fields}) + "\n"
    text = cli.Reporter(False, cli.Style())
    assert text.encode(**fields) == ""
    text.emit_indexed("shown", "compare", 0, "")
    text.emit_indexed(None, "compare", 1, "")
    assert capsys.readouterr() == ("shown\n", "")


# -- global options ------------------------------------------------------------------

def test_color_always(capsys, monkeypatch):
    monkeypatch.setenv("LANGX_COLOR", "always")
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(hd nil)")
    assert code == 3
    assert "\x1b[31m" in err
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(and t f)",
                         "--trace")
    assert "\x1b[36m" in out


def test_color_never_by_default_off_tty(capsys, monkeypatch):
    monkeypatch.delenv("LANGX_COLOR", raising=False)
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(hd nil)")
    assert "\x1b[" not in err


def test_color_never_holds_on_a_tty(capsys, monkeypatch):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    monkeypatch.setenv("LANGX_COLOR", "auto")
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(hd nil)")
    assert code == 3 and "\x1b[31m" in err
    monkeypatch.setenv("LANGX_COLOR", "never")
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(hd nil)")
    assert code == 3 and err and "\x1b[" not in err


def test_fuel_must_be_positive(capsys):
    code, out, err = run(capsys, "eval", fix("boollist.lang"), "(and t f)",
                         "--fuel", "0")
    assert code == 1
    assert "fuel must be positive" in err


def test_count_must_be_positive(capsys):
    code, out, err = run(capsys, "compare", fix("boollist.lang"),
                         "--count", "0")
    assert code == 1
    assert "count must be positive" in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "langx", "check", fix("stlc.lang")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "stlc: valid\n"


def test_module_entry_point_in_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["langx", "check", fix("stlc.lang")])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("langx", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr() == ("stlc: valid\n", "")


FIVE_STEPS = "(app (lam x int x) " * 5 + "ci" + ")" * 5


def test_calls_of_main_in_one_process_act_as_calls_in_fresh_processes(capsys):
    # main builds its parser once per process; no call may see options,
    # defaults or a format left behind by the one before.
    calls = [
        ["--format", "structured", "eval", fix("stlc_consts.lang"), FIVE_STEPS, "--trace"],
        ["eval", fix("stlc_consts.lang"), FIVE_STEPS, "--trace"],
        ["eval", fix("stlc_consts.lang"), FIVE_STEPS, "--fuel", "3"],
        ["eval", fix("stlc_consts.lang"), FIVE_STEPS],
        ["--format", "structured", "eval", fix("stlc_consts.lang"), "--fuel"],
        ["eval", fix("stlc_consts.lang"), FIVE_STEPS, "--machine", "ck"],
        ["compare", fix("boollist.lang"), "--bogus"],
        ["compare", fix("boollist.lang"), "--count", "5"],
    ]
    fresh = [subprocess.run([sys.executable, "-m", "langx", *argv],
                            capture_output=True, text=True) for argv in calls]
    expected = [(result.returncode, result.stdout, result.stderr) for result in fresh]
    assert [code for code, _, _ in expected] == [0, 0, 4, 0, 1, 0, 1, 0]
    assert [run(capsys, *argv) for argv in calls] == expected
    assert cli.build_parser() is not cli.build_parser()


def test_main_runs_a_command_replaced_after_its_parser_was_built(capsys, monkeypatch):
    argv = ["eval", fix("stlc_consts.lang"), FIVE_STEPS, "--fuel", "3"]
    assert run(capsys, *argv)[0] == 4
    seen = []

    def replaced(args, rep):
        seen.append(args.fuel)
        rep.emit("replaced")
        return 0

    monkeypatch.setattr(cli, "cmd_eval", replaced)
    assert run(capsys, *argv) == (0, "replaced\n", "")
    assert seen == [3]
    monkeypatch.undo()
    assert run(capsys, *argv) == (4, "", "out of fuel after 3 steps at (app (lam x int x) "
                                         "(app (lam x int x) ci))\n")


# -- structured output -------------------------------------------------------------

OMEGA = "(app (lam x (app x x)) (lam x (app x x)))"
NO_START = """\
language nostart

variables x

grammar
  Expression e ::= x | c | (f e e)
  Value v ::= c
  Context E ::= [.] | (f v E)

rule r-f
  --------------------------------
  (f v1 v2) --> v1
"""

# Every way the CLI ends, as its exit code and argv; {tmp} is a directory
# holding the files the structured_paths fixture writes.
STRUCTURED_PATHS = {
    "check": (0, ["check", fix("stlc.lang")]),
    "add-subtyping": (0, ["add-subtyping", fix("references.lang"),
                          "--with-relations"]),
    "add-subtyping-to-file": (0, ["add-subtyping", fix("stlc.lang"),
                                  "-o", "{tmp}/out.lang"]),
    "derive-ck": (0, ["derive-ck", fix("stlc.lang")]),
    "derive-ck-to-file": (0, ["derive-ck", fix("stlc.lang"),
                              "-o", "{tmp}/out.lang"]),
    "eval": (0, ["eval", fix("boollist.lang"), "--term-file", "{tmp}/term.txt",
                 "--trace"]),
    "eval-machine": (0, ["eval", fix("boollist.lang"), "(and t f)",
                         "--machine", "ck", "--trace"]),
    "compare": (0, ["compare", fix("boollist.lang"), "--count", "20"]),
    "compare-disagreement": (5, ["compare", fix("boollist.lang"),
                                 "--ck", "{tmp}/boollist.ck.bad.lang",
                                 "--count", "50", "--fuel", "200"]),
    "unreadable-spec": (1, ["check", fix("nope.lang")]),
    "unreadable-term-file": (1, ["eval", fix("boollist.lang"),
                                 "--term-file", "{tmp}/nope.txt"]),
    "non-utf8-spec": (1, ["check", "{tmp}/bytes.lang"]),
    "non-utf8-term-file": (1, ["eval", fix("boollist.lang"),
                               "--term-file", "{tmp}/bytes.lang"]),
    "missing-term": (1, ["eval", fix("boollist.lang")]),
    "term-and-term-file": (1, ["eval", fix("boollist.lang"), "(and t f)",
                               "--term-file", "{tmp}/term.txt"]),
    "unwritable-output-directory": (1, ["derive-ck", fix("stlc.lang"), "-o", "{tmp}"]),
    "unwritable-output-missing-parent": (1, ["add-subtyping", fix("stlc.lang"),
                                             "-o", "{tmp}/nodir/out.lang"]),
    "spec-parse-error": (1, ["check", "{tmp}/bad.lang"]),
    "nested-context": (1, ["eval", "{tmp}/nested.lang",
                           "(unwrap (wrap (app (lam x B x) (lam x B x))))"]),
    "term-parse-error": (1, ["eval", fix("boollist.lang"), "(nosuch t)"]),
    "term-substitution": (1, ["eval", fix("boollist.lang"), "t[t/x]"]),
    "term-hole": (1, ["eval", fix("boollist.lang"), "(hd [.])", "--machine", "ck"]),
    "production-substitution": (1, ["check", "{tmp}/subst.lang"]),
    "no-contexts": (1, ["derive-ck", fix("references.lang")]),
    "no-contexts-compare": (1, ["compare", fix("references.lang"), "--count", "5"]),
    "ck-without-machine-rules": (1, ["compare", fix("langfunny.lang"),
                                     "--ck", fix("langfunny.lang"), "--count", "5"]),
    "no-machine": (1, ["eval", fix("references.lang"), "ci", "--machine", "ck"]),
    "ck-error": (2, ["derive-ck", "{tmp}/nostart.lang"]),
    "subtyping-error": (2, ["add-subtyping", fix("app2.lang")]),
    "stuck": (3, ["eval", fix("boollist.lang"), "(hd (app (lam x x) nil))",
                  "--trace"]),
    "stuck-machine": (3, ["eval", fix("boollist.lang"), "(hd nil)",
                          "--machine", "ck"]),
    "out-of-fuel": (4, ["eval", fix("boollist.lang"), OMEGA, "--fuel", "5",
                        "--trace"]),
    "fuel-0": (1, ["eval", fix("boollist.lang"), "(and t f)", "--fuel", "0"]),
    "count-0": (1, ["compare", fix("boollist.lang"), "--count", "0"]),
}


def deep_production(depth):
    """stlc whose Expression grammar holds a production nested depth levels deep."""
    return (FIXTURES / "stlc.lang").read_text().replace(
        "(app e e)\n", "(app e e) | " + "(wrap " * depth + "e" + ")" * depth + "\n")


def deep_join_spec(capsys):
    """stlc_consts with subtyping, whose ci has type (arrow D_float int) and
    cf type D_int, D_leaf being (arrow int (arrow int ... leaf)) 3,000 levels
    deep: typing (app ci cf) joins the two deep types."""
    code, out, _ = run(capsys, "add-subtyping", fix("stlc_consts.lang"))
    assert code == 0

    def deep(leaf):
        return "(arrow int " * 3000 + leaf + ")" * 3000

    text = out.replace("G |- ci : int", f"G |- ci : (arrow {deep('float')} int)") \
              .replace("G |- cf : float", f"G |- cf : {deep('int')}")
    assert text.count("(arrow int " * 3000) == 2
    return text


@pytest.fixture
def structured_paths(capsys, tmp_path):
    mutated_machine(tmp_path, capsys)
    (tmp_path / "term.txt").write_text("(and t f)\n")
    (tmp_path / "bad.lang").write_text(
        "language broken\n\ngrammar\n  Expression e ::= x | (f e\n")
    (tmp_path / "nostart.lang").write_text(NO_START)
    (tmp_path / "subst.lang").write_text(
        (FIXTURES / "stlc.lang").read_text().replace("(app e e)\n", "(app e e) | e[e/x]\n"))
    (tmp_path / "bytes.lang").write_bytes(b"\xff\xfe")
    (tmp_path / "nested.lang").write_text(
        (FIXTURES / "stlc.lang").read_text()
        .replace("(app e e)", "(app e e) | (wrap e) | (unwrap e)")
        .replace("(app v E)", "(app v E) | (unwrap (wrap E))"))
    return tmp_path


@pytest.mark.parametrize("exit_code,argv", STRUCTURED_PATHS.values(),
                         ids=STRUCTURED_PATHS)
def test_structured_mode_prints_only_records(capsys, structured_paths,
                                             exit_code, argv):
    argv = [a.format(tmp=structured_paths) for a in argv]
    code, out, err = run(capsys, "--format", "structured", *argv)
    assert code == exit_code
    assert out
    for line in out.splitlines():
        record = json.loads(line)
        assert isinstance(record, dict) and "kind" in record, line
    assert err == ""


def test_input_nested_too_deeply_is_one_structured_diagnostic(capsys, monkeypatch):
    # No walk of langx recurses once per level of its input any more; the
    # handler stays as a safety net for one that does.
    def nested_too_deeply(args, rep):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "cmd_compare", nested_too_deeply)
    code, out, err = run(capsys, "--format", "structured", "compare",
                         fix("boollist.lang"), "--count", "5")
    assert (code, err) == (1, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"kind": "diagnostic", "message": "input is nested too deeply to process", "span": None}]


def test_a_3000_deep_join_compares(capsys, tmp_path):
    # The subtype check of (app ci cf) joins two types 3,000 levels deep;
    # the join walks them on a stack of its own.
    (tmp_path / "deep.lang").write_text(deep_join_spec(capsys))
    code, out, err = run(capsys, "--format", "structured", "compare",
                         str(tmp_path / "deep.lang"), "--count", "300", "--max-size", "5")
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1])["message"] == "300/300 agree"
