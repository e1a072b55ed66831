"""End-to-end acceptance checks, one test per required behavior.

Each test states the behavior in its name so `pytest -v` reads as a
checklist.  Golden outputs live in fixtures/golden/ and are compared byte
for byte.
"""

import hashlib
import json
import re
import time

import pytest

from conftest import FIXTURES, GOLDEN, swapped_order_machine_text
from langx import cli
from langx.ck import derive_ck
from langx.engine import check_subtype, typecheck, TypecheckError
from langx.ir import Join, Metavariable, Subtype
from langx.parser import parse_spec, print_spec, render_formula
from langx.subtyping import add_subtyping, canonical_rule
from langx.variance import occurrence_variance
from oracles import (
    enumerate_closed_terms,
    enumerate_types,
    type_paths,
    variance_by_substitution,
)


def golden(name):
    return (GOLDEN / name).read_text()


def rule_named(spec, name):
    return next(r for r in spec.rules if r.name == name)


def test_criterion_01_application_rule_gains_one_subtype_premise(stlc):
    started = time.perf_counter()
    out = print_spec(add_subtyping(stlc))
    elapsed = time.perf_counter() - started
    assert out == golden("stlc.sub.lang")
    transformed = parse_spec(out)
    t_app = rule_named(transformed, "t-app")
    assert [render_formula(p, transformed) for p in t_app.premises] == [
        "G |- e1 : (arrow T11 T2)",
        "G |- e2 : T12",
        "T12 <: T11",
    ]
    assert elapsed < 1.0


def test_criterion_02_invariance_yields_equation_and_branches_yield_join(references):
    out = print_spec(add_subtyping(references))
    assert out == golden("references.sub.lang")
    transformed = parse_spec(out)
    t_assign = rule_named(transformed, "t-assign")
    assert render_formula(t_assign.premises[-1], transformed) == "T1 = T2"
    t_if = rule_named(transformed, "t-if")
    assert render_formula(t_if.premises[-1], transformed) == "T = T1 \\/ T2"
    assert render_formula(t_if.conclusion, transformed) == \
        "G |- (if e1 e2 e3) : T"


def test_criterion_03_two_contravariant_occurrences_are_refused(capsys):
    code = cli.main(["add-subtyping", str(FIXTURES / "app2.lang")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'T'" in captured.err
    assert "MultipleContravariant" in captured.err


def test_criterion_04_multi_variable_rule_and_three_way_join(langfunny):
    out = print_spec(add_subtyping(langfunny))
    assert out == golden("langfunny.sub.lang")
    transformed = parse_spec(out)

    t_da = rule_named(transformed, "t-doublyApply")
    subs = [p for p in t_da.premises if isinstance(p, Subtype)]
    assert len(subs) == 4
    per_var = {}
    for p in subs:
        assert isinstance(p.sup, Metavariable)
        per_var.setdefault(p.sup.token, []).append(p)
    assert {tok: len(ps) for tok, ps in per_var.items()} == {"T1": 2, "T2": 2}

    t_add = rule_named(transformed, "t-addToPairAsList")
    joins = [p for p in t_add.premises if isinstance(p, Join)]
    assert len(joins) == 1
    assert len(joins[0].operands) == 3


def test_criterion_05_machine_for_application_has_three_rules(stlc):
    out = print_spec(derive_ck(stlc))
    assert out == golden("stlc.ck.lang")
    machine = parse_spec(out)
    continuation = machine.category("Continuation")
    assert [p.name for p in continuation.productions] == \
        ["mt", "app_1", "app_2"]
    assert [r.name for r in machine.machine_rules()] == \
        ["app-start", "app-order-1", "app-comp-1"]


def test_criterion_06_quaternary_operator_gets_five_machine_rules(langfunny):
    out = print_spec(derive_ck(langfunny))
    assert out == golden("langfunny.ck.lang")
    machine = parse_spec(out)
    block = [r.name for r in machine.machine_rules()
             if r.name.startswith("doublyApply-")]
    assert block == [
        "doublyApply-start",
        "doublyApply-order-1",
        "doublyApply-order-2",
        "doublyApply-order-3",
        "doublyApply-comp-1",
    ]


def test_criterion_07_semantics_agree_on_a_thousand_terms_each(capsys):
    started = time.perf_counter()
    for name in ("stlc.lang", "langfunny.lang"):
        code = cli.main(["compare", str(FIXTURES / name),
                         "--count", "1000", "--max-size", "7", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "1000/1000 agree" in captured.out
    assert time.perf_counter() - started < 60.0


def test_criterion_08_transform_is_idempotent_modulo_renaming(
        stlc, stlc_consts, references, langfunny, boollist):
    for spec in (stlc, stlc_consts, references, langfunny, boollist):
        once = add_subtyping(spec)
        twice = add_subtyping(once)
        assert [r.name for r in twice.rules] == [r.name for r in once.rules]
        for r1, r2 in zip(once.rules, twice.rules):
            assert canonical_rule(r2, spec) == canonical_rule(r1, spec)


def test_criterion_09_no_typing_regressions_over_all_small_terms(stlc_consts):
    wide = add_subtyping(stlc_consts)
    terms = enumerate_closed_terms(stlc_consts, 7)
    assert len(terms) == 998
    well_typed = 0
    for term in terms:
        try:
            before = typecheck(term, stlc_consts)
        except TypecheckError:
            continue
        well_typed += 1
        after = typecheck(term, wide)
        assert after == before
    assert well_typed == 238


def test_criterion_10_variance_matches_the_substitution_oracle(references):
    started = time.perf_counter()
    types = enumerate_types(references, 2, bases={"int", "float"})
    assert len(types) == 74
    checked = 0
    for ty in types:
        for path in type_paths(ty):
            expected = variance_by_substitution(ty, path, references,
                                                check_subtype)
            assert occurrence_variance(ty, path, references) == expected
            checked += 1
    assert checked > 200
    assert time.perf_counter() - started < 5.0


def test_criterion_11_print_then_parse_is_the_identity():
    sources = sorted(FIXTURES.glob("*.lang")) + sorted(GOLDEN.glob("*.lang"))
    assert len(sources) >= 11
    for path in sources:
        text = path.read_text()
        spec = parse_spec(text, filename=path.name)
        assert print_spec(spec) == text
        assert parse_spec(print_spec(spec)) == spec
    for name in ("stlc", "references", "langfunny"):
        spec = parse_spec((FIXTURES / f"{name}.lang").read_text())
        out = print_spec(add_subtyping(spec))
        assert print_spec(parse_spec(out)) == out
    for name in ("stlc", "langfunny", "boollist"):
        spec = parse_spec((FIXTURES / f"{name}.lang").read_text())
        out = print_spec(derive_ck(spec))
        assert print_spec(parse_spec(out)) == out


def test_criterion_12_compare_catches_a_machine_with_swapped_order_targets(
        capsys, tmp_path):
    text = swapped_order_machine_text()
    parse_spec(text)  # still a valid machine spec, just miswired
    bad = tmp_path / "langfunny.ck.bad.lang"
    bad.write_text(text)

    code = cli.main(["compare", str(FIXTURES / "langfunny.lang"),
                     "--ck", str(bad),
                     "--count", "5000", "--max-size", "10", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 5
    found = re.search(r"minimal counterexample \((\d+) nodes\): (.+)",
                      captured.out)
    assert found, captured.out
    assert int(found.group(1)) <= 10
    assert found.group(2).startswith("(doublyApply ")


def test_criterion_12_structured_compare_output_is_pinned(capsys, tmp_path):
    # The machine loops on the counterexample; the run that finds the
    # repeated state must report exactly what running the fuel out reports.
    bad = tmp_path / "langfunny.ck.bad.lang"
    bad.write_text(swapped_order_machine_text())
    code = cli.main(["--format", "structured", "compare",
                     str(FIXTURES / "langfunny.lang"), "--ck", str(bad),
                     "--count", "5000", "--max-size", "10", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 5
    counterexample = json.loads(out.splitlines()[-1])
    assert counterexample["kind"] == "counterexample"
    assert counterexample["term"] == "(doublyApply (lam x B c2) (lam x B c2) c2 c2)"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9b4e3c37def121cb6ffefa24b694fd3cce77be38023cce1d08d8e9b8925b28a9"
