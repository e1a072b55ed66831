"""Rewriting declarative typing rules into algorithmic subtyping form.

Metavariables that equate several premise output types are split into fresh
per-occurrence names, then reconnected by premises chosen from the variance
of the occurrences: equalities for invariant positions, subtype premises
toward a single contravariant occurrence, or a join when every occurrence is
covariant.  Two contravariant occurrences of one variable have no best
solution and are rejected.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .ir import (
    CONTRAVARIANT,
    COVARIANT,
    INVARIANT,
    Constructor,
    Formula,
    InferenceRule,
    Join,
    LangxError,
    LanguageSpec,
    Metavariable,
    Subtype,
    Term,
    TypeEq,
    Typing,
    formula_metavariable_tokens,
    formula_terms,
    fresh,
    map_formula,
    map_leaves,
    subterms,
)
from .variance import Occurrence, collect_occurrences, output_type_metavariables

MULTIPLE_CONTRAVARIANT = "MultipleContravariant"


class SubtypingError(LangxError):
    def __init__(self, rule_name: str, variable: Metavariable, reason: str,
                 occurrences: tuple[Occurrence, ...]):
        self.rule_name = rule_name
        self.variable = variable
        self.reason = reason
        self.occurrences = occurrences
        places = "; ".join(
            f"premise {o.premise_index + 1} at {list(o.path)} ({o.variance})"
            for o in occurrences
        )
        super().__init__(
            f"rule {rule_name!r}: cannot relate the occurrences of "
            f"{variable.token!r} ({reason}): {places}"
        )


class NoJoin(LangxError):
    def __init__(self, t1: Term, t2: Term):
        self.t1 = t1
        self.t2 = t2
        super().__init__("types have no least upper bound")


# ---------------------------------------------------------------------------
# splitting


def split_equal_types(
    premises: tuple[Formula, ...],
    used: set[str] | None = None,
) -> tuple[tuple[Formula, ...], dict[str, tuple[Metavariable, ...]]]:
    """Give each repeated output-type metavariable fresh per-occurrence names.

    Occurrence multiplicity is counted once, against the input premises.
    Returns the rewritten premises and a map from each split token to its
    fresh names in occurrence order.
    """
    occurrences = [mv for _, _, mv in output_type_metavariables(premises)]
    if used is None:
        used = set()
    used = used | {mv.token for mv in occurrences}

    counts: dict[str, int] = {}
    originals: dict[str, Metavariable] = {}
    for mv in occurrences:
        counts[mv.token] = counts.get(mv.token, 0) + 1
        originals.setdefault(mv.token, mv)

    varmap: dict[str, tuple[Metavariable, ...]] = {}
    for token, n in counts.items():
        if n < 2:
            continue
        names = []
        for _ in range(n):
            f = fresh(originals[token], used)
            used.add(f.token)
            names.append(f)
        varmap[token] = tuple(names)

    cursor = {token: 0 for token in varmap}

    def split(t: Term) -> Term:
        if not isinstance(t, Metavariable) or t.token not in varmap:
            return t
        i = cursor[t.token]
        if i == len(varmap[t.token]):
            raise LangxError(
                f"{t.token!r} also occurs under a binder or a substitution in a "
                f"premise output type, where it has no variance")
        cursor[t.token] = i + 1
        return varmap[t.token][i]

    new_premises = tuple(
        Typing(p.env, p.subject, map_leaves(p.ty, split)) if isinstance(p, Typing) else p
        for p in premises
    )
    return new_premises, varmap


# ---------------------------------------------------------------------------
# renaming helpers


def rename_formula(f: Formula, mapping: dict[str, Metavariable]) -> Formula:
    return map_formula(f, lambda t: map_leaves(
        t, lambda s: mapping.get(s.token, s) if isinstance(s, Metavariable) else s))


# ---------------------------------------------------------------------------
# the transform


def transform_rule(rule: InferenceRule, spec: LanguageSpec) -> InferenceRule:
    """Apply the split-and-relate rewrite to one typing rule."""
    if not isinstance(rule.conclusion, Typing):
        return rule

    used = set(formula_metavariable_tokens(rule.conclusion))
    for p in rule.premises:
        used |= formula_metavariable_tokens(p)

    new_premises, varmap = split_equal_types(rule.premises, used)
    if not varmap:
        return rule

    conclusion_tokens = formula_metavariable_tokens(rule.conclusion)
    extra: list[Formula] = []
    renames: dict[str, Metavariable] = {}

    for token, names in varmap.items():
        occurrences = collect_occurrences(rule, token, spec)
        variances = [o.variance for o in occurrences]
        original = Metavariable(names[0].base, token[len(names[0].base):] or None,
                                names[0].category)
        contra = variances.count(CONTRAVARIANT)
        if INVARIANT in variances:
            extra.extend(TypeEq(a, b) for a, b in zip(names, names[1:]))
            if token in conclusion_tokens:
                renames[names[0].token] = original
        elif contra == 0:
            extra.append(Join(original, names))
        elif contra == 1:
            target = names[variances.index(CONTRAVARIANT)]
            extra.extend(Subtype(n, target) for n in names if n is not target)
            if token in conclusion_tokens:
                renames[target.token] = original
        else:
            raise SubtypingError(rule.name, original, MULTIPLE_CONTRAVARIANT,
                                 occurrences)

    premises = tuple(rename_formula(p, renames) for p in (*new_premises, *extra))
    return InferenceRule(rule.name, premises, rule.conclusion)


def add_subtyping(spec: LanguageSpec) -> LanguageSpec:
    """Rewrite every typing rule; other rules and the grammar pass through."""
    return spec.with_rules(tuple(transform_rule(r, spec) for r in spec.rules))


# ---------------------------------------------------------------------------
# generated relation rules


def _type_metavar(spec: LanguageSpec, suffix: str) -> Metavariable:
    ty = spec.type_category
    base = ty.metavariable if ty is not None else "T"
    return Metavariable(base, suffix or None, "Type")


def _marked_constructors(spec: LanguageSpec) -> Iterator[tuple[str, tuple[str, ...]]]:
    """The Type category's constructors with arguments and one variance mark
    per argument, with their marks, in grammar order."""
    ty = spec.type_category
    for prod in ty.productions if ty is not None else ():
        if isinstance(prod, Constructor) and prod.args:
            marks = spec.variance.get(prod.name)
            if marks is not None and len(marks) == len(prod.args):
                yield prod.name, marks


def generate_subtype_relation(spec: LanguageSpec) -> list[InferenceRule]:
    """Reflexivity on base types, declared base axioms, one structural rule
    per type constructor.  No transitivity rule: the system stays algorithmic,
    so base axioms should be consumed transitively closed."""
    rules: list[InferenceRule] = []
    for b in spec.base_types():
        rules.append(InferenceRule(
            f"sub-refl-{b}", (), Subtype(Constructor(b), Constructor(b))))
    for a, b in spec.base_subtypes:
        rules.append(InferenceRule(
            f"sub-base-{a}-{b}", (), Subtype(Constructor(a), Constructor(b))))
    for name, marks in _marked_constructors(spec):
        left, right, premises = [], [], []
        for i, mark in enumerate(marks, start=1):
            l, r = _type_metavar(spec, str(i)), _type_metavar(spec, f"{i}'")
            left.append(l)
            right.append(r)
            if mark == COVARIANT:
                premises.append(Subtype(l, r))
            elif mark == CONTRAVARIANT:
                premises.append(Subtype(r, l))
            else:
                premises.append(TypeEq(l, r))
        rules.append(InferenceRule(
            f"sub-{name}",
            tuple(premises),
            Subtype(Constructor(name, tuple(left)), Constructor(name, tuple(right))),
        ))
    return rules


def generate_join_relation(spec: LanguageSpec) -> list[InferenceRule]:
    """Documentation rules for the join the engine computes structurally.

    Constructors with contravariant arguments would need a meet judgement to
    express, so only covariant/invariant constructors get a rule.
    """
    t = _type_metavar(spec, "")
    rules = [InferenceRule("join-refl", (), Join(t, (t, t)))]
    for a, b in sorted(spec.base_subtype_closure()):
        ca, cb = Constructor(a), Constructor(b)
        rules.append(InferenceRule(f"join-{a}-{b}", (), Join(cb, (ca, cb))))
        rules.append(InferenceRule(f"join-{b}-{a}", (), Join(cb, (cb, ca))))
    for name, marks in _marked_constructors(spec):
        if CONTRAVARIANT in marks:
            continue
        result, left, right, premises = [], [], [], []
        for i, mark in enumerate(marks, start=1):
            l, r = _type_metavar(spec, f"{i}'"), _type_metavar(spec, f"{i}''")
            left.append(l)
            right.append(r)
            if mark == COVARIANT:
                res = _type_metavar(spec, str(i))
                premises.append(Join(res, (l, r)))
                result.append(res)
            else:
                premises.append(TypeEq(l, r))
                result.append(l)
        rules.append(InferenceRule(
            f"join-{name}",
            tuple(premises),
            Join(Constructor(name, tuple(result)),
                 (Constructor(name, tuple(left)), Constructor(name, tuple(right)))),
        ))
    return rules


# ---------------------------------------------------------------------------
# ground joins and meets


def _base_bounds(spec: LanguageSpec) -> dict[tuple[Term, Term, bool], Term]:
    """The join (True) and the meet (False) of each pair of base types that
    has one: of the types above (below) both, the first in grammar order
    below (above) all the others."""
    bases, closure = spec.base_types(), spec.base_subtype_closure()

    def toward(x: str, y: str, upper: bool) -> bool:   # x <: y for a join, y <: x for a meet
        return x == y or ((x, y) if upper else (y, x)) in closure

    bounds = {}
    for upper in (True, False):
        for a in bases:
            for b in bases:
                cands = [c for c in bases if toward(a, c, upper) and toward(b, c, upper)]
                found = next((c for c in cands if all(toward(c, d, upper) for d in cands)), None)
                if found is not None:
                    bounds[Constructor(a), Constructor(b), upper] = Constructor(found)
    return bounds


def _bound(a: Term, b: Term, spec: LanguageSpec, upper: bool) -> Term:
    """The join (upper) or the meet of a and b, on an explicit stack: a pair
    of one constructor with variance marks is bound argument by argument,
    left to right, each by its mark, the constructor pushed below them to
    be rebuilt from their bounds.  NoJoin names the innermost pair that has
    no bound, or the constructor whose invariant arguments differ."""
    bounds, variance = spec.derived(_base_bounds), spec.variance
    work: list = [(a, b, upper)]
    done: list[Term] = []
    while work:
        item = work.pop()
        if type(item) is Constructor:   # its arguments are bound: rebuild it
            at = len(done) - len(item.args)
            args = tuple(done[at:])
            del done[at:]
            done.append(Constructor(item.name, args))
            continue
        a, b, upper = item
        if a == b:
            done.append(a)
        elif type(upper) is tuple:   # an invariant argument of the pair upper
            raise NoJoin(*upper)
        elif (a, b, upper) in bounds:
            done.append(bounds[a, b, upper])
        elif type(a) is Constructor and type(b) is Constructor and a.name == b.name \
                and len(a.args) == len(b.args) == len(marks := variance.get(a.name, ())):
            work.append(a)
            work.extend((x, y, (a, b) if mark == INVARIANT else upper == (mark == COVARIANT))
                        for mark, x, y in reversed(tuple(zip(marks, a.args, b.args))))
        else:
            raise NoJoin(a, b)
    return done[0]


def join_types(a: Term, b: Term, spec: LanguageSpec) -> Term:
    """Least upper bound of two ground types; raises NoJoin when none exists."""
    return _bound(a, b, spec, upper=True)


def meet_types(a: Term, b: Term, spec: LanguageSpec) -> Term:
    """Greatest lower bound of two ground types; raises NoJoin when none exists."""
    return _bound(a, b, spec, upper=False)


def join_all(operands: tuple[Term, ...], spec: LanguageSpec) -> Term:
    return functools.reduce(lambda x, y: join_types(x, y, spec), operands)


# ---------------------------------------------------------------------------
# canonical renaming, for comparisons modulo fresh-name choice


def canonical_rule(rule: InferenceRule, spec: LanguageSpec) -> InferenceRule:
    """Rename metavariables to appearance-ordered numeric names per category."""
    mapping: dict[str, Metavariable] = {}
    counters: dict[str, int] = {}

    for f in (*rule.premises, rule.conclusion):
        for t in formula_terms(f):
            for s in subterms(t):
                if isinstance(s, Metavariable) and s.token not in mapping:
                    counters[s.base] = counters.get(s.base, 0) + 1
                    mapping[s.token] = Metavariable(s.base, str(counters[s.base]),
                                                    s.category)
    return InferenceRule(
        rule.name,
        tuple(rename_formula(p, mapping) for p in rule.premises),
        rename_formula(rule.conclusion, mapping),
    )
