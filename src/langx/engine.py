"""Executing language specifications: small-step evaluation, the continuation
machine, and syntax-directed typechecking.

Everything here treats the spec as data.  Reduction uses evaluation-context
decomposition; the machine interpreter runs MachineStep rules; the checker
discharges premises left to right under one growing substitution.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .ir import (
    HOLE,
    BinderApp,
    Constructor,
    Focused,
    Frame,
    Hole,
    InferenceRule,
    Join,
    LangxError,
    LanguageSpec,
    MachineConfig,
    Metavariable,
    Subst,
    Subtype,
    Term,
    TypeEq,
    Typing,
    Var,
    children,
    context_holes,
    fold,
    plug_frames,
    rebuild,
    subterms,
    term_head,
    term_size,
)
from .subtyping import NoJoin, join_all, join_types

Substitution = dict[str, Term]


class EngineError(LangxError):
    pass


class Stuck(EngineError):
    def __init__(self, term: Term, trace: list["TraceStep"]):
        self.term = term
        self.trace = trace
        super().__init__("no reduction rule applies and the term is not a value")


class StuckMachine(EngineError):
    def __init__(self, config: MachineConfig, trace: list["TraceStep"]):
        self.config = config
        self.trace = trace
        super().__init__("no machine rule applies and the configuration is not terminal")


class OutOfFuel(EngineError):
    def __init__(self, state: Union[Term, MachineConfig], trace: list["TraceStep"]):
        self.state = state
        self.trace = trace
        super().__init__("evaluation did not finish within the step budget")


class TypecheckError(EngineError):
    pass


class NoRuleApplies(TypecheckError):
    def __init__(self, term: Term):
        self.term = term
        super().__init__("no typing rule applies to a subterm")


class SubtypeFailure(TypecheckError):
    def __init__(self, t1: Term, t2: Term):
        self.t1 = t1
        self.t2 = t2
        super().__init__("subtype premise does not hold")


class UnboundVariable(TypecheckError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not bound in the environment")


class NotSyntaxDirected(TypecheckError):
    def __init__(self, head: str):
        self.head = head
        super().__init__(f"more than one typing rule concludes a {head} subject")


class TraceStep:
    """One step of a run: its kind (contextual-reduction, machine-start,
    machine-order, machine-computation or machine-plug), the rule it used,
    and the states it starts and ends in.

    start and end are the states as the run holds them: a machine
    configuration, or a small-step state as its decomposition, a Focused.
    before and after read them whole, a Focused plugged on its first read.
    Steps are equal when their kinds, rules and whole states are.
    """

    __slots__ = ("kind", "rule_name", "start", "end")

    def __init__(self, kind: str, rule_name: str,
                 before: Union[Term, MachineConfig, Focused],
                 after: Union[Term, MachineConfig, Focused]):
        for set_field, value in zip(_STEP_SETTERS, (kind, rule_name, before, after)):
            set_field(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self) -> tuple:
        return TraceStep, (self.kind, self.rule_name, self.start, self.end)

    @property
    def before(self) -> Union[Term, MachineConfig]:
        return _whole(self.start)

    @property
    def after(self) -> Union[Term, MachineConfig]:
        return _whole(self.end)

    def _fields(self) -> tuple:
        return self.kind, self.rule_name, self.before, self.after

    def __eq__(self, other: object) -> bool:
        if type(other) is not TraceStep:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("TraceStep(kind={!r}, rule_name={!r}, before={!r}, after={!r})"
                .format(*self._fields()))


_STEP_SETTERS = [getattr(TraceStep, f).__set__ for f in TraceStep.__slots__]


def _whole(state: Union[Term, MachineConfig, Focused]) -> Union[Term, MachineConfig]:
    return state.term() if type(state) is Focused else state


# ---------------------------------------------------------------------------
# grammar membership
#
# A bottom-up tree automaton: a node's categories follow from its head and
# its children's categories, so a fold computes them once per node.

# Categories of nodes, by node: a fold's memo.
Categories = dict[Term, frozenset[str]]

_NO_CATEGORIES: frozenset[str] = frozenset()


def _unit_closure(spec: LanguageSpec) -> dict[str, frozenset[str]]:
    """Per category, every category that reaches it through unit productions
    (Expression ::= v), itself included: the ones that derive all its terms."""
    reached_by = {cat.name: {cat.name} for cat in spec.categories}
    changed = True
    while changed:
        changed = False
        for cat in spec.categories:
            for p in cat.productions:
                if isinstance(p, Metavariable) and p.category in reached_by:
                    below = reached_by[p.category]
                    if not reached_by[cat.name] <= below:
                        below |= reached_by[cat.name]
                        changed = True
    return {name: frozenset(names) for name, names in reached_by.items()}


def _membership_table(spec: LanguageSpec) -> dict[tuple, tuple[
        frozenset[str], tuple[tuple[tuple[Term, ...], frozenset[str]], ...]]]:
    """Non-unit productions by the head of the node they derive.

    Each head maps to every category that derives some node with that head,
    and to its productions' distinct slot tuples, each with every category
    that reaches such a production directly or through unit productions.
    """
    reached_by = spec.derived(_unit_closure)
    by_head: dict[tuple, dict[tuple[Term, ...], set[str]]] = {}
    for cat in spec.categories:
        for p in cat.productions:
            if not isinstance(p, (Metavariable, Subst)):   # unit productions are closed over above
                by_head.setdefault(term_head(p), {}).setdefault(
                    children(p), set()).update(reached_by[cat.name])
    return {head: (frozenset().union(*entries.values()),
                   tuple((slots, frozenset(names)) for slots, names in entries.items()))
            for head, entries in by_head.items()}


def categories(t: Term, spec: LanguageSpec,
               cats: Optional[Categories] = None) -> frozenset[str]:
    """Every grammar category that derives t.

    Pass one cats dict to calls on the same, unchanged terms to share their
    subterms' results.
    """
    return _categories(t, spec.derived(_membership_table), {} if cats is None else cats)


def _categories(t: Term, table: dict, cats: Categories) -> frozenset[str]:
    hit = cats.get(t)
    if hit is not None:
        return hit
    return fold(t, partial(_derived_by, table, cats), cats)


def _derived_by(table: dict, cats: Categories, t: Term, kids: tuple) -> frozenset[str]:
    """The categories of t, those of its subterms being in cats already: the
    slots read them there through _categories, as a nested slot must."""
    entry = table.get(term_head(t))
    if entry is None:
        return _NO_CATEGORIES
    if not kids:
        return entry[0]   # a leaf: no production of its head has slots
    found = _NO_CATEGORIES
    for slots, names in entry[1]:
        if not names <= found and all(
                _slot_derives(s, a, table, cats) for s, a in zip(slots, children(t))):
            found = found | names
    return found


def _slot_derives(slot: Term, t: Term, table: dict, cats: Categories) -> bool:
    """Does a production slot derive t?  A metavariable slot reads t's
    categories; any other derives the terms with its head whose children its
    own derive, so nested slots recurse only as deep as the production.  A
    substitution, whose head a metavariable shares, derives nothing."""
    kind = type(slot)
    if kind is Metavariable:
        return slot.category in _categories(t, table, cats)
    return kind is not Subst and term_head(slot) == term_head(t) and all(
        _slot_derives(s, a, table, cats) for s, a in zip(children(slot), children(t)))


def member(t: Term, category_name: str, spec: LanguageSpec,
           cats: Optional[Categories] = None) -> bool:
    """Is t derivable from the named grammar category?"""
    return _member(t, category_name, spec.derived(_membership_table),
                   {} if cats is None else cats)


def _member(t: Term, name: Optional[str], table: dict, cats: Categories) -> bool:
    """member on a resolved table: the memo first, then the head's
    categories, and a walk of t only when neither settles it.  A name of
    None derives nothing."""
    hit = cats.get(t)
    if hit is not None:
        return name in hit
    entry = table.get(term_head(t))
    if entry is None or name not in entry[0]:
        return False
    return name in _categories(t, table, cats)


def is_value(t: Term, spec: LanguageSpec, cats: Optional[Categories] = None) -> bool:
    value = spec.value_category
    return value is not None and member(t, value.name, spec, cats)


# ---------------------------------------------------------------------------
# pattern matching and instantiation


def match_pattern(pattern: Term, subject: Term, spec: LanguageSpec,
                  bindings: Optional[Substitution] = None) -> Optional[Substitution]:
    """Match subject against pattern, extending bindings; None when no match.

    A metavariable of the Value category only matches grammar values; other
    metavariables match any term.
    """
    sigma = dict(bindings) if bindings is not None else {}
    if _match(pattern, subject, sigma, spec):
        return sigma
    return None


def _match(pattern: Term, subject: Term, sigma: Substitution,
           spec: LanguageSpec, cats: Optional[Categories] = None) -> bool:
    """A metavariable binds, a variable compares, and any other pattern
    matches the subjects with its head whose children its own match; a
    binder binds its bound variable too.  A hole or a substitution matches
    nothing."""
    kind = type(pattern)
    if kind is Metavariable:
        value = spec.value_category
        if value is not None and pattern.category == value.name \
                and not is_value(subject, spec, cats):
            return False
        return sigma.setdefault(pattern.token, subject) == subject
    if kind is Var:
        return sigma.get(pattern.name, pattern) == subject
    if kind is Hole or kind is Subst or term_head(pattern) != term_head(subject):
        return False
    if kind is BinderApp:
        bound = Var(subject.bound_var)
        if sigma.setdefault(pattern.bound_var, bound) != bound:
            return False
    return all(_match(p, s, sigma, spec, cats)
               for p, s in zip(children(pattern), children(subject)))


def free_vars(t: Term, memo: Optional[dict[Term, frozenset[str]]] = None) -> frozenset[str]:
    """The variables of t not bound above their occurrence.  Pass one memo
    dict to calls on one term and its subterms to share their results."""
    return fold(t, _free_in, {} if memo is None else memo)


def _free_in(t: Term, kids: tuple[frozenset[str], ...]) -> frozenset[str]:
    kind = type(t)
    if kind is Var:
        return frozenset((t.name,))
    if kind is BinderApp:
        return frozenset().union(*kids) - {t.bound_var}
    if kind is Subst:
        return (kids[0] - {t.var}) | kids[1]
    return frozenset().union(*kids)


def substitute(t: Term, var: str, replacement: Term) -> Term:
    """Replace the free occurrences of var in t, renaming binders that would
    capture, in one fold.  A subterm var is not free in comes back as it is.
    A binder that captures is renamed, and its arguments substituted again,
    which nests a fold per capturing binder on the path."""
    seen: dict[Term, frozenset[str]] = {}   # free_vars' memo over replacement

    def combine(node: Term, kids: tuple[Term, ...]) -> Term:
        kind = type(node)
        if kind is Var:
            return replacement if node.name == var else node
        if kind is Constructor:
            return rebuild(node, kids)
        if kind is not BinderApp or node.bound_var == var or kids == node.args:
            return node
        captures = free_vars(replacement, seen)
        if node.bound_var not in captures:
            return rebuild(node, kids)
        avoid = captures.union({var}, *map(free_vars, node.args))
        renamed, n = node.bound_var, 1
        while renamed in avoid:
            renamed = f"{node.bound_var}{n}"
            n += 1
        return BinderApp(node.binder, renamed, tuple(
            substitute(substitute(a, node.bound_var, Var(renamed)), var, replacement)
            for a in node.args))

    return fold(t, combine, {})


def instantiate(pattern: Term, sigma: Substitution, spec: LanguageSpec) -> Term:
    """Build the term a rule pattern denotes under a match: a right-hand side,
    or a typing premise's subject or type."""
    kind = type(pattern)
    if kind is Metavariable:
        if pattern.token not in sigma:
            raise EngineError(f"unbound metavariable {pattern.token!r} in a right-hand side")
        return sigma[pattern.token]
    if kind is Var:
        bound = sigma.get(pattern.name)
        return bound if isinstance(bound, Var) else pattern
    kids = tuple([instantiate(a, sigma, spec) for a in children(pattern)])
    if kind is Subst:
        bound = sigma.get(pattern.var)
        return substitute(kids[0], bound.name if isinstance(bound, Var) else pattern.var, kids[1])
    if kind is BinderApp:   # the bound variable is renamed as the match bound it
        bound = sigma.get(pattern.bound_var)
        if isinstance(bound, Var):
            return BinderApp(pattern.binder, bound.name, kids)
    return rebuild(pattern, kids)


# ---------------------------------------------------------------------------
# evaluation contexts


def decompose(t: Term, spec: LanguageSpec) -> tuple[Term, Term]:
    """Split t into a context (a term containing one hole) and the focused
    redex candidate, descending per the context grammar; (hole, t) when t
    itself is the focus."""
    state = _descend(t, None, spec, {})
    return plug_frames(state.frames, HOLE), state.focus


def _descend(t: Term, frames: Optional[Frame], spec: LanguageSpec,
             cats: Categories) -> Focused:
    """The state decompose reaches from t with frames above it: each frame
    it descends through pushed onto frames, and the focus it stops at.
    Without frames above, t is the whole term, and the state keeps it."""
    contexts = spec.derived(_context_table)
    table = spec.derived(_membership_table)
    value = spec.value_category.name if spec.value_category is not None else None
    whole = t if frames is None else None
    while isinstance(t, Constructor):
        for hole_at, others in contexts.get((t.name, len(t.args)), ()):
            # Both tests are pure, so their order leaves the descent as it
            # is.  The hole's goes first: when the hole holds a value, the
            # other slots, however big, are not walked.
            args = t.args
            if not _member(args[hole_at], value, table, cats) \
                    and all(_slot_derives(slot, args[i], table, cats) for i, slot in others):
                node = Constructor(t.name, args[:hole_at] + (HOLE,) + args[hole_at + 1:])
                frames = Frame(node, hole_at, frames)
                t = args[hole_at]
                break
        else:
            break
    return Focused(t, frames, whole)


def _refocus(frames: Optional[Frame], reduct: Term, redex: Term, spec: LanguageSpec,
             cats: Categories) -> tuple[Focused, bool]:
    """The decomposition of the term frames make around reduct, where they
    held redex; and whether its root keeps the categories it had with redex.

    A node's categories follow from its head and its arguments' categories,
    and a decomposition reads no more of a node than these.  So the walk
    pops frames up from the reduct and stops at the first whose slots read
    the same categories of the argument that changed below it: that node
    keeps its categories, every frame above it stays as it was, and the
    descent resumes at the node itself, whose own context may now be
    another.  Only the frames the walk passes are filled or pushed.
    """
    views = spec.derived(_frame_views)
    if views is None:
        return _descend(plug_frames(frames, reduct), None, spec, cats), False
    table = spec.derived(_membership_table)
    new, old = reduct, redex
    while frames is not None:
        frame, frames = frames, frames.above
        node = frame.node
        kept = all(_member(new, name, table, cats) == _member(old, name, table, cats)
                   for name in views[node.name, len(node.args), frame.hole_at])
        new = frame.fill(new)
        if kept:
            return _descend(new, frames, spec, cats), True
        old = frame.fill(old)
    return _descend(new, None, spec, cats), False


def _context_table(spec: LanguageSpec) -> dict[tuple[str, int], list[tuple[int, list]]]:
    """Operator context productions by (name, arity), in grammar order, each as
    its hole position and its other (position, slot) pairs."""
    ctx = spec.context_category
    table: dict[tuple[str, int], list[tuple[int, list]]] = {}
    for prod in ctx.productions if ctx is not None else ():
        if isinstance(prod, Constructor):
            holes = context_holes(prod, ctx.name)
            if holes:
                others = [(i, a) for i, a in enumerate(prod.args) if i != holes[0]]
                table.setdefault((prod.name, len(prod.args)), []).append((holes[0], others))
    return table


def _frame_views(spec: LanguageSpec) -> Optional[dict[tuple[str, int, int], frozenset[str]]]:
    """Per context operator (name, arity) and argument position, the
    categories that its nodes' membership reads of the argument there.  None
    when a production with the head of a context operator has a slot that is
    not a metavariable: such a slot reads more of its argument than its
    categories, so a run then decomposes every state from the root."""
    table = spec.derived(_membership_table)
    views: dict[tuple[str, int, int], set[str]] = {}
    for name, arity in spec.derived(_context_table):
        for slots, _ in table[("con", name, arity)][1]:
            for at, slot in enumerate(slots):
                if type(slot) is not Metavariable:
                    return None
                views.setdefault((name, arity, at), set()).add(slot.category)
    return {key: frozenset(names) for key, names in views.items()}


def plug(context: Term, filler: Term) -> Term:
    """context with filler in place of its hole."""
    return fold(context, lambda t, kids: filler if type(t) is Hole else rebuild(t, kids), {})


# ---------------------------------------------------------------------------
# small-step evaluation


def _contract(state: Focused, spec: LanguageSpec,
              cats: Categories) -> Optional[tuple[TraceStep, bool]]:
    """Contract the focus of state by the first reduction rule that matches
    it, and refocus: the step taken, and whether the root of the state it
    ends in keeps the categories of state's root.  None when no rule
    applies."""
    redex = state.focus
    for rule in spec.reduction_rules():
        sigma: Substitution = {}
        if _match(rule.conclusion.lhs, redex, sigma, spec, cats):
            reduct = instantiate(rule.conclusion.rhs, sigma, spec)
            after, kept = _refocus(state.frames, reduct, redex, spec, cats)
            return TraceStep("contextual-reduction", rule.name, state, after), kept
    return None


def step(t: Term, spec: LanguageSpec,
         cats: Optional[Categories] = None) -> Optional[TraceStep]:
    """One contextual reduction of t, or None when no rule applies.  cats is
    the membership memo of t's subterms, shared with the caller."""
    cats = {} if cats is None else cats
    reduced = _contract(_descend(t, None, spec, cats), spec, cats)
    return None if reduced is None else reduced[0]


def evaluate(t: Term, spec: LanguageSpec, fuel: int = 10000) -> tuple[Term, list[TraceStep]]:
    """Iterate step until a value; raises Stuck or OutOfFuel.

    The run's state is the decomposition of its term, a Focused: after a
    contraction only the focus is replaced, and the run refocuses near the
    reduct instead of descending from the root again.  Whole terms are
    plugged only when asked for: the value, the term of a Stuck or
    OutOfFuel, or a step's before or after when read.  The value test is
    skipped on a state whose root keeps the categories of the state before
    it, which was no value.
    """
    cats: Categories = {}
    if is_value(t, spec, cats):   # most compared terms are: decompose none of them
        return t, []
    # The last state known to be no value: the first, or one whose root
    # kept the categories of the state before it.
    no_value: Optional[Focused] = _descend(t, None, spec, cats)

    def finished(state: Focused) -> bool:
        return state is not no_value and is_value(state.term(), spec, cats)

    def advance(state: Focused) -> Optional[TraceStep]:
        nonlocal no_value
        reduced = _contract(state, spec, cats)
        if reduced is None:
            return None
        taken, kept = reduced
        no_value = taken.end if kept else None
        return taken

    final, trace = _run(no_value, fuel, finished, advance, Stuck)
    return final.term(), trace


def _run(state: Union[Focused, MachineConfig], fuel: int, finished, advance,
         stuck: type[EngineError]) -> tuple[Union[Focused, MachineConfig], list[TraceStep]]:
    """The fuel loop of both semantics: advance state one step at a time until
    finished(state) holds.  advance(state) returns the step taken, or None
    when no rule applies, which raises stuck with the whole state and the
    trace.  Both share the run's one membership memo: terms are immutable,
    so a subterm a step shares with the state before it keeps its
    categories, and every node the memo keeps is in the trace already.

    Both semantics are deterministic, so a run that meets a state it has
    already been in loops forever.  The loop keeps one saved state, moved
    forward whenever the step count is a power of two (Brent), and stops as
    soon as the current state equals it, an identity test on interned
    states: the OutOfFuel it raises then is the one running the fuel out
    would raise, its trace padded with the loop's own steps.
    """
    trace: list[TraceStep] = []
    saved, saved_at = state, 0
    for _ in range(fuel):
        if finished(state):
            return state, trace
        taken = advance(state)
        if taken is None:
            raise stuck(_whole(state), trace)
        trace.append(taken)
        state = taken.end
        steps = len(trace)
        if state == saved:
            raise _looping(trace, steps - saved_at, fuel)
        if steps & (steps - 1) == 0:
            saved, saved_at = state, steps
    if finished(state):
        return state, trace
    raise OutOfFuel(_whole(state), trace)


def _looping(trace: list[TraceStep], period: int, fuel: int) -> OutOfFuel:
    """The OutOfFuel of a run whose state after len(trace) steps equals its
    state period steps earlier: from there on it repeats the last period
    steps, so after fuel steps it is where those steps lead."""
    loop = trace[-period:]
    laps, rest = divmod(fuel - len(trace), period)
    trace = trace + loop * laps + loop[:rest]
    return OutOfFuel(trace[-1].after, trace)


# ---------------------------------------------------------------------------
# machine evaluation


def is_value_pattern(pattern: Term, spec: LanguageSpec) -> bool:
    """Does every instance of this pattern lie in the Value category?  The
    membership walk, with each metavariable standing for any term of its
    category: a member of every category that reaches its own through unit
    productions."""
    value = spec.value_category
    closure = spec.derived(_unit_closure)
    cats: Categories = {s: closure.get(s.category, _NO_CATEGORIES)
                        for s in subterms(pattern) if isinstance(s, Metavariable)}
    return _member(pattern, value.name if value is not None else None,
                   spec.derived(_membership_table), cats)


_TRACE_KINDS = (("-order-", "machine-order"), ("-comp-", "machine-computation"))


def _machine_kind(rule_name: str) -> str:
    for marker, kind in _TRACE_KINDS:
        if marker in rule_name:
            return kind
    if rule_name.endswith("-start"):
        return "machine-start"
    if rule_name.endswith("-plug"):
        return "machine-plug"
    return "machine-computation"


MT = Constructor("mt")


def _machine_rules_by_focus(
        spec: LanguageSpec) -> tuple[list[InferenceRule], list[InferenceRule]]:
    """The machine rules whose focus pattern is value-shaped, and the rest."""
    value_rules, other_rules = [], []
    for rule in spec.machine_rules():
        is_val = is_value_pattern(rule.conclusion.lhs.focus, spec)
        (value_rules if is_val else other_rules).append(rule)
    return value_rules, other_rules


def machine_step(config: MachineConfig, spec: LanguageSpec,
                 cats: Optional[Categories] = None) -> Optional[TraceStep]:
    """One machine transition from config, or None when no rule applies.
    cats is the membership memo of config's subterms, shared with the caller.

    Rule choice is split on whether the focus is a value: a value focus only
    consults rules whose focus pattern is value-shaped (order, computation,
    plug), a non-value focus only the rest (start).  Plain first-match order
    would re-enter the rebuilding rules of value formers forever.
    """
    cats = {} if cats is None else cats
    value_rules, other_rules = spec.derived(_machine_rules_by_focus)
    for rule in (value_rules if is_value(config.focus, spec, cats) else other_rules):
        lhs = rule.conclusion.lhs
        sigma: Substitution = {}
        if not (_match(lhs.focus, config.focus, sigma, spec, cats)
                and _match(lhs.continuation, config.continuation, sigma, spec, cats)):
            continue
        rhs = rule.conclusion.rhs
        after = MachineConfig(instantiate(rhs.focus, sigma, spec),
                              instantiate(rhs.continuation, sigma, spec))
        return TraceStep(_machine_kind(rule.name), rule.name, config, after)
    return None


def ck_eval(config: MachineConfig, spec: LanguageSpec,
            fuel: int = 10000) -> tuple[Term, list[TraceStep]]:
    """Iterate machine_step until the terminal ⟨value, mt⟩ configuration;
    raises StuckMachine or OutOfFuel."""
    cats: Categories = {}
    final, trace = _run(config, fuel,
                        lambda c: c.continuation == MT and is_value(c.focus, spec, cats),
                        lambda c: machine_step(c, spec, cats), StuckMachine)
    return final.focus, trace


# ---------------------------------------------------------------------------
# subtype checking


def check_subtype(t1: Term, t2: Term, spec: LanguageSpec) -> bool:
    """Reflexivity, transitively closed base axioms, and structural variance,
    by the lattice law: t1 <: t2 exactly when t1 joined with t2 is t2."""
    try:
        return join_types(t1, t2, spec) == t2
    except NoJoin:
        return False


# ---------------------------------------------------------------------------
# typechecking


def _rules_by_head(spec: LanguageSpec) -> dict[tuple, InferenceRule]:
    table: dict[tuple, InferenceRule] = {}
    for rule in spec.typing_rules():
        head = term_head(rule.conclusion.subject)
        if head in table:
            raise NotSyntaxDirected(str(head[1] if len(head) > 1 else head[0]))
        table[head] = rule
    return table


def typecheck(t: Term, spec: LanguageSpec,
              env: Optional[dict[str, Term]] = None) -> Term:
    """Type of a term under syntax-directed rules; raises TypecheckError."""
    table = spec.derived(_rules_by_head)
    env = env or {}
    if isinstance(t, Var):
        if t.name in env:
            return env[t.name]
        raise UnboundVariable(t.name)
    rule = table.get(term_head(t))
    sigma: Substitution = {}
    if rule is None or not _match(rule.conclusion.subject, t, sigma, spec):
        raise NoRuleApplies(t)
    try:
        for premise in rule.premises:
            match premise:
                case Typing(penv, subject, ty):
                    inner_env = dict(env)
                    for var, vty in penv.extensions:
                        name = instantiate(Var(var), sigma, spec).name
                        inner_env[name] = instantiate(vty, sigma, spec)
                    actual = typecheck(instantiate(subject, sigma, spec), spec, inner_env)
                    if not _match(ty, actual, sigma, spec):
                        raise NoRuleApplies(t)
                case Subtype(sub, sup):
                    a, b = instantiate(sub, sigma, spec), instantiate(sup, sigma, spec)
                    if not check_subtype(a, b, spec):
                        raise SubtypeFailure(a, b)
                case TypeEq(left, right):
                    if isinstance(right, Metavariable) and right.token not in sigma:
                        left, right = right, left
                    _bind_or_compare(left, instantiate(right, sigma, spec), sigma, spec)
                case Join(result, operands):
                    joined = join_all(tuple(instantiate(o, sigma, spec) for o in operands), spec)
                    _bind_or_compare(result, joined, sigma, spec)
                case _:
                    raise TypecheckError(
                        f"rule {rule.name!r} has an unsupported premise for checking")
        return instantiate(rule.conclusion.ty, sigma, spec)
    except TypecheckError:   # the premises' own verdicts, and the subterms'
        raise
    except EngineError:   # a metavariable the rule leaves unbound: it cannot type t
        raise NoRuleApplies(t) from None
    except NoJoin as exc:
        raise SubtypeFailure(exc.t1, exc.t2) from None


def _bind_or_compare(pattern: Term, value: Term, sigma: Substitution,
                     spec: LanguageSpec) -> None:
    """Discharge one side of an equality or join premise, value being what
    the other side built: a metavariable sigma leaves unbound takes value,
    and any other pattern must build to it."""
    if isinstance(pattern, Metavariable) and pattern.token not in sigma:
        sigma[pattern.token] = value
    elif (built := instantiate(pattern, sigma, spec)) != value:
        raise SubtypeFailure(built, value)


# ---------------------------------------------------------------------------
# random closed terms


_BIG = 10 ** 9


def _production_size(p: Term, open_sizes: dict[str, int],
                     closed_sizes: dict[str, int], closed: bool) -> int:
    """Smallest size of a term built from production p, by the given tables.

    Slots under a binder always see a variable in scope, so they use the
    open table even when the surrounding term is closed.
    """
    kind = type(p)
    if kind is Metavariable:
        return (closed_sizes if closed else open_sizes).get(p.category, _BIG)
    if kind is Var:
        return _BIG if closed else 1
    closed = closed and kind is not BinderApp
    return 1 + sum([_production_size(a, open_sizes, closed_sizes, closed) for a in children(p)])


def _size_fixpoint(grammar: list[tuple[str, tuple[Term, ...]]],
                   open_sizes: dict[str, int], closed_sizes: dict[str, int]) -> None:
    """Lower both tables, in place, to the smallest term sizes of grammar's
    categories, given by name and productions; entries of categories outside
    grammar are read as they stand."""
    changed = True
    while changed:
        changed = False
        for name, productions in grammar:
            for table, closed in ((open_sizes, False), (closed_sizes, True)):
                best = min((_production_size(p, open_sizes, closed_sizes, closed)
                            for p in productions if not isinstance(p, Hole)),
                           default=_BIG)
                if best < table[name]:
                    table[name] = best
                    changed = True


def _min_sizes(spec: LanguageSpec) -> tuple[dict[str, int], dict[str, int]]:
    """Smallest term size per category, with and without variables in scope."""
    open_sizes = {cat.name: _BIG for cat in spec.categories}
    closed_sizes = dict(open_sizes)
    _size_fixpoint([(cat.name, cat.productions) for cat in spec.categories],
                   open_sizes, closed_sizes)
    return open_sizes, closed_sizes


def _expression_cycle(spec: LanguageSpec) -> tuple[str, ...]:
    """The categories a draw from Expression reaches that reach Expression
    in turn, Expression included: the ones whose sizes and choices depend on
    which Expression productions a swarm mask keeps."""
    expr = spec.expression_category
    if expr is None:
        return ()
    refs = {cat.name: {s.category for p in cat.productions for s in subterms(p)
                       if isinstance(s, Metavariable)}
            for cat in spec.categories}

    def reach(start: str) -> set[str]:
        seen, stack = {start}, [start]
        while stack:
            for name in refs.get(stack.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    stack.append(name)
        return seen

    drawn = reach(expr.name)
    return tuple(cat.name for cat in spec.categories
                 if cat.name in drawn and expr.name in reach(cat.name))


class _Choice:
    """A category in a generation plan, for closed or open terms: its
    productions with their smallest sizes, and per budget the ones that fit,
    each row filled the first time that budget is drawn."""

    __slots__ = ("sized", "rows")

    def __init__(self):
        self.sized: tuple[tuple[_Node, int], ...] = ()
        self.rows: dict[int, tuple[_Node, ...]] = {}

    def fitting(self, budget: int) -> tuple[_Node, ...]:
        row = self.rows[budget] = tuple(p for p, size in self.sized if size <= budget)
        return row


class _Build:
    """A constructor or binder production in a generation plan, with each
    slot's plan, smallest size, and the reserve the slots after it need."""

    __slots__ = ("production", "slots")

    def __init__(self, production: Union[Constructor, BinderApp],
                 slots: tuple[tuple[_Node, int, int], ...]):
        self.production = production
        self.slots = slots


# For annotations only: typing caches a Union with its members, and a cached
# class would keep its whole module alive after the module is imported again.
if TYPE_CHECKING:
    _Node = Union[int, _Build, Var, tuple[Term, int]]
    # The Expression productions a swarm grammar keeps, by index; None keeps all.
    _Mask = Optional[tuple[int, ...]]


class _GenerationPlan:
    """How one spec's grammar is drawn from, whole or with Expression
    narrowed by a mask.  A production compiles to a _Build, a Var, a (term,
    size) pair drawn as it is, or, for a metavariable, the index of its
    category's _Choice in choices; a category is compiled when first
    reached.  A mask has its own sizes and choices only for the categories
    of the Expression cycle; the others share the unmasked ones.

    Indices in place of references keep a recursive grammar's plan free of
    reference cycles, so it is freed with its spec by reference counting,
    not by a later run of the cycle collector.
    """

    def __init__(self, spec: LanguageSpec):
        self.categories = {cat.name: cat for cat in spec.categories}
        self.expression = spec.expression_category
        self.var_base = spec.variables[0] if spec.variables else "x"
        self.cycle = _expression_cycle(spec)
        self.size_tables: dict[_Mask, tuple[dict[str, int], dict[str, int]]] = {
            None: spec.derived(_min_sizes)}
        self.choices: list[_Choice] = []
        self.indices: dict[tuple[str, bool, _Mask], int] = {}

    def productions(self, cat_name: str, kept: _Mask) -> tuple[Term, ...]:
        productions = self.categories[cat_name].productions
        if kept is None or cat_name != self.expression.name:
            return productions
        return tuple(productions[i] for i in kept)

    def sizes(self, kept: _Mask) -> tuple[dict[str, int], dict[str, int]]:
        """Smallest open and closed sizes per category under the mask."""
        sizes = self.size_tables.get(kept)
        if sizes is None:
            sizes = self.size_tables[kept] = self.size_mask(kept)
        return sizes

    def size_mask(self, kept: _Mask) -> tuple[dict[str, int], dict[str, int]]:
        # Only the cycle's sizes depend on the mask: refit them, the rest fixed.
        open_sizes, closed_sizes = (dict(table) for table in self.size_tables[None])
        for name in self.cycle:
            open_sizes[name] = closed_sizes[name] = _BIG
        _size_fixpoint([(name, self.productions(name, kept)) for name in self.cycle],
                       open_sizes, closed_sizes)
        return open_sizes, closed_sizes

    def choice(self, cat_name: str, closed: bool, kept: _Mask) -> int:
        if cat_name not in self.cycle:
            kept = None
        index = self.indices.get((cat_name, closed, kept))
        if index is None:
            # Indexed before it is filled: a recursive grammar reaches it again.
            index = self.indices[cat_name, closed, kept] = len(self.choices)
            choice = _Choice()
            self.choices.append(choice)
            sizes = self.sizes(kept)
            choice.sized = tuple(
                (self.compile(p, closed, kept), _production_size(p, *sizes, closed))
                for p in self.productions(cat_name, kept) if not isinstance(p, Hole))
        return index

    def compile(self, p: Term, closed: bool, kept: _Mask) -> _Node:
        if isinstance(p, Metavariable):
            return self.choice(p.category, closed, kept)
        if isinstance(p, Var):
            return p
        if isinstance(p, BinderApp) or (isinstance(p, Constructor) and p.args):
            closed = closed and isinstance(p, Constructor)
            mins = [_production_size(s, *self.sizes(kept), closed) for s in p.args]
            return _Build(p, tuple((self.compile(s, closed, kept), low, sum(mins[i + 1:]))
                                   for i, (s, low) in enumerate(zip(p.args, mins))))
        return p, term_size(p)   # a nullary constructor or a hole, drawn as it is


def _draw(plan: _GenerationPlan, kept: _Mask, seed: int, max_size: int,
          min_budget: int) -> Iterator[Term]:
    """Endless stream of random closed Expression terms of size <= max_size
    from plan's grammar, with Expression narrowed by kept."""
    expr = plan.expression
    if expr is None:
        raise EngineError("spec has no Expression category to generate terms for")
    smallest = plan.sizes(kept)[1][expr.name]
    if smallest > max_size:
        raise EngineError(
            f"smallest closed term has {smallest} nodes, above max size {max_size}")
    getrandbits = random.Random(seed).getrandbits
    var_base = plan.var_base

    # Random.choice and Random.randint come down to this draw in
    # Random._randbelow; making it here skips their call layers and keeps
    # the stream.  n must be positive: a row a draw reaches is never empty,
    # as each slot's budget is at least the slot's smallest size.
    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    # gen returns the term it builds with its size, so a _Build need not
    # measure the arguments it has just built.  It runs once per node drawn,
    # hence the exact-class tests in place of a match statement.
    def gen(node: _Node, budget: int, scope: tuple[str, ...],
            depth: int) -> tuple[Term, int]:
        while type(node) is int:
            choice = choices[node]
            options = choice.rows.get(budget)
            if options is None:
                options = choice.fitting(budget)
            node = options[below(len(options))]
        kind = type(node)
        if kind is _Build:
            production = node.production
            binds = type(production) is BinderApp
            if binds:
                bound = f"{var_base}{depth}" if depth else var_base
                scope, depth = scope + (bound,), depth + 1
            args = []
            remaining = budget - 1
            for slot, low, reserve in node.slots:
                # A width-1 draw still takes its random bits, as randint does.
                arg, size = gen(slot, low + below(max(0, remaining - reserve - low) + 1),
                                scope, depth)
                args.append(arg)
                remaining -= size
            if binds:
                return BinderApp(production.binder, bound, tuple(args)), budget - remaining
            return Constructor(production.name, tuple(args)), budget - remaining
        if kind is Var:
            return Var(scope[below(len(scope))]), 1
        return node   # a leaf's (term, size) pair

    root, choices = plan.choice(expr.name, True, kept), plan.choices
    floor = max(smallest, min(min_budget, max_size))
    try:
        while True:
            yield gen(root, floor + below(max_size - floor + 1), (), 0)[0]
    finally:
        # gen reaches itself through its closure; breaking that cycle here
        # lets a closed stream free its Random by reference counting.
        gen = None


def iter_random_terms(spec: LanguageSpec, seed: int = 0, max_size: int = 7,
                      min_budget: int = 0) -> Iterator[Term]:
    """Endless stream of random closed Expression terms of size <= max_size.

    The stream is deterministic in (seed, max_size) and prefix-stable, so a
    caller that filters it still sees reproducible terms.  min_budget lifts
    the low end of the per-term size draw, biasing toward larger terms.
    """
    return _draw(spec.derived(_GenerationPlan), None, seed, max_size, min_budget)


def random_terms(spec: LanguageSpec, count: int, seed: int = 0,
                 max_size: int = 7) -> list[Term]:
    """Random closed Expression-category terms, each of size at most max_size."""
    return list(islice(iter_random_terms(spec, seed, max_size), count))


# Terms drawn from one grammar, full or narrowed, before the next is chosen.
SWARM_CHUNK = 25


def iter_swarm_terms(spec: LanguageSpec, seed: int = 0,
                     max_size: int = 7) -> Iterator[Term]:
    """Random terms, alternating full-grammar and narrowed-grammar chunks.

    A uniform grammar walk almost never lines up several rare productions in
    one term.  Every other chunk therefore narrows the Expression grammar to
    one focus operator, the binder productions, one leaf constant, and little
    else, with the size draw lifted toward the ceiling so the focus operator
    and its arguments fit.  Deterministic in the seed, and grammar-directed:
    only the production subset and size distribution vary per chunk.  A
    narrowed grammar is a mask over the spec's one generation plan.
    """
    rng = random.Random(seed)
    expr = spec.expression_category
    if expr is None:
        raise EngineError("spec has no Expression category to generate terms for")
    plan = spec.derived(_GenerationPlan)
    productions = expr.productions
    leaf_idx = [i for i, p in enumerate(productions)
                if isinstance(p, Constructor) and not p.args]
    focus_idx = [i for i, p in enumerate(productions)
                 if (isinstance(p, Constructor) and p.args)
                 or isinstance(p, BinderApp)]
    while True:
        kept = None
        floor = 0
        if focus_idx and len(productions) > 2 and rng.random() < 0.5:
            for _ in range(32):
                keep = {rng.choice(focus_idx)}
                if leaf_idx:
                    keep.add(rng.choice(leaf_idx))
                for i, p in enumerate(productions):
                    if isinstance(p, BinderApp):
                        if rng.random() < 0.75:
                            keep.add(i)
                    elif rng.random() < 0.15:
                        keep.add(i)
                candidate = tuple(sorted(keep))
                # One seed is taken per candidate, fit or not: the pinned
                # swarm streams depend on it.
                rng.randrange(2 ** 32)
                if plan.sizes(candidate)[1][expr.name] > max_size:
                    continue
                kept = candidate
                floor = rng.choice((max_size // 2, max_size))
                break
        yield from islice(_draw(plan, kept, rng.randrange(2 ** 32), max_size, floor),
                          SWARM_CHUNK)
