"""Executing language specifications: small-step evaluation, the continuation
machine, and syntax-directed typechecking.

Everything here treats the spec as data.  Reduction uses evaluation-context
decomposition; the machine interpreter runs MachineStep rules; the checker
discharges premises left to right under one growing substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    formula_terms,
    metavariable_tokens,
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


@dataclass(frozen=True, eq=False, repr=False)
class TraceStep:
    """One step of a run: its kind (contextual-reduction, machine-start,
    machine-order, machine-computation or machine-plug), the rule it used,
    and the states it starts and ends in.

    start and end are the states as the run holds them: a machine
    configuration, or a small-step state as its decomposition, a Focused.
    before and after read them whole, a Focused plugged on its first read.
    Steps are equal when their kinds, rules and whole states are.
    """

    kind: str
    rule_name: str
    start: Union[Term, MachineConfig, Focused]
    end: Union[Term, MachineConfig, Focused]

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


def _whole(state: Union[Term, MachineConfig, Focused]) -> Union[Term, MachineConfig]:
    return state.term() if type(state) is Focused else state


# ---------------------------------------------------------------------------
# grammar membership
#
# A bottom-up tree automaton: a node's states follow from its head and its
# children's states, so a fold computes them once per node.  A state is a
# category's name, or a production slot that is not a metavariable, as the
# (app v v) of Value v ::= (box (app v v)), held by the nodes it derives.

# States of nodes, by node: a fold's memo.  They are the nodes' categories,
# and more only in a spec with nested slots; categories() returns the names.
Categories = dict[Term, frozenset]

_NO_CATEGORIES: frozenset = frozenset()


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


def _state(slot: Term) -> Union[str, Term]:
    """The state a production slot reads of its argument: a metavariable's
    category, or else the slot itself."""
    return slot.category if type(slot) is Metavariable else slot


def _membership_table(spec: LanguageSpec) -> dict[tuple, tuple[
        frozenset, int, dict[object, tuple[tuple[tuple, frozenset], ...]]]]:
    """Transitions by the head of the node they derive.

    A non-unit production derives, from the states its slots read, every
    category that reaches it directly or through unit productions; a nested
    slot is one more transition, which derives its own state.  A
    substitution derives nothing.  Each head maps to every state that some
    node with that head derives, to a slot position, and to its transitions'
    distinct tuples of slot states, each with the states they derive, keyed
    by the state they read at that position.  The position is the one whose
    states tell the most transitions apart, so a node tries only those its
    child there can fire: a nested production makes a transition per level,
    each reading another state.
    """
    reached_by = spec.derived(_unit_closure)
    by_head: dict[tuple, dict[tuple, set]] = {}
    stack = [(p, reached_by[cat.name]) for cat in spec.categories for p in cat.productions
             if not isinstance(p, (Metavariable, Subst))]   # unit productions are closed over above
    while stack:
        p, names = stack.pop()
        slots = children(p)
        by_head.setdefault(term_head(p), {}).setdefault(
            tuple(map(_state, slots)), set()).update(names)
        stack.extend((s, (s,)) for s in slots if not isinstance(s, (Metavariable, Subst)))
    table = {}
    for head, entries in by_head.items():
        at = max(range(len(next(iter(entries)))), default=0,
                 key=lambda i: len({slots[i] for slots in entries}))
        index: dict[object, list] = {}
        for slots, names in entries.items():
            index.setdefault(slots[at] if slots else None, []).append((slots, frozenset(names)))
        table[head] = (frozenset().union(*entries.values()), at,
                       {state: tuple(group) for state, group in index.items()})
    return table


def categories(t: Term, spec: LanguageSpec,
               cats: Optional[Categories] = None) -> frozenset[str]:
    """Every grammar category that derives t.

    Pass one cats dict to calls on the same, unchanged terms to share their
    subterms' results.
    """
    states = _categories(t, spec.derived(_membership_table), {} if cats is None else cats)
    return frozenset(s for s in states if type(s) is str)


def _categories(t: Term, table: dict, cats: Categories) -> frozenset:
    """The states of t, in one fold over the nodes not in cats."""
    hit = cats.get(t)
    if hit is not None:
        return hit
    return fold(t, partial(_derived_by, table), cats)


def _derived_by(table: dict, t: Term, kids: tuple[frozenset, ...]) -> frozenset:
    """A fold's step: the states of t, from its head and its children's."""
    entry = table.get(term_head(t))
    if entry is None:
        return _NO_CATEGORIES
    states, at, index = entry
    if not kids:
        return states   # a leaf: no transition of its head has slots
    found = _NO_CATEGORIES
    for state in kids[at]:
        for slots, names in index.get(state, ()):
            if not names <= found and all(s in k for s, k in zip(slots, kids)):
                found = found | names
    return found


def member(t: Term, category_name: str, spec: LanguageSpec,
           cats: Optional[Categories] = None) -> bool:
    """Is t derivable from the named grammar category?"""
    return _member(t, category_name, spec.derived(_membership_table),
                   {} if cats is None else cats)


def _member(t: Term, name: Union[str, Term, None], table: dict, cats: Categories) -> bool:
    """member on a resolved table, of a category's name or another state:
    the memo first, then the head's states, and a walk of t only when
    neither settles it.  A name of None derives nothing."""
    hit = cats.get(t)
    if hit is not None:
        return name in hit
    entry = table.get(term_head(t))
    if entry is None or name not in entry[0]:
        return False
    return name in _categories(t, table, cats)


def _value_test(spec: LanguageSpec) -> tuple[Optional[str], dict]:
    """What a value test reads: the Value category's name, and the table."""
    value = spec.value_category
    return (value.name if value is not None else None), spec.derived(_membership_table)


def is_value(t: Term, spec: LanguageSpec, cats: Optional[Categories] = None) -> bool:
    value, table = spec.derived(_value_test)
    return _member(t, value, table, {} if cats is None else cats)


# ---------------------------------------------------------------------------
# pattern matching and instantiation
#
# A pattern runs as a flat program of (opcode, a, b) instructions, so no
# pattern depth meets the recursion limit; _Programs compiles each rule's
# once per spec.  A match program checks the pattern's nodes in pre-order,
# each against a subject popped from an explicit stack.  A build program
# holds them in postfix, each pushing what it builds from its children's.

_BIND, _CONSTRUCTOR, _BINDER, _VAR, _NEVER, _TERM, _SUBST = range(7)


def _match_program(patterns: tuple[Term, ...], value: Optional[str]) -> tuple:
    """The checks that match patterns against as many subjects, in turn."""
    return tuple(
        (_BIND, p.token, p.category == value) if type(p) is Metavariable
        else (_VAR, p.name, p) if type(p) is Var
        else (_CONSTRUCTOR, p.name, len(p.args)) if type(p) is Constructor
        else (_BINDER, (p.binder, len(p.args)), p.bound_var) if type(p) is BinderApp
        else (_NEVER, None, None)
        for pattern in patterns for p in subterms(pattern))


def _run_match(program: tuple, stack: list[Term], sigma: Substitution,
               value: Optional[str], table: dict, cats: Categories) -> bool:
    """Match the subjects on stack, the first on top, extending sigma: a
    metavariable binds or compares, one of the Value category only values;
    a variable compares with what its binder bound; a hole or a substitution
    matches nothing.  False at the first check that fails."""
    pop = stack.pop
    for op, a, b in program:
        s = pop()
        if op == _BIND:
            if (b and not _member(s, value, table, cats)) or sigma.setdefault(a, s) != s:
                return False
        elif op == _CONSTRUCTOR:
            if type(s) is not Constructor or s.name != a or len(s.args) != b:
                return False
            stack.extend(reversed(s.args))
        elif op == _BINDER:
            if type(s) is not BinderApp or (s.binder, len(s.args)) != a:
                return False
            bound = Var(s.bound_var)
            if sigma.setdefault(b, bound) != bound:
                return False
            stack.extend(reversed(s.args))
        elif op == _NEVER or sigma.get(a, b) != s:
            return False
    return True


def _build_program(patterns: tuple[Term, ...]) -> tuple:
    """The instructions that build patterns' instances, in turn: postfix is
    the reverse of a pre-order that visits children right to left."""
    program, stack = [], list(patterns)
    while stack:
        p = stack.pop()
        kind = type(p)
        program.append(
            (_BIND, p.token, None) if kind is Metavariable
            else (_VAR, p.name, p) if kind is Var
            else (_TERM, p, None) if kind is Hole or (kind is Constructor and not p.args)
            else (_CONSTRUCTOR, p.name, len(p.args)) if kind is Constructor
            else (_BINDER, p, len(p.args)) if kind is BinderApp
            else (_SUBST, p.var, 2))
        stack.extend(children(p))
    return tuple(reversed(program))


def _run_build(program: tuple, sigma: Substitution) -> list[Term]:
    """The terms a build program builds under a match.  A variable or a
    binder's bound variable is renamed as the match bound it."""
    stack: list[Term] = []
    push = stack.append
    for op, a, b in program:
        if op == _BIND:
            bound = sigma.get(a)
            if bound is None:
                raise EngineError(f"unbound metavariable {a!r} in a right-hand side")
            push(bound)
        elif op == _TERM:
            push(a)
        elif op == _VAR:
            bound = sigma.get(a)
            push(bound if type(bound) is Var else b)
        else:
            at = len(stack) - b
            kids = tuple(stack[at:])
            del stack[at:]
            if op == _CONSTRUCTOR:
                push(Constructor(a, kids))
            elif op == _BINDER:
                bound = sigma.get(a.bound_var)
                push(BinderApp(a.binder, bound.name if type(bound) is Var else a.bound_var, kids))
            else:
                bound = sigma.get(a)
                push(substitute(kids[0], bound.name if type(bound) is Var else a, kids[1]))
    return stack


def match_pattern(pattern: Term, subject: Term, spec: LanguageSpec,
                  bindings: Optional[Substitution] = None) -> Optional[Substitution]:
    """Match subject against pattern, extending bindings; None when no match.

    A metavariable of the Value category only matches grammar values; other
    metavariables match any term.
    """
    sigma = dict(bindings) if bindings is not None else {}
    value, table = spec.derived(_value_test)
    return sigma if _run_match(_match_program((pattern,), value), [subject], sigma,
                               value, table, {}) else None


def instantiate(pattern: Term, sigma: Substitution, spec: LanguageSpec) -> Term:
    """Build the term a rule pattern denotes under a match: a right-hand side,
    or a typing premise's subject or type."""
    return _run_build(_build_program((pattern,)), sigma)[0]


class _Programs:
    """One spec's rules, compiled once: each reduction rule with its match
    and build programs; for a focus that is no value and for one that is,
    the machine rules by continuation head (_by_continuation), each with its
    name, step kind, and programs matching and building focus and
    continuation together."""

    def __init__(self, spec: LanguageSpec):
        value, self.table = spec.derived(_value_test)
        self.value = value
        self.reduction = tuple((rule, _match_program((rule.conclusion.lhs,), value),
                                _build_program((rule.conclusion.rhs,)))
                               for rule in spec.reduction_rules())
        by_focus: tuple[list, list] = ([], [])
        for rule in spec.machine_rules():
            lhs, rhs = rule.conclusion.lhs, rule.conclusion.rhs
            by_focus[is_value_pattern(lhs.focus, spec)].append((lhs.continuation, (
                rule.name, _machine_kind(rule.name),
                _match_program((lhs.focus, lhs.continuation), value),
                _build_program((rhs.focus, rhs.continuation)))))
        self.machine = tuple(map(_by_continuation, by_focus))


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
    value, table = spec.derived(_value_test)
    whole = t if frames is None else None
    while isinstance(t, Constructor):
        for hole_at, others in contexts.get((t.name, len(t.args)), ()):
            # Both tests are pure, so their order leaves the descent as it
            # is.  The hole's goes first: when the hole holds a value, the
            # other slots, however big, are not walked.
            args = t.args
            if not _member(args[hole_at], value, table, cats) \
                    and all(state in _categories(args[i], table, cats) for i, state in others):
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

    A node's states follow from its head and its arguments' states, and a
    decomposition reads no more of a node than these.  So the walk pops
    frames up from the reduct and stops at the first whose transitions read
    the same states of the argument that changed below it: that node keeps
    its states, every frame above it stays as it was, and the descent
    resumes at the node itself, whose own context may now be another.  Only
    the frames the walk passes are filled or pushed.
    """
    views = spec.derived(_frame_views)
    table = spec.derived(_membership_table)
    new, old = reduct, redex
    while frames is not None:
        frame, frames = frames, frames.above
        node = frame.node
        kept = all(_member(new, state, table, cats) == _member(old, state, table, cats)
                   for state in views[node.name, len(node.args), frame.hole_at])
        new = frame.fill(new)
        if kept:
            return _descend(new, frames, spec, cats), True
        old = frame.fill(old)
    return _descend(new, None, spec, cats), False


def _context_table(spec: LanguageSpec) -> dict[tuple[str, int], list[tuple[int, list]]]:
    """Operator context productions by (name, arity), in grammar order, each as
    its hole position and its other slots as (position, state) pairs."""
    ctx = spec.context_category
    table: dict[tuple[str, int], list[tuple[int, list]]] = {}
    for prod in ctx.productions if ctx is not None else ():
        if isinstance(prod, Constructor):
            holes = context_holes(prod, ctx.name)
            if holes:
                others = [(i, _state(a)) for i, a in enumerate(prod.args) if i != holes[0]]
                table.setdefault((prod.name, len(prod.args)), []).append((holes[0], others))
    return table


def _frame_views(spec: LanguageSpec) -> dict[tuple[str, int, int], frozenset]:
    """Per context operator (name, arity) and argument position, the states
    that the transitions of its head read of the argument there.  A
    transition that reads a hole, as (app [.] e) does, derives no run-time
    term, so its slots read nothing."""
    table, contexts = spec.derived(_membership_table), spec.derived(_context_table)
    views = {(name, arity, at): set() for name, arity in contexts for at in range(arity)}
    for name, arity in contexts:
        for group in table[("con", name, arity)][2].values():
            for slots, _ in group:
                if HOLE not in slots:
                    for at, state in enumerate(slots):
                        views[name, arity, at].add(state)
    return {key: frozenset(states) for key, states in views.items()}


def plug(context: Term, filler: Term) -> Term:
    """context with filler in place of its hole."""
    return fold(context, lambda t, kids: filler if type(t) is Hole else rebuild(t, kids), {})


# ---------------------------------------------------------------------------
# small-step evaluation


def _contract(redex: Term, programs: _Programs,
              cats: Categories) -> Optional[tuple[InferenceRule, Term]]:
    """The first reduction rule that matches redex, and the reduct it
    builds; None when no rule applies."""
    for rule, lhs, rhs in programs.reduction:
        sigma: Substitution = {}
        if _run_match(lhs, [redex], sigma, programs.value, programs.table, cats):
            return rule, _run_build(rhs, sigma)[0]
    return None


def step(t: Term, spec: LanguageSpec) -> Optional[TraceStep]:
    """One contextual reduction of t, or None when no rule applies."""
    cats: Categories = {}
    state = _descend(t, None, spec, cats)
    contracted = _contract(state.focus, spec.derived(_Programs), cats)
    return None if contracted is None else TraceStep(
        "contextual-reduction", contracted[0].name, t, plug_frames(state.frames, contracted[1]))


def evaluate(t: Term, spec: LanguageSpec, fuel: int = 10000,
             cats: Optional[Categories] = None) -> tuple[Term, list[TraceStep]]:
    """Iterate step until a value; raises Stuck or OutOfFuel.

    The run's state is the decomposition of its term, a Focused: after a
    contraction only the focus is replaced, and the run refocuses near the
    reduct instead of descending from the root again.  Whole terms are
    plugged only when asked for: the value, the term of a Stuck or
    OutOfFuel, or a step's before or after when read.  The value test is
    skipped on a state whose root keeps the categories of the state before
    it, which was no value.  cats is the membership memo, which calls on
    terms of one spec may share: a term's categories never change.
    """
    cats = {} if cats is None else cats
    if is_value(t, spec, cats):   # most compared terms are: decompose none of them
        return t, []
    # The last state known to be no value: the first, or one whose root
    # kept the categories of the state before it.
    no_value: Optional[Focused] = _descend(t, None, spec, cats)
    programs = spec.derived(_Programs)

    def finished(state: Focused) -> bool:
        return state is not no_value and is_value(state.term(), spec, cats)

    def advance(state: Focused) -> Optional[TraceStep]:
        nonlocal no_value
        contracted = _contract(state.focus, programs, cats)
        if contracted is None:
            return None
        rule, reduct = contracted
        after, kept = _refocus(state.frames, reduct, state.focus, spec, cats)
        no_value = after if kept else None
        return TraceStep("contextual-reduction", rule.name, state, after)

    final, trace = _run(no_value, fuel, finished, advance, Stuck)
    return final.term(), trace


def _run(state: Union[Focused, MachineConfig], fuel: int, finished, advance,
         stuck: type[EngineError]) -> tuple[Union[Focused, MachineConfig], list[TraceStep]]:
    """The fuel loop of both semantics: advance state one step at a time until
    finished(state) holds.  advance(state) returns the step taken, or None
    when no rule applies, which raises stuck with the whole state and the
    trace.  Both share the run's one membership memo: terms are immutable,
    so a subterm a step shares with the state before it keeps its
    categories.  A run's own memo keeps only nodes its trace holds already;
    one its caller shares keeps them until the caller drops it.

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
    value, table = spec.derived(_value_test)
    closure = spec.derived(_unit_closure)
    cats: Categories = {s: closure.get(s.category, _NO_CATEGORIES)
                        for s in subterms(pattern) if isinstance(s, Metavariable)}
    return _member(pattern, value, table, cats)


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


def _by_continuation(rules: list[tuple[Term, tuple]]) -> tuple[dict, tuple]:
    """Rules given with their continuation patterns, in order, by the head a
    continuation needs to match them, and the rules a continuation of any
    other head tries: a constructor or binder pattern matches its head only."""
    keyed = [(term_head(c) if type(c) in (Constructor, BinderApp) else None, e)
             for c, e in rules]

    def trying(head: Optional[tuple]) -> tuple:
        return tuple(e for k, e in keyed if k is None or k == head)
    return {k: trying(k) for k, _ in keyed if k is not None}, trying(None)


def machine_step(config: MachineConfig, spec: LanguageSpec) -> Optional[TraceStep]:
    """One machine transition from config, or None when no rule applies.

    Rule choice is split on whether the focus is a value: a value focus only
    consults rules whose focus pattern is value-shaped (order, computation,
    plug), a non-value focus only the rest (start).  Plain first-match order
    would re-enter the rebuilding rules of value formers forever.
    """
    return _machine_step(config, spec.derived(_Programs), {})


def _machine_step(config: MachineConfig, programs: _Programs,
                  cats: Categories) -> Optional[TraceStep]:
    value, table = programs.value, programs.table
    focus, continuation = config.focus, config.continuation
    index, rest = programs.machine[_member(focus, value, table, cats)]
    for name, kind, lhs, rhs in index.get(term_head(continuation), rest):
        sigma: Substitution = {}
        if _run_match(lhs, [continuation, focus], sigma, value, table, cats):
            return TraceStep(kind, name, config, MachineConfig(*_run_build(rhs, sigma)))
    return None


def ck_eval(config: MachineConfig, spec: LanguageSpec, fuel: int = 10000,
            cats: Optional[Categories] = None) -> tuple[Term, list[TraceStep]]:
    """Iterate machine_step until the terminal ⟨value, mt⟩ configuration;
    raises StuckMachine or OutOfFuel.  cats is the membership memo, as for
    evaluate."""
    cats = {} if cats is None else cats
    programs = spec.derived(_Programs)
    final, trace = _run(config, fuel,
                        lambda c: c.continuation == MT and is_value(c.focus, spec, cats),
                        lambda c: _machine_step(c, programs, cats), StuckMachine)
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
#
# Each typing rule compiles once per spec to its subject's match program, its
# premises' steps and its type's build program.  typecheck discharges them in
# frames on an explicit stack, passing environments down and types or
# failures up.

_TYPING, _SUBTYPE, _JOIN = range(3)
_REFUSE = (None, None, None, None)


def _typing_rules(spec: LanguageSpec) -> tuple[dict, Optional[str], dict]:
    """The typing rules compiled, by the head of their subject, with the
    value test their matches read; raises NotSyntaxDirected when two rules
    conclude subjects with one head.  An equality is a join of one operand
    into the side still unbound, which the rule tells, as each match binds
    every metavariable of its pattern.  So it tells, too, where a rule first
    builds from a metavariable it leaves unbound: there the node is refused,
    as no rule applies to it."""
    value, membership = spec.derived(_value_test)
    table: dict[tuple, tuple[tuple, list, tuple]] = {}
    for rule in spec.typing_rules():
        subject, head = rule.conclusion.subject, term_head(rule.conclusion.subject)
        if head in table:
            raise NotSyntaxDirected(str(head[1] if len(head) > 1 else head[0]))
        bound, steps = set(metavariable_tokens(subject)), []

        def unbound(*patterns: Term) -> bool:
            return not bound.issuperset(m for p in patterns for m in metavariable_tokens(p))

        for f in rule.premises:
            if type(f) is Typing:
                built = (f.subject, *(t for v, ty in f.env.extensions for t in (Var(v), ty)))
                steps.append(_REFUSE if unbound(*built) else (
                    _TYPING, _build_program(built), _match_program((f.ty,), value), None))
                bound.update(metavariable_tokens(f.ty))
            elif type(f) is Subtype:
                steps.append(_REFUSE if unbound(f.sub, f.sup) else (
                    _SUBTYPE, _build_program((f.sub,)), _build_program((f.sup,)), None))
            elif type(f) is TypeEq or type(f) is Join:
                result, *operands = formula_terms(f)
                if type(f) is TypeEq and type(f.right) is Metavariable and f.right.token not in bound:
                    result, operands = f.right, [f.left]
                token = result.token if type(result) is Metavariable \
                    and result.token not in bound else None
                steps.append(_REFUSE if unbound(*operands) else (
                    _JOIN, token, None if unbound(result) else _build_program((result,)),
                    tuple(_build_program((o,)) for o in operands)))
                bound.add(token)
            else:
                steps.append((None, f"rule {rule.name!r} has an unsupported premise for checking",
                              None, None))
        if unbound(rule.conclusion.ty):
            steps.append(_REFUSE)
        table[head] = (_match_program((subject,), value), steps,
                       _build_program((rule.conclusion.ty,)))
    return table, value, membership


# Types of nodes typed under the empty environment, by node: a typing memo.
# A node's value is its type, or the first failure that refuses it.
Types = dict[Term, Term | TypecheckError]


def typecheck(t: Term, spec: LanguageSpec, env: Optional[dict[str, Term]] = None,
              types: Optional[Types] = None) -> Term:
    """Type of a term under syntax-directed rules; raises TypecheckError.

    types is the typing memo.  Pass one to calls on terms of one spec to
    type each node under the empty environment once: terms are immutable,
    so its type never changes.  Each raise is a fresh copy of the failure.
    """
    typed = _type_of(t, env or {}, spec, {} if types is None else types)
    if isinstance(typed, TypecheckError):
        copy = TypecheckError.__new__(type(typed), *typed.args)
        copy.__dict__.update(vars(typed))
        raise copy
    return typed


def _type_of(t: Term, env: dict[str, Term], spec: LanguageSpec,
             types: Types) -> Union[Term, TypecheckError]:
    """The type of t under env, or the failure that refuses it.  A frame,
    [subterm, rule, sigma, env, step], discharges a subterm's rule: a typing
    step descends into its subject under the environment it extends, and
    what comes back, a type that must match the step's or a failure that
    pops the frame, goes to the frame below.  Under the empty environment a
    node is looked up in types before its rule is matched, and what it
    comes back with is kept there: one failure, kept and never raised, for
    every frame it pops."""
    rules, value, table = spec.derived(_typing_rules)
    cats: Categories = {}
    frames: list[list] = []
    while True:
        typed = None if env else types.get(t)
        if typed is None:
            if type(t) is Var:
                typed = env[t.name] if t.name in env else UnboundVariable(t.name)
            else:
                rule, sigma = rules.get(term_head(t)), {}
                if rule is None or not _run_match(rule[0], [t], sigma, value, table, cats):
                    typed = NoRuleApplies(t)
                elif rule[1]:
                    frames.append([t, rule, sigma, env, 0])
                else:   # an axiom: its type goes up at once
                    typed = _run_build(rule[2], sigma)[0]
            if typed is not None and not env:
                types[t] = typed
        # typed is what t comes back with, or None for the frame just pushed
        while frames:
            frame = frames[-1]
            node, (_, steps, build), sigma, scope, at = frame
            if typed is not None:   # what steps[at]'s subject came back with
                if not isinstance(typed, TypecheckError):
                    matched = _run_match(steps[at][2], [typed], sigma, value, table, cats)
                    typed = None if matched else NoRuleApplies(node)
                at += 1
            while typed is None and at < len(steps):
                op, a, b, c = steps[at]
                if op == _TYPING:   # descend into its subject, under its extensions
                    frame[4], (t, *bound) = at, _run_build(a, sigma)
                    env = dict(scope, **{v.name: ty for v, ty in zip(bound[::2], bound[1::2])}) \
                        if bound else scope
                    break
                typed = _premise(op, a, b, c, sigma, node, spec)
                at += 1
            else:
                if typed is None:
                    typed = _run_build(build, sigma)[0]
                if not scope:
                    types[node] = typed
                frames.pop()
                continue
            break
        else:
            return typed


def _premise(op: Optional[int], a, b, c, sigma: Substitution, node: Term,
             spec: LanguageSpec) -> Optional[TypecheckError]:
    """Discharge a subtype step, a join step, which binds its result's token
    if it has one and compares with its result if it can build it, or a
    step that refuses node or states an unsupported premise; the failure,
    if any."""
    if op == _SUBTYPE:
        sub, sup = _run_build(a, sigma)[0], _run_build(b, sigma)[0]
        return None if check_subtype(sub, sup, spec) else SubtypeFailure(sub, sup)
    if op is None:
        return NoRuleApplies(node) if a is None else TypecheckError(a)
    try:
        joined = join_all(tuple(_run_build(o, sigma)[0] for o in c), spec)
    except NoJoin as exc:
        return SubtypeFailure(exc.t1, exc.t2)
    if a is not None:
        sigma[a] = joined
    elif b is None:   # a result that reads a metavariable the rule leaves unbound
        return NoRuleApplies(node)
    elif (built := _run_build(b, sigma)[0]) != joined:
        return SubtypeFailure(built, joined)
    return None


# ---------------------------------------------------------------------------
# random closed terms


_BIG = 10 ** 9


def _production_size(p: Term, open_sizes: dict[str, int],
                     closed_sizes: dict[str, int], closed: bool) -> int:
    """Smallest size of a term built from production p, by the given tables."""
    return fold(p, partial(_smallest, (open_sizes, closed_sizes)), {})[closed]


def _smallest(sizes: _Sizes, p: Term, kids: tuple) -> tuple[int, int]:
    """A fold's step: the smallest sizes of a term built from production
    node p, open and closed, from its children's and the (open, closed)
    tables.  Slots under a binder always see a variable in scope, so they
    use the open table even when the surrounding term is closed."""
    kind = type(p)
    if kind is Metavariable:
        return sizes[0].get(p.category, _BIG), sizes[1].get(p.category, _BIG)
    if kind is Var:
        return 1, _BIG
    return 1 + sum(kid[0] for kid in kids), 1 + sum(kid[kind is not BinderApp] for kid in kids)


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


class _Choice(dict):
    """A category in a generation plan, for closed or open terms: its
    productions with their smallest sizes, and by budget the row of those
    that fit, as (options, their number, its bit length), filled the first
    time that budget is drawn."""

    __slots__ = ("sized",)

    def __init__(self, sized: tuple[tuple[_Node, int], ...]):
        super().__init__()
        self.sized = sized

    def __missing__(self, budget: int) -> tuple[tuple[_Node, ...], int, int]:
        options = tuple(p for p, size in self.sized if size <= budget)
        row = self[budget] = options, len(options), len(options).bit_length()
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
    _Sizes = tuple[dict[str, int], dict[str, int]]


class _GenerationPlan:
    """How one spec's grammar is drawn from, whole or with Expression
    narrowed by a mask.  A draw reads the _Choice of each category, for open
    or closed terms, at that pair's fixed slot id (indices) in its mask's
    list (masks).  A production compiles once per size table to a _Build, a
    Var, a (term, size) pair drawn as it is, or, for a metavariable, its
    category's slot id.  Only the Expression cycle's sizes and choices
    depend on a mask; a mask that keeps their unmasked sizes shares the
    unmasked choices of the rest of the cycle.

    Slot ids in place of references keep a recursive grammar's plan free of
    reference cycles, so it is freed with its spec by reference counting,
    not by a later run of the cycle collector.
    """

    def __init__(self, spec: LanguageSpec):
        self.categories = {cat.name: cat for cat in spec.categories}
        self.expression = spec.expression_category
        self.var_base = spec.variables[0] if spec.variables else "x"
        self.cycle = _expression_cycle(spec)
        self.indices = {(name, closed): 2 * i + closed
                        for i, name in enumerate(self.categories) for closed in (False, True)}
        unmasked = spec.derived(_min_sizes)
        self.size_tables: dict[_Mask, _Sizes] = {None: unmasked}
        # The productions that reach a cycle category's unmasked smallest
        # sizes other than through a unit production of the cycle: a mask
        # that keeps one of each keeps the unmasked sizes.
        self.reaching = {(name, closed): {
            i for i, p in enumerate(self.categories[name].productions)
            if not isinstance(p, Hole) and not (type(p) is Metavariable and p.category in self.cycle)
            and _production_size(p, *unmasked, closed) == unmasked[closed][name]}
            for name in self.cycle for closed in (False, True)}
        self.plans: dict[tuple, dict] = {}   # a fold memo per size table
        self.masks = {None: [self.choice(name, closed, unmasked, None)
                             for name, closed in self.indices]}

    def productions(self, cat_name: str, kept: _Mask) -> tuple[Term, ...]:
        productions = self.categories[cat_name].productions
        if kept is None or cat_name != self.expression.name:
            return productions
        return tuple(productions[i] for i in kept)

    def sizes(self, kept: _Mask) -> _Sizes:
        """Smallest open and closed sizes per category under the mask."""
        sizes = self.size_tables.get(kept)
        if sizes is None:
            sizes = self.size_tables[kept] = self.size_mask(kept)
        return sizes

    def size_mask(self, kept: _Mask) -> _Sizes:
        unmasked = self.size_tables[None]
        if all(not reach.isdisjoint(kept if name == self.expression.name else reach)
               for (name, _), reach in self.reaching.items()):
            return unmasked
        # Only the cycle's sizes depend on the mask: refit them, the rest fixed.
        open_sizes, closed_sizes = (dict(table) for table in unmasked)
        for name in self.cycle:
            open_sizes[name] = closed_sizes[name] = _BIG
        _size_fixpoint([(name, self.productions(name, kept)) for name in self.cycle],
                       open_sizes, closed_sizes)
        return open_sizes, closed_sizes

    def choices(self, kept: _Mask) -> list[_Choice]:
        found = self.masks.get(kept)
        if found is None:
            sizes = self.sizes(kept)
            found = self.masks[kept] = list(self.masks[None])
            for name in self.cycle:
                if name == self.expression.name or sizes is not self.size_tables[None]:
                    for closed in (False, True):
                        found[self.indices[name, closed]] = self.choice(name, closed, sizes, kept)
        return found

    def choice(self, cat_name: str, closed: bool, sizes: _Sizes, kept: _Mask) -> _Choice:
        compile_ = partial(self.compile, sizes)
        memo = self.plans.setdefault(tuple(t[name] for t in sizes for name in self.cycle), {})
        return _Choice(tuple((plans[closed], smallest[closed]) for plans, smallest in (
            fold(p, compile_, memo) for p in self.productions(cat_name, kept)
            if not isinstance(p, Hole))))

    def compile(self, sizes: _Sizes, p: Term, kids: tuple) -> tuple[tuple, tuple[int, int]]:
        """A fold's step: a production node's plans, for open and for closed
        terms, from its children's, with its smallest sizes."""
        smallest, kind = _smallest(sizes, p, [kid[1] for kid in kids]), type(p)
        if kind is Metavariable:
            return (self.indices[p.category, False], self.indices[p.category, True]), smallest
        if kind is Var:
            return (p, p), smallest
        if kind is not BinderApp and not (kind is Constructor and p.args):
            return ((p, term_size(p)),) * 2, smallest   # drawn as it is
        plans = []
        for closed in (False, True):
            inner = closed and kind is Constructor
            lows = [kid[1][inner] for kid in kids]
            plans.append(_Build(p, tuple((kid[0][inner], low, sum(lows[i + 1:]))
                                         for i, (kid, low) in enumerate(zip(kids, lows)))))
        return tuple(plans), smallest


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

    # Each pick below of r in range(n) is Random.choice's and Random.randint's
    # draw in Random._randbelow, made in place: it skips their call layers
    # and keeps the stream.  n must be positive: a row a draw reaches is
    # never empty, as each slot's budget is at least the slot's smallest size.
    # gen returns the term it builds with its size, so a _Build need not
    # measure the arguments it has just built.  It runs once per node drawn,
    # hence the exact-class tests in place of a match statement.
    def gen(node: _Node, budget: int, scope: tuple[str, ...],
            depth: int) -> tuple[Term, int]:
        while type(node) is int:
            options, n, k = choices[node][budget]
            while (r := getrandbits(k)) >= n:
                pass
            node = options[r]
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
                n = remaining - reserve - low + 1
                if n < 1:
                    n = 1
                k = n.bit_length()
                while (r := getrandbits(k)) >= n:
                    pass
                give = low + r
                if type(slot) is int:   # pick here: a leaf needs no call of gen
                    options, n, k = choices[slot][give]
                    while (r := getrandbits(k)) >= n:
                        pass
                    slot = options[r]
                arg, size = slot if type(slot) is tuple else gen(slot, give, scope, depth)
                args.append(arg)
                remaining -= size
            if binds:
                return BinderApp(production.binder, bound, tuple(args)), budget - remaining
            return Constructor(production.name, tuple(args)), budget - remaining
        if kind is Var:
            n = len(scope)
            k = n.bit_length()
            while (r := getrandbits(k)) >= n:
                pass
            return Var(scope[r]), 1
        return node   # a leaf's (term, size) pair

    root, choices = plan.indices[expr.name, True], plan.choices(kept)
    floor = max(smallest, min(min_budget, max_size))
    widths = max_size - floor + 1
    k = widths.bit_length()
    try:
        while True:
            while (r := getrandbits(k)) >= widths:
                pass
            yield gen(root, floor + r, (), 0)[0]
    finally:
        # gen reaches itself through its closure; breaking that cycle here
        # lets a closed stream free its Random by reference counting.
        gen = None


def iter_random_terms(spec: LanguageSpec, seed: int = 0, max_size: int = 7) -> Iterator[Term]:
    """Endless stream of random closed Expression terms of size <= max_size.

    The stream is deterministic in (seed, max_size) and prefix-stable, so a
    caller that filters it still sees reproducible terms.
    """
    return _draw(spec.derived(_GenerationPlan), None, seed, max_size, 0)


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
