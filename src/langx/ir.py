"""Core data types for language specifications: terms, formulas, grammars, rules,
and the states of a small-step run.

Everything here is immutable, and equal terms are one object.  Terms double as
patterns: a Metavariable node in a rule matches terms of its category, while
concrete programs contain only Var/Constructor/BinderApp nodes.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, TypeVar

COVARIANT = "co"
CONTRAVARIANT = "contra"
INVARIANT = "inv"
VARIANCE_MARKS = (COVARIANT, CONTRAVARIANT, INVARIANT)

# Variance for the usual type constructors, merged into a spec's table at
# parse time when the spec does not declare them itself.
DEFAULT_VARIANCE: dict[str, tuple[str, ...]] = {
    "arrow": (CONTRAVARIANT, COVARIANT),
    "Ref": (INVARIANT,),
    "List": (COVARIANT,),
    "prod": (COVARIANT, COVARIANT),
    "sum": (COVARIANT, COVARIANT),
}

_SUFFIX_RE = re.compile(r"[0-9']*")
_T = TypeVar("_T")


class LangxError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownMetavariable(LangxError):
    pass


# ---------------------------------------------------------------------------
# terms

class _Interned:
    """Base of the term and state classes: building a node with the fields of
    a live one returns that node, so == and hash are identity, O(1) at any
    depth.  Each class keeps a table of weak references, from which a node's
    entry goes when the node dies; building from several threads is
    unsupported.  The fields are those of __match_args__; a class may have
    further slots."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        cls._table = table = {}
        cls._setters = [getattr(cls, f).__set__ for f in cls.__match_args__]

        def drop(ref: _Ref) -> None:
            # Freeing the key frees the node's children in turn.  The
            # collector clears references before it calls their callbacks, so
            # a node with these fields may have been built meanwhile: keep it.
            if table.get(ref.key) is ref:
                del table[ref.key]
        cls._drop = drop

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class _Ref(weakref.ref):
    """A table's reference to a node, with the node's key."""

    __slots__ = ("key",)


def _no_node() -> None:
    """The reference a table gives for fields no node has had."""


def _intern(cls: type, key: tuple):
    """A new node of cls with the fields key, kept in cls's table."""
    node = object.__new__(cls)
    for set_field, value in zip(cls._setters, key):
        set_field(node, value)
    cls._table[key] = ref = _Ref(node, cls._drop)
    ref.key = key
    return node


class Metavariable(_Interned):
    """A rule-level variable ranging over a grammar category, e.g. T12 or e'."""

    __slots__ = __match_args__ = ("base", "suffix", "category")

    def __new__(cls, base: str, suffix: Optional[str], category: str) -> Metavariable:
        key = (base, suffix, category)
        return cls._table.get(key, _no_node)() or _intern(cls, key)

    @property
    def token(self) -> str:
        return self.base + (self.suffix or "")


class Var(_Interned):
    """An object-level variable occurrence, e.g. the body of (lam x T x)."""

    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> Var:
        return cls._table.get((name,), _no_node)() or _intern(cls, (name,))


class Constructor(_Interned):
    __slots__ = __match_args__ = ("name", "args")

    def __new__(cls, name: str, args: tuple[Term, ...] = ()) -> Constructor:
        key = (name, args)
        return cls._table.get(key, _no_node)() or _intern(cls, key)


class BinderApp(_Interned):
    """A binding construct: binder name, the bound variable, remaining args."""

    __slots__ = __match_args__ = ("binder", "bound_var", "args")

    def __new__(cls, binder: str, bound_var: str, args: tuple[Term, ...]) -> BinderApp:
        key = (binder, bound_var, args)
        return cls._table.get(key, _no_node)() or _intern(cls, key)


@dataclass(frozen=True, slots=True)
class Hole:
    """The hole of an evaluation context."""


@dataclass(frozen=True, slots=True)
class Subst:
    """Deferred substitution target[replacement/var] on a rule right-hand side."""

    target: "Term"
    replacement: "Term"
    var: str


# PEP 604 unions, not typing.Union: typing caches a Union with its member
# classes, which would keep every re-imported copy of this module alive.
Term = Metavariable | Var | Constructor | BinderApp | Hole | Subst
HOLE = Hole()


def children(t: Term) -> tuple[Term, ...]:
    """The terms directly below t: its arguments, or a substitution's target
    and replacement."""
    kind = type(t)
    if kind is Constructor or kind is BinderApp:
        return t.args
    return (t.target, t.replacement) if kind is Subst else ()


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    """t with its children replaced by kids; t itself when they are its children."""
    if kids == children(t):
        return t
    if type(t) is Constructor:
        return Constructor(t.name, kids)
    if type(t) is BinderApp:
        return BinderApp(t.binder, t.bound_var, kids)
    return Subst(kids[0], kids[1], t.var)


def fold(t: Term, combine: Callable[[Term, tuple], _T], memo: dict[Term, _T]) -> _T:
    """combine(node, the results of node's children) at t, worked out children
    first on an explicit stack, so t may be nested to any depth.

    combine runs once for each distinct node of t not already in memo, and
    memo keeps its result under the node.  Equal terms are one node, so a
    subterm that t repeats, or that an earlier fold into the same memo met,
    is combined once.
    """
    if t in memo:
        return memo[t]
    stack = [(t, children(t))]
    while stack:
        node, kids = stack[-1]
        waiting = len(stack)
        for kid in kids:
            if kid not in memo:
                below = children(kid)
                if below:
                    stack.append((kid, below))
                else:   # a leaf is combined at once, without a stack round
                    memo[kid] = combine(kid, ())
        if len(stack) > waiting:
            continue
        stack.pop()
        if node not in memo:   # a node shared by two siblings is pushed twice
            memo[node] = combine(node, tuple([memo[kid] for kid in kids]))
    return memo[t]


def term_size(t: Term, sizes: Optional[dict[Term, int]] = None) -> int:
    """Number of nodes in a term, annotation subterms included.  Pass one
    sizes dict to calls on one term and its subterms to share their sizes."""
    return fold(t, lambda _, kid_sizes: 1 + sum(kid_sizes), {} if sizes is None else sizes)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, t itself first, pre-order, on an explicit stack."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def map_leaves(t: Term, leaf: Callable[[Term], Term]) -> Term:
    """t rebuilt with leaf applied to each node without children, in
    pre-order, once per occurrence, on an explicit stack: a node is popped
    once to push its children and once, marked done, to rebuild it."""
    built: list[Term] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        kids = children(node)
        if not kids:
            built.append(leaf(node))
        elif done:
            at = len(built) - len(kids)
            built[at:] = [rebuild(node, tuple(built[at:]))]
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
    return built[0]


def term_head(t: Term) -> tuple:
    """The key of t's outermost node: constructor or binder name with its
    arity, or the leaf kind.  Metavariables and substitutions share ("any",).
    Membership and matching ask it per node, hence exact-class tests in place
    of a match statement."""
    kind = type(t)
    if kind is Constructor:
        return "con", t.name, len(t.args)
    if kind is BinderApp:
        return "bind", t.binder, len(t.args)
    if kind is Var:
        return ("var",)
    return ("hole",) if kind is Hole else ("any",)


def metavariable_tokens(t: Term) -> Iterator[str]:
    for s in subterms(t):
        if isinstance(s, Metavariable):
            yield s.token


def context_holes(production: Constructor, context_name: str) -> list[int]:
    """Positions of a context production's arguments that hold the hole: the
    hole itself or a metavariable of the context category."""
    return [i for i, a in enumerate(production.args)
            if isinstance(a, Hole)
            or (isinstance(a, Metavariable) and a.category == context_name)]


# ---------------------------------------------------------------------------
# small-step states


class Frame(_Interned):
    """A stack of evaluation-context frames, innermost first: node, an
    operator with HOLE at its argument hole_at, then the frames above it,
    None above the root.  depth counts node's frame and those above it."""

    __slots__ = ("node", "hole_at", "above", "depth")
    __match_args__ = ("node", "hole_at", "above")

    def __new__(cls, node: Constructor, hole_at: int, above: Optional[Frame]) -> Frame:
        key = (node, hole_at, above)
        frame = cls._table.get(key, _no_node)()
        if frame is None:
            frame = _intern(cls, key)
            object.__setattr__(frame, "depth", 1 if above is None else above.depth + 1)
        return frame

    def fill(self, t: Term) -> Constructor:
        """node with t in its hole."""
        args, at = self.node.args, self.hole_at
        return Constructor(self.node.name, args[:at] + (t,) + args[at + 1:])


def plug_frames(frames: Optional[Frame], t: Term) -> Term:
    """t in the hole of the innermost of frames, and the result in the hole
    of each frame above it in turn."""
    while frames is not None:
        t = frames.fill(t)
        frames = frames.above
    return t


class Focused(_Interned):
    """A small-step state as its decomposition: the focus, and the frames
    around it, innermost first, or None.  The whole term is plugged when
    term() is first called, unless the state was built with it, and kept."""

    __slots__ = ("focus", "frames", "_whole")
    __match_args__ = ("focus", "frames")

    def __new__(cls, focus: Term, frames: Optional[Frame],
                whole: Optional[Term] = None) -> Focused:
        key = (focus, frames)
        state = cls._table.get(key, _no_node)() or _intern(cls, key)
        if whole is not None:
            object.__setattr__(state, "_whole", whole)
        return state

    def term(self) -> Term:
        """The whole term: the focus plugged into the frames."""
        try:
            return self._whole
        except AttributeError:
            whole = plug_frames(self.frames, self.focus)
            object.__setattr__(self, "_whole", whole)
            return whole


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class EnvExpr:
    """A typing environment: a root name plus ordered (var, type) extensions."""

    root: str
    extensions: tuple[tuple[str, Term], ...] = ()


@dataclass(frozen=True)
class Typing:
    env: EnvExpr
    subject: Term
    ty: Term


@dataclass(frozen=True)
class Reduction:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class MachineConfig:
    focus: Term
    continuation: Term


@dataclass(frozen=True)
class MachineStep:
    lhs: MachineConfig
    rhs: MachineConfig


@dataclass(frozen=True)
class Subtype:
    sub: Term
    sup: Term


@dataclass(frozen=True)
class TypeEq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Join:
    result: Term
    operands: tuple[Term, ...]


Formula = Typing | Reduction | MachineStep | Subtype | TypeEq | Join


def formula_terms(f: Formula) -> tuple[Term, ...]:
    """Every term embedded in a formula, in one order: a typing's environment
    types, then its subject, then its type; a step's left side before its
    right side, each as focus then continuation; a join's result before its
    operands; otherwise the terms left to right.  map_formula rebuilds a
    formula from terms in this order."""
    match f:
        case Typing(env, subject, ty):
            return (*[t for _, t in env.extensions], subject, ty)
        case MachineStep(lhs, rhs):
            return lhs.focus, lhs.continuation, rhs.focus, rhs.continuation
        case Join(result, operands):
            return (result, *operands)
        case Reduction(a, b) | Subtype(a, b) | TypeEq(a, b):
            return a, b
    raise LangxError(f"not a formula: {f!r}")


def map_formula(f: Formula, fn: Callable[[Term], Term]) -> Formula:
    """f rebuilt with fn applied to each of its formula_terms, in their order."""
    terms = [fn(t) for t in formula_terms(f)]
    match f:
        case Typing(env, _, _):
            extensions = tuple(zip([v for v, _ in env.extensions], terms))
            return Typing(EnvExpr(env.root, extensions), terms[-2], terms[-1])
        case MachineStep():
            return MachineStep(MachineConfig(*terms[:2]), MachineConfig(*terms[2:]))
        case Join():
            return Join(terms[0], tuple(terms[1:]))
    return type(f)(*terms)   # a reduction, subtype or type equality: two terms


def formula_metavariable_tokens(f: Formula) -> set[str]:
    toks: set[str] = set()
    for t in formula_terms(f):
        toks.update(metavariable_tokens(t))
    return toks


# ---------------------------------------------------------------------------
# rules and specs


@dataclass(frozen=True)
class InferenceRule:
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class GrammarCategory:
    name: str
    metavariable: str
    productions: tuple[Term, ...]


@dataclass(frozen=True)
class LanguageSpec:
    name: str
    categories: tuple[GrammarCategory, ...]
    variance: dict[str, tuple[str, ...]]
    base_subtypes: tuple[tuple[str, str], ...]
    rules: tuple[InferenceRule, ...]
    variables: tuple[str, ...] = ()
    binders: dict[str, int] = field(default_factory=dict)
    context_name: Optional[str] = None

    # -- category lookups ---------------------------------------------------

    def category(self, name: str) -> Optional[GrammarCategory]:
        return self.derived(_categories_by_name).get(name)

    @property
    def type_category(self) -> Optional[GrammarCategory]:
        return self.category("Type")

    @property
    def expression_category(self) -> Optional[GrammarCategory]:
        return self.category("Expression")

    @property
    def value_category(self) -> Optional[GrammarCategory]:
        return self.category("Value")

    @property
    def context_category(self) -> Optional[GrammarCategory]:
        if self.context_name is not None:
            return self.category(self.context_name)
        return self.category("Context")

    # -- derived tables, computed once per instance ---------------------------

    def derived(self, build: Callable[["LanguageSpec"], _T]) -> _T:
        """build(self), computed once per spec object and kept in its __dict__
        under the builder, which must therefore be a module-level function.

        Equality and dataclasses.replace see fields only, so a spec made by
        with_rules, replace or a transformation starts with no tables.  A
        builder that raises stores nothing.
        """
        try:
            return self.__dict__[build]
        except KeyError:
            value = self.__dict__[build] = build(self)
            return value

    def typing_rules(self) -> tuple[InferenceRule, ...]:
        return self.derived(_rule_views)[Typing]

    def reduction_rules(self) -> tuple[InferenceRule, ...]:
        return self.derived(_rule_views)[Reduction]

    def machine_rules(self) -> tuple[InferenceRule, ...]:
        return self.derived(_rule_views)[MachineStep]

    def with_rules(self, rules: tuple[InferenceRule, ...]) -> "LanguageSpec":
        return replace(self, rules=rules)

    def constructor_arities(self) -> dict[str, int]:
        return self.derived(_constructor_arities)

    def is_variable_token(self, token: str) -> bool:
        return is_variable(token, self.variables)

    def base_types(self) -> tuple[str, ...]:
        """Nullary constructors of the Type category, in grammar order."""
        ty = self.type_category
        if ty is None:
            return ()
        return tuple(
            p.name for p in ty.productions
            if isinstance(p, Constructor) and not p.args
        )

    def base_subtype_closure(self) -> frozenset[tuple[str, str]]:
        """Declared base axioms closed under transitivity (reflexivity excluded)."""
        return self.derived(_base_subtype_closure)


def _categories_by_name(spec: LanguageSpec) -> dict[str, GrammarCategory]:
    """Each category under its name; of two with one name, the first."""
    return {cat.name: cat for cat in reversed(spec.categories)}


def _rule_views(spec: LanguageSpec) -> dict[type, tuple[InferenceRule, ...]]:
    return {kind: tuple(r for r in spec.rules if isinstance(r.conclusion, kind))
            for kind in (Typing, Reduction, MachineStep)}


def spec_terms(categories: Iterable[GrammarCategory],
               rules: Iterable[InferenceRule]) -> list[Term]:
    """Every production, in grammar order, then every term of every rule's
    premises and conclusion, in order."""
    terms = [p for cat in categories for p in cat.productions]
    terms += [t for rule in rules for f in (*rule.premises, rule.conclusion)
              for t in formula_terms(f)]
    return terms


def _constructor_arities(spec: LanguageSpec) -> dict[str, int]:
    """Each constructor's arity at its first occurrence, grammar before rules."""
    arities: dict[str, int] = {}
    for t in spec_terms(spec.categories, spec.rules):
        for s in subterms(t):
            if isinstance(s, Constructor):
                arities.setdefault(s.name, len(s.args))
    return arities


def _base_subtype_closure(spec: LanguageSpec) -> frozenset[tuple[str, str]]:
    pairs = set(spec.base_subtypes)
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# metavariable operations


def is_variable(token: str, variables: Iterable[str]) -> bool:
    """Is token a variable token followed by digits and primes only?"""
    for v in variables:
        if token.startswith(v) and _SUFFIX_RE.fullmatch(token, len(v)):
            return True
    return False


def find_metavariable(token: str,
                      categories: Iterable[tuple[str, str]]) -> Optional[Metavariable]:
    """Resolve a token like T12 or e' against (category, metavariable) pairs.

    The longest metavariable that prefixes the token wins; the remainder must
    consist of digits and primes only.  None when no metavariable fits.
    """
    best: Optional[Metavariable] = None
    for name, mv in categories:
        if token.startswith(mv) and _SUFFIX_RE.fullmatch(token, len(mv)) \
                and (best is None or len(mv) > len(best.base)):
            best = Metavariable(mv, token[len(mv):] or None, name)
    return best


def resolve_metavariable(token: str, spec: LanguageSpec) -> Metavariable:
    """Resolve a token against the spec's declared categories; see find_metavariable."""
    best = find_metavariable(token, ((c.name, c.metavariable) for c in spec.categories))
    if best is None:
        raise UnknownMetavariable(
            f"token {token!r} does not resolve to any declared metavariable"
        )
    return best


def fresh(base: Metavariable, used: set[str]) -> Metavariable:
    """Smallest positive numeric suffix appended to base's token not in used."""
    n = 1
    while base.token + str(n) in used:
        n += 1
    return Metavariable(base.base, (base.suffix or "") + str(n), base.category)
