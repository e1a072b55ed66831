"""Reference semantics for checking langx outputs, written apart from langx.

Covers call-by-value `langfunny` and `stlc_consts` as they are defined in
`fixtures/`.  Terms are read from the surface syntax that langx renders in
its `--format structured` records, so nothing here imports langx.

A term is either a string (constant or variable) or a tuple whose first item
is the operator: ("app", f, a), ("pair", a, b), ("cons", a, b),
("doublyApply", a, b, c, d), ("addToPairAsList", a, b) and
("lam", var, type, body).  Types use the same shape: "B", "int", "float",
("arrow", a, b), ("prod", a, b), ("List", a).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class RefError(Exception):
    """The term cannot be read, typed or evaluated by the reference."""


class Stuck(RefError):
    pass


class IllTyped(RefError):
    pass


@dataclass(frozen=True)
class Language:
    constants: dict            # constant -> its type
    operators: frozenset       # non-binding operators with their own rules


LANGFUNNY = Language(
    {"c1": "B", "c2": "B", "c3": "B", "nil": None},
    frozenset({"app", "pair", "cons", "doublyApply", "addToPairAsList"}),
)
STLC_CONSTS = Language(
    {"ci": "int", "cf": "float"},
    frozenset({"app"}),
)

_TOKEN = re.compile(r"\s*(?:([()\[\],])|([^\s()\[\],]+))")
_VARIABLE = re.compile(r"x[0-9']*$")


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise RefError(f"cannot read {text[pos:pos + 20]!r}")
        out.append(m.group(1) or m.group(2))
        pos = m.end()
    return out


def read_term(text: str):
    """Read one rendered term; list sugar [a, b] becomes a cons/nil chain."""
    toks = _tokens(text)
    pos = 0

    def term():
        nonlocal pos
        if pos >= len(toks):
            raise RefError(f"unexpected end of {text!r}")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(toks) and toks[pos] != ")":
                items.append(term())
            if pos >= len(toks):
                raise RefError(f"unclosed parenthesis in {text!r}")
            pos += 1
            if not items or not isinstance(items[0], str):
                raise RefError(f"bad application in {text!r}")
            return tuple(items)
        if tok == "[":
            items = []
            while pos < len(toks) and toks[pos] != "]":
                items.append(term())
                if pos < len(toks) and toks[pos] == ",":
                    pos += 1
            if pos >= len(toks):
                raise RefError(f"unclosed bracket in {text!r}")
            pos += 1
            result = "nil"
            for item in reversed(items):
                result = ("cons", item, result)
            return result
        if tok in ")],":
            raise RefError(f"unexpected {tok!r} in {text!r}")
        return tok

    t = term()
    if pos != len(toks):
        raise RefError(f"trailing input in {text!r}")
    return t


def render(t) -> str:
    """Surface syntax of a term, with the list sugar langx prints."""
    if isinstance(t, str):
        return t
    if t[0] == "cons":
        items = []
        node = t
        while isinstance(node, tuple) and node[0] == "cons":
            items.append(node[1])
            node = node[2]
        if node == "nil":
            return "[" + ", ".join(render(i) for i in items) + "]"
    return "(" + " ".join(render(a) if not isinstance(a, str) else a
                          for a in t) + ")"


def size(t) -> int:
    """Node count as langx counts it: binder names are not nodes."""
    if isinstance(t, str):
        return 1
    if t[0] == "lam":
        return 1 + size(t[2]) + size(t[3])
    return 1 + sum(size(a) for a in t[1:])


def free_vars(t) -> frozenset:
    if isinstance(t, str):
        return frozenset((t,)) if _VARIABLE.match(t) else frozenset()
    if t[0] == "lam":
        return free_vars(t[3]) - {t[1]}
    return frozenset().union(*(free_vars(a) for a in t[1:]))


def subterms(t):
    """t and every term position inside it; lam annotations excluded."""
    yield t
    if isinstance(t, tuple):
        args = (t[3],) if t[0] == "lam" else t[1:]
        for a in args:
            yield from subterms(a)


def alpha_key(t, bound=()):
    """A form equal for exactly the alpha-equivalent terms."""
    if isinstance(t, str):
        return ("bound", bound.index(t)) if t in bound else t
    if t[0] == "lam":
        return ("lam", t[2], alpha_key(t[3], (t[1],) + bound))
    return (t[0],) + tuple(alpha_key(a, bound) for a in t[1:])


# ---------------------------------------------------------------------------
# evaluation


def is_value(t, lang: Language) -> bool:
    if isinstance(t, str):
        return t in lang.constants
    head = t[0]
    if head == "lam":
        return True
    if head in ("pair", "cons") and head in lang.operators:
        return is_value(t[1], lang) and is_value(t[2], lang)
    return False


def substitute(t, var: str, value):
    """t[value/var] for a closed value, so no binder can capture."""
    if isinstance(t, str):
        return value if t == var else t
    if t[0] == "lam":
        return t if t[1] == var else ("lam", t[1], t[2], substitute(t[3], var, value))
    return (t[0],) + tuple(substitute(a, var, value) for a in t[1:])


class _Evaluator:
    def __init__(self, lang: Language, fuel: int):
        self.lang = lang
        self.fuel = fuel
        self.steps = 0

    def reduce(self) -> None:
        self.steps += 1
        if self.steps > self.fuel:
            raise RefError("reference ran out of fuel")

    def apply(self, f, a):
        if isinstance(f, tuple) and f[0] == "lam":
            self.reduce()
            return self.eval(substitute(f[3], f[1], a))
        raise Stuck(f"cannot apply {render(f)}")

    def eval(self, t):
        lang = self.lang
        if isinstance(t, str):
            if t in lang.constants:
                return t
            raise Stuck(f"free or unknown name {t}")
        head = t[0]
        if head == "lam":
            return t
        if head not in lang.operators:
            raise Stuck(f"unknown operator {head}")
        if head == "cons":
            # cons has no evaluation context: only all-value conses are values
            if is_value(t, lang):
                return t
            raise Stuck(f"cons of non-values {render(t)}")
        args = [self.eval(a) for a in t[1:]]   # left to right, per the contexts
        if head == "pair":
            return ("pair", *args)
        if head == "app":
            return self.apply(*args)
        if head == "doublyApply":
            v1, v2, v3, v4 = args
            self.reduce()
            return self.eval(("pair", ("app", v2, ("app", v1, v3)),
                              ("app", v1, ("app", v2, v4))))
        if head == "addToPairAsList":
            v1, pair = args
            if not (isinstance(pair, tuple) and pair[0] == "pair"):
                raise Stuck(f"addToPairAsList of a non-pair {render(pair)}")
            self.reduce()
            return ("cons", v1, ("cons", pair[1], ("cons", pair[2], "nil")))
        raise Stuck(f"no rule for {head}")


def evaluate(t, lang: Language, fuel: int = 10000):
    """(value, reductions) under call-by-value; raises Stuck when no rule applies."""
    ev = _Evaluator(lang, fuel)
    value = ev.eval(t)
    return value, ev.steps


# ---------------------------------------------------------------------------
# typing (the source definitions: equal types, no subsumption)


def typeof(t, lang: Language, env=None):
    env = env or {}
    if isinstance(t, str):
        if t in env:
            return env[t]
        ty = lang.constants.get(t)
        if ty is None:
            raise IllTyped(f"no type for {t}")
        return ty
    head = t[0]
    if head == "lam":
        _, var, ty, body = t
        return ("arrow", ty, typeof(body, lang, {**env, var: ty}))
    if head not in lang.operators:
        raise IllTyped(f"unknown operator {head}")
    args = [typeof(a, lang, env) for a in t[1:]] if head != "cons" else None
    if head == "app":
        f, a = args
        if isinstance(f, tuple) and f[0] == "arrow" and f[1] == a:
            return f[2]
        raise IllTyped(f"bad application {render(t)}")
    if head == "pair":
        return ("prod", *args)
    if head == "doublyApply":
        f, g, a, b = args
        if (isinstance(f, tuple) and f[0] == "arrow" and g == ("arrow", f[2], f[1])
                and a == f[1] and b == f[2]):
            return ("prod", f[2], f[1])
        raise IllTyped(f"bad doublyApply {render(t)}")
    if head == "addToPairAsList":
        a, p = args
        if p == ("prod", a, a):
            return ("List", a)
        raise IllTyped(f"bad addToPairAsList {render(t)}")
    raise IllTyped(f"no typing rule for {head}")


def check_value(reported: str, term: str, lang: Language) -> str | None:
    """None when `reported` is the value of `term`, else what is wrong.

    `reported` is a compare outcome as langx prints it: "value <term>",
    "stuck" or "out-of-fuel".  A failure on a term the reference evaluates
    to a value is wrong, whatever the other side said.
    """
    expected, _ = evaluate(read_term(term), lang)
    kind, _, text = reported.partition(" ")
    if kind != "value":
        return f"reported {kind}, reference value {render(expected)}"
    if alpha_key(read_term(text)) != alpha_key(expected):
        return f"reported {text}, reference value {render(expected)}"
    return None
