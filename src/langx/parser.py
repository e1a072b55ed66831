"""Concrete syntax for .lang specification files: parsing, validation, printing.

The format is line oriented.  Keyword lines at column zero open blocks
(language, variables, grammar, binder, contexts, variance, subtype-base,
rule); indented lines belong to the current block.  parse_spec collects as
many independent errors as it can before raising; print_spec emits the one
canonical rendering, so parse and print are mutually inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .ir import (
    HOLE,
    BinderApp,
    Constructor,
    EnvExpr,
    Focused,
    Formula,
    Frame,
    GrammarCategory,
    Hole,
    InferenceRule,
    Join,
    LangxError,
    LanguageSpec,
    MachineConfig,
    MachineStep,
    Metavariable,
    Reduction,
    Subst,
    Subtype,
    Term,
    TypeEq,
    Typing,
    Var,
    VARIANCE_MARKS,
    DEFAULT_VARIANCE,
    context_holes,
    find_metavariable,
    fold,
    formula_terms,
    is_variable,
    subterms,
    term_head,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'-]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

RULE_SEPARATOR = "-" * 32

_KEYWORDS = (
    "language", "variables", "grammar", "binder",
    "contexts", "variance", "subtype-base", "rule",
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        msg = f"{self.span}: error: {self.message}"
        if self.expected:
            msg += " (expected " + " or ".join(self.expected) + ")"
        return msg


class SpecParseError(LangxError):
    """Raised by parse_spec; carries every error found in the file."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        super().__init__("\n".join(str(e) for e in errors))


class _Fail(Exception):
    """An error at a line and column of the input being read.  The input is
    named once, when its errors are raised."""

    def __init__(self, line: int, column: int, message: str,
                 expected: tuple[str, ...] = ()):
        self.line, self.column, self.message, self.expected = line, column, message, expected


class _Errors:
    """The errors of one input, in the order they are found.  add records one
    and goes on; `with errors:` ends a line or block at a _Fail and keeps its
    error."""

    def __init__(self) -> None:
        self.found: list[_Fail] = []

    def add(self, line: int, message: str) -> None:
        self.found.append(_Fail(line, 1, message))

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, fail, traceback) -> bool:
        if kind is _Fail:
            self.found.append(fail)
        return kind is _Fail

    def raise_if_any(self, filename: str) -> None:
        """Raise every error found, each span naming filename."""
        if self.found:
            raise SpecParseError([
                ParseError(SourceSpan(filename, f.line, f.column), f.message, f.expected)
                for f in self.found])


# ---------------------------------------------------------------------------
# tokens

# One alternative per token, longest first where one text prefixes another.
# Whitespace matches nothing, so finditer steps over it; any other character
# no token starts with is caught by the last group.
_TOKEN_RE = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_']*
      | \[\.\] | ::= | --> | <: | \|- | \\/
      | [()\[\]<>,/|:=]
      | (\S)
    """,
    re.VERBOSE,
)

_PUNCTUATION = {
    "[.]": "HOLE", "::=": "COLONCOLONEQ", "-->": "ARROW", "<:": "SUBTYPE",
    "|-": "TURNSTILE", "\\/": "JOIN", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "<": "LANGLE", ">": "RANGLE", ",": "COMMA",
    "/": "SLASH", "|": "PIPE", ":": "COLON", "=": "EQ",
}

_IDENT, _END = "IDENT", "END"

# How many brackets a token opens (1) or closes (-1).
_DEPTH_STEP = {"(": 1, "[": 1, ")": -1, "]": -1}

# A line's tokens as flat lists of kinds, texts, 1-based columns, and the
# brackets open just after each token, 0 outside every pair.
_Tokens = tuple[list[str], list[str], list[int], list[int]]


def _tokenize(text: str, line_no: int) -> _Tokens:
    toks = kinds, texts, cols, depths = [], [], [], []
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        t = m.group()
        if m.lastindex:
            raise _Fail(line_no, m.start() + 1, f"unexpected character {t!r}")
        kinds.append(_PUNCTUATION.get(t, _IDENT))
        texts.append(t)
        cols.append(m.start() + 1)
        depth += _DEPTH_STEP.get(t, 0)
        depths.append(depth)
    return toks


def _is_separator(line: str) -> bool:
    s = line.strip()
    return len(s) >= 3 and not s.strip("-")


# ---------------------------------------------------------------------------
# term parsing

_PRODUCTION, _RULE, _CONCRETE = "production", "rule", "concrete"


@dataclass
class _Resolver:
    """Token resolution context shared by the term parser.

    Each distinct token text is resolved once per mode; the leaf it stands
    for is kept in `leaves`.  A failed resolution raises and keeps nothing.
    """

    categories: list[tuple[str, str]]            # (name, metavariable)
    variables: tuple[str, ...]
    binders: dict[str, int]
    constructors: dict[str, int]                 # name -> arity, grows in production mode
    mode: str = _RULE
    leaves: dict[tuple[str, str], Term] = field(default_factory=dict)
    operators: set[str] = field(default_factory=set)   # production heads found sound

    def atom(self, t: str, line: int, col: int) -> Term:
        key = (self.mode, t)
        leaf = self.leaves.get(key)
        if leaf is None:
            leaf = self.leaves[key] = self._resolve(t, line, col)
        return leaf

    def _resolve(self, t: str, line: int, col: int) -> Term:
        if self.mode == _PRODUCTION:
            mv = find_metavariable(t, self.categories)
            if mv is not None:
                return mv
            if is_variable(t, self.variables):
                return Var(t)
            # the first occurrence: later ones find the leaf in the memo
            self.constructors.setdefault(t, 0)
            return Constructor(t)
        # Production mode gives a token a constructor only when it is neither
        # a metavariable nor a variable, and operator refuses both as heads,
        # so in a parsed spec the order of these tests decides nothing.
        if is_variable(t, self.variables):
            return Var(t)
        if self.constructors.get(t) == 0:
            return Constructor(t)
        mv = find_metavariable(t, self.categories)
        if mv is not None:
            if self.mode == _CONCRETE:
                raise _Fail(line, col, f"metavariable {t!r} not allowed in a concrete term")
            return mv
        raise _Fail(line, col, f"cannot resolve token {t!r}",
                    ("a declared constructor", "a variable", "a metavariable"))

    def operator(self, t: str, line: int, col: int) -> None:
        """Refuse a production's constructor or binder name that is a
        metavariable or variable token: every rule would read the
        constructor for the metavariable, and the printed spec could not
        tell them apart."""
        if t in self.operators:
            return
        if find_metavariable(t, self.categories) is not None:
            token = "metavariable"
        elif is_variable(t, self.variables):
            token = "variable"
        else:
            self.operators.add(t)
            return
        role = "binder" if t in self.binders else "constructor"
        raise _Fail(line, col, f"{role} name {t!r} is a {token} token")


_NIL = Constructor("nil")


class _P:
    """Cursor over one line's tokens.  It takes the token lists
    over and ends them with an END token at the column just past the last
    token, or at column 1 when there is none."""

    def __init__(self, toks: _Tokens, line: int, res: _Resolver):
        self.kinds, self.texts, self.cols, self.depths = kinds, texts, cols, depths = toks
        end, depth = (cols[-1] + len(texts[-1]), depths[-1]) if texts else (1, 0)
        for column, last in zip(toks, (_END, "", end, depth)):
            column.append(last)
        self.i = 0
        self.line = line
        self.res = res

    def expect(self, kind: str) -> int:
        """The index of the next token, which must be of kind."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.fail(f"expected {kind}", (kind,))
        self.i = i + 1
        return i

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> _Fail:
        return self.fail_at(self.i, message, expected)

    def fail_at(self, i: int, message: str, expected: tuple[str, ...] = ()) -> _Fail:
        return _Fail(self.line, self.cols[i], message, expected)

    def done(self) -> None:
        if self.kinds[self.i] != _END:
            raise self.fail("trailing tokens after formula")

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        """A term with the substitutions written after it.  The forms still
        open are kept on a stack, so the term may be nested to any depth."""
        kinds, texts, cols, res = self.kinds, self.texts, self.cols, self.res
        # Per open form, the token due after its last part, and two slots:
        # an application's head index and arguments, a list's None and
        # items, or a substitution's target, while its replacement is read.
        stack: list[tuple] = []
        while True:
            i = self.i
            kind = kinds[i]
            self.i = i + 1
            if kind == _IDENT:
                t = res.atom(texts[i], self.line, cols[i])
            elif kind == "HOLE" and res.mode != _CONCRETE:
                t = HOLE
            elif kind == "LPAREN" or kind == "LBRACK":
                closer = "RPAREN" if kind == "LPAREN" else "RBRACK"
                head = None
                if kind == "LPAREN":
                    head = self.expect(_IDENT)
                    if res.mode == _PRODUCTION:
                        res.operator(texts[head], self.line, cols[head])
                stack.append((closer, head, []))
                if kinds[self.i] not in (closer, _END):
                    continue
                t = None   # the form is empty and closes at once
            else:
                self.i = i
                if kind == "HOLE":
                    raise self.fail("context hole not allowed in a concrete term")
                if kind == _END:
                    raise self.fail("unexpected end of line")
                raise self.fail(f"unexpected token {texts[i]!r}", ("a term",))
            # t is whole: read the substitutions after it, then give it to
            # the innermost open form, closing each form it completes
            while True:
                i = self.i
                if kinds[i] == "LBRACK" and cols[i - 1] + len(texts[i - 1]) == cols[i]:
                    if res.mode == _CONCRETE:
                        raise self.fail("substitution not allowed in a concrete term")
                    self.i = i + 1
                    stack.append(("SLASH", t, None))
                    break
                if not stack:
                    return t
                closer, head, items = stack[-1]
                if closer == "SLASH":
                    self.expect("SLASH")
                    var = self.expect(_IDENT)
                    if not is_variable(texts[var], res.variables):
                        raise self.fail_at(var, f"substitution variable {texts[var]!r} "
                                                f"is not a declared variable token")
                    self.expect("RBRACK")
                    t = Subst(head, t, texts[var])
                else:
                    if t is not None:
                        items.append(t)
                    if closer == "RBRACK" and kinds[i] == "COMMA":
                        self.i = i + 1
                        break
                    if closer == "RPAREN" and kinds[i] not in (closer, _END):
                        break
                    self.expect(closer)
                    t = self._list(items) if head is None else self._apply(head, items)
                stack.pop()

    def _apply(self, head: int, args: list[Term]) -> Term:
        name = self.texts[head]
        res = self.res
        pos = res.binders.get(name)
        if pos is not None:
            if pos > len(args):
                raise self.fail_at(head, f"binder {name!r} needs a bound variable at position {pos}")
            bound = args[pos - 1]
            if type(bound) is not Var:
                raise self.fail_at(head, f"argument {pos} of binder {name!r} must be a variable")
            return BinderApp(name, bound.name, (*args[:pos - 1], *args[pos:]))
        if res.mode == _PRODUCTION:
            res.constructors.setdefault(name, len(args))
        elif name not in res.constructors:
            raise self.fail_at(
                head, f"constructor {name!r} is not declared in any grammar production")
        return Constructor(name, tuple(args))

    def _list(self, items: list[Term]) -> Term:
        """The cons chain list sugar stands for."""
        if self.res.mode == _PRODUCTION:   # the sugar declares what it builds
            self.res.constructors.setdefault("nil", 0)
            if items:
                self.res.constructors.setdefault("cons", 2)
        chain: Term = _NIL
        for item in reversed(items):
            chain = Constructor("cons", (item, chain))
        return chain

    # -- formulas ------------------------------------------------------------

    def formula(self) -> Formula:
        kinds = self.kinds
        outside = {kind for kind, depth in zip(kinds, self.depths) if not depth}
        if kinds[0] == "LANGLE":
            lhs = self.config()
            self.expect("ARROW")
            rhs = self.config()
            self.done()
            return MachineStep(lhs, rhs)
        if "TURNSTILE" in outside:
            env = self.env_expr()
            self.expect("TURNSTILE")
            subject = self.term()
            self.expect("COLON")
            ty = self.term()
            self.done()
            return Typing(env, subject, ty)
        if "ARROW" in outside or "SUBTYPE" in outside:
            op, build = ("ARROW", Reduction) if "ARROW" in outside else ("SUBTYPE", Subtype)
            left = self.term()
            self.expect(op)
            right = self.term()
            self.done()
            return build(left, right)
        if "EQ" in outside:
            left = self.term()
            self.expect("EQ")
            operands = [self.term()]
            while kinds[self.i] == "JOIN":
                self.i += 1
                operands.append(self.term())
            self.done()
            if len(operands) == 1:
                return TypeEq(left, operands[0])
            return Join(left, tuple(operands))
        raise self.fail("expected a formula")

    def config(self) -> MachineConfig:
        self.expect("LANGLE")
        focus = self.term()
        self.expect("COMMA")
        continuation = self.term()
        self.expect("RANGLE")
        return MachineConfig(focus, continuation)

    def env_expr(self) -> EnvExpr:
        texts = self.texts
        root = texts[self.expect(_IDENT)]
        extensions: list[tuple[str, Term]] = []
        while self.kinds[self.i] == "COMMA":
            self.i += 1
            var = self.expect(_IDENT)
            if not is_variable(texts[var], self.res.variables):
                raise self.fail_at(
                    var, f"environment extension variable {texts[var]!r} "
                         f"is not a declared variable token")
            self.expect("COLON")
            extensions.append((texts[var], self.term()))
        return EnvExpr(root, tuple(extensions))


# ---------------------------------------------------------------------------
# file-level parsing


@dataclass
class _Block:
    keyword: str
    args: list[str]
    head_line: int
    body: list[tuple[int, str]] = field(default_factory=list)   # (line_no, text)


def _split_blocks(source: str, errors: _Errors) -> list[_Block]:
    blocks: list[_Block] = []
    for i, raw in enumerate(source.split("\n"), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        if line[0] in " \t":
            if not blocks:
                errors.add(i, "indented line before any block")
                continue
            blocks[-1].body.append((i, line))
            continue
        words = line.split()
        if words[0] not in _KEYWORDS:
            errors.add(i, f"expected one of {', '.join(_KEYWORDS)}")
            continue
        blocks.append(_Block(words[0], words[1:], i))
    return blocks


def parse_spec(source: str, filename: str = "<string>") -> LanguageSpec:
    """Parse and validate a .lang file.  Raises SpecParseError on any error."""
    errors = _Errors()
    blocks = _split_blocks(source, errors)

    if not blocks or blocks[0].keyword != "language":
        errors.add(1, "expected 'language' header")
        errors.raise_if_any(filename)
    if len(blocks[0].args) != 1 or not _NAME_RE.fullmatch(blocks[0].args[0]):
        errors.add(blocks[0].head_line, "language header takes exactly one name")
        errors.raise_if_any(filename)
    name = blocks[0].args[0]

    variables: list[str] = []
    binders: dict[str, int] = {}
    context_name: str | None = None
    cat_headers: list[tuple[str, str, int, _Tokens]] = []
    variance_lines: list[tuple[int, str]] = []
    subtype_lines: list[tuple[int, str]] = []
    rule_blocks: list[_Block] = []

    for b in blocks[1:]:
        match b.keyword:
            case "variables":
                for word in b.args:
                    if not _IDENT_RE.fullmatch(word):
                        errors.add(b.head_line, f"variable token {word!r} is not an identifier")
                    else:
                        variables.append(word)
            case "binder":
                if (len(b.args) != 2 or not _IDENT_RE.fullmatch(b.args[0])
                        or not b.args[1].isdigit() or int(b.args[1]) < 1):
                    errors.add(b.head_line, "binder directive is 'binder <constructor> <position>'")
                else:
                    binders[b.args[0]] = int(b.args[1])
            case "contexts":
                if len(b.args) != 1 or not _IDENT_RE.fullmatch(b.args[0]):
                    errors.add(b.head_line, "contexts directive takes one category name")
                else:
                    context_name = b.args[0]
            case "grammar":
                for line_no, text in b.body:
                    with errors:
                        toks = kinds, texts, _, _ = _tokenize(text, line_no)
                        if kinds[:3] != [_IDENT, _IDENT, "COLONCOLONEQ"]:
                            raise _Fail(line_no, 1,
                                        "grammar line is '<Category> <metavar> ::= productions'")
                        cat_headers.append((texts[0], texts[1], line_no, toks))
            case "variance":
                variance_lines.extend(b.body)
            case "subtype-base":
                subtype_lines.extend(b.body)
            case "rule":
                rule_blocks.append(b)
            case "language":
                errors.add(b.head_line, "duplicate language header")

    res = _Resolver(
        categories=[(n, mv) for n, mv, _, _ in cat_headers],
        variables=tuple(variables),
        binders=binders,
        constructors={},
    )

    # grammar productions, now that every category's metavariable is known
    categories: list[GrammarCategory] = []
    cat_spans: dict[str, int] = {}
    res.mode = _PRODUCTION
    for cat_name, metavar, line_no, toks in cat_headers:
        cat_spans[cat_name] = line_no
        prods: list[Term] = []
        with errors:
            # Each production follows "::=" or a "|" outside every bracket.
            # A term's brackets pair up, so no term reaches past such a "|".
            # An empty production ends at column 1, as an empty line does.
            p = _P(toks, line_no, res)
            p.i = 2
            while p.i == 2 or (p.kinds[p.i] == "PIPE" and not p.depths[p.i]):
                p.i += 1
                if p.kinds[p.i] in ("PIPE", _END) and not p.depths[p.i]:
                    raise _Fail(line_no, 1, "unexpected end of line")
                prods.append(p.term())
            p.done()
        categories.append(GrammarCategory(cat_name, metavar, tuple(prods)))
    res.mode = _RULE

    # variance table
    variance: dict[str, tuple[str, ...]] = {}
    for line_no, text in variance_lines:
        with errors:
            kinds, texts, cols, _ = _tokenize(text, line_no)
            if kinds[:2] != [_IDENT, "COLON"]:
                raise _Fail(line_no, 1, "variance line is '<constructor> : <marks>'")
            for mark, col in zip(texts[2:], cols[2:]):
                if mark not in VARIANCE_MARKS:
                    raise _Fail(line_no, col,
                                f"variance mark must be one of {', '.join(VARIANCE_MARKS)}")
            variance[texts[0]] = tuple(texts[2:])

    # declared base subtype axioms
    base_subtypes: list[tuple[str, str]] = []
    for line_no, text in subtype_lines:
        with errors:
            kinds, texts, _, _ = _tokenize(text, line_no)
            if kinds != [_IDENT, "SUBTYPE", _IDENT]:
                raise _Fail(line_no, 1, "subtype-base line is '<base> <: <base>'")
            base_subtypes.append((texts[0], texts[2]))

    # rules
    rules: list[InferenceRule] = []
    rule_spans: dict[str, int] = {}
    for b in rule_blocks:
        with errors:
            if len(b.args) != 1 or not _NAME_RE.fullmatch(b.args[0]):
                raise _Fail(b.head_line, 1, "rule header takes exactly one name")
            rule_name = b.args[0]
            lines: list[tuple[int, str]] = []
            sep_at: int | None = None
            for line_no, text in b.body:
                if _is_separator(text):
                    if sep_at is not None:
                        raise _Fail(line_no, 1, "duplicate rule separator")
                    sep_at = len(lines)
                else:
                    lines.append((line_no, text))
            parsed = [_P(_tokenize(text, line_no), line_no, res).formula()
                      for line_no, text in lines]
            if sep_at is None:
                if len(parsed) != 1:
                    raise _Fail(b.head_line, 1, f"rule {rule_name!r} has no separator line")
                premises, conclusion = [], parsed[0]
            else:
                if len(parsed) != sep_at + 1:
                    raise _Fail(b.head_line, 1, f"rule {rule_name!r} needs exactly one "
                                                f"conclusion after the separator")
                premises, conclusion = parsed[:sep_at], parsed[sep_at]
            rules.append(InferenceRule(rule_name, tuple(premises), conclusion))
            rule_spans.setdefault(rule_name, b.head_line)

    formulas = [[_formula_terms(f) for f in (*rule.premises, rule.conclusion)]
                for rule in rules]
    nodes = _list_nodes(categories, formulas)

    # Constructors with arguments in the rules' type positions, in order of
    # first use, each with the name of the last rule that uses it.  Those
    # without a variance line take the usual variance when their arity
    # agrees; _validate reports the others.
    type_ctors: dict[str, str] = {}
    for rule, rule_formulas in zip(rules, formulas):
        for _, _, type_terms in rule_formulas:
            for t in type_terms:
                for s in nodes[t]:
                    if type(s) is Constructor and s.args:
                        type_ctors[s.name] = rule.name
    for ctor in type_ctors:
        default = DEFAULT_VARIANCE.get(ctor)
        if ctor not in variance and default is not None \
                and res.constructors[ctor] == len(default):
            variance[ctor] = default

    spec = LanguageSpec(
        name=name,
        categories=tuple(categories),
        variance=variance,
        base_subtypes=tuple(base_subtypes),
        rules=tuple(rules),
        variables=tuple(variables),
        binders=binders,
        context_name=context_name,
    )
    _validate(spec, cat_spans, rule_spans, formulas, nodes, type_ctors, errors)
    errors.raise_if_any(filename)
    return spec


# ---------------------------------------------------------------------------
# validation


def _formula_terms(f: Formula) -> tuple[Formula, tuple[Term, ...], tuple[Term, ...]]:
    """f, its formula_terms, and those that stand for types: all but a
    typing's subject, and none of a step's."""
    terms = formula_terms(f)
    if isinstance(f, Typing):
        return f, terms, terms[:-2] + terms[-1:]
    return f, terms, () if isinstance(f, (Reduction, MachineStep)) else terms


def _list_nodes(categories: list[GrammarCategory],
                formulas: list[list[tuple]]) -> dict[Term, list[Term]]:
    """The nodes of each production and formula term, in pre-order, keyed by
    the term, in the order of spec_terms.  The checks read these lists and
    walk no term again."""
    terms = [p for cat in categories for p in cat.productions]
    terms += [t for rule_formulas in formulas for _, ts, _ in rule_formulas for t in ts]
    return {t: list(subterms(t)) for t in dict.fromkeys(terms)}


def _validate(
    spec: LanguageSpec,
    cat_spans: dict[str, int],
    rule_spans: dict[str, int],
    formulas: list[list[tuple]],
    nodes: dict[Term, list[Term]],
    type_ctors: dict[str, str],
    errors: _Errors,
) -> None:
    err = errors.add

    seen_names: set[str] = set()
    seen_mvs: set[str] = set()
    for cat in spec.categories:
        line = cat_spans.get(cat.name, 1)
        if cat.name in seen_names:
            err(line, f"duplicate grammar category {cat.name!r}")
        if cat.metavariable in seen_mvs:
            err(line, f"duplicate metavariable {cat.metavariable!r}")
        if cat.metavariable in spec.variables:
            err(line, f"metavariable {cat.metavariable!r} collides with a variable token")
        seen_names.add(cat.name)
        seen_mvs.add(cat.metavariable)

    if spec.context_name is not None and spec.category(spec.context_name) is None:
        err(1, f"contexts directive names unknown category {spec.context_name!r}")

    # Arity consistency and binder/constructor separation.  The walk visits
    # the terms in the order of spec_terms, so each constructor's arity is
    # the one at its first occurrence, as in spec.constructor_arities().
    arities: dict[str, int] = {}
    binder_arities: dict[str, int] = {}

    def walk(term: Term, line: int) -> None:
        for s in nodes[term]:
            kind = type(s)
            if kind is Constructor:
                if s.name in spec.binders:
                    err(line, f"{s.name!r} is declared as a binder but used without a bound variable")
                a = arities.setdefault(s.name, len(s.args))
                if a != len(s.args):
                    err(line, f"constructor {s.name!r} used with arities {a} and {len(s.args)}")
            elif kind is BinderApp:
                a = binder_arities.setdefault(s.binder, len(s.args))
                if a != len(s.args):
                    err(line, f"binder {s.binder!r} used with inconsistent arity")

    for cat in spec.categories:
        for p in cat.productions:
            walk(p, cat_spans.get(cat.name, 1))
    for rule, rule_formulas in zip(spec.rules, formulas):
        line = rule_spans.get(rule.name, 1)
        for _, terms, _ in rule_formulas:
            for t in terms:
                walk(t, line)

    # holes live only in context-category productions; substitutions only
    # on rule right-hand sides
    ctx = spec.context_category
    for cat in spec.categories:
        for p in cat.productions:
            kinds = {type(s) for s in nodes[p]}
            if Subst in kinds:
                err(cat_spans.get(cat.name, 1),
                    f"production {render_term(p, spec)!r} contains a substitution; "
                    f"substitutions belong on rule right-hand sides")
            if (ctx is None or cat.name != ctx.name) and Hole in kinds:
                err(cat_spans.get(cat.name, 1),
                    f"hole production outside the evaluation-context category {cat.name!r}")
    if ctx is not None:
        for p in ctx.productions:
            if isinstance(p, Hole):
                continue
            holes = sum(
                1 for s in nodes[p]
                if isinstance(s, Hole)
                or (isinstance(s, Metavariable) and s.category == ctx.name))
            if holes != 1:
                err(cat_spans.get(ctx.name, 1),
                    f"context production {render_term(p, spec)!r} "
                    f"must contain exactly one hole")
            elif not isinstance(p, Constructor) or not context_holes(p, ctx.name):
                # decompose and the derived machine look for the hole among
                # an operator's direct arguments only
                err(cat_spans.get(ctx.name, 1),
                    f"context production {render_term(p, spec)!r} must be an "
                    f"operator application with the hole as a direct argument")

    rule_names: set[str] = set()
    for rule, rule_formulas in zip(spec.rules, formulas):
        line = rule_spans.get(rule.name, 1)
        if rule.name in rule_names:
            err(line, f"duplicate rule name {rule.name!r}")
        rule_names.add(rule.name)

        for _, terms, _ in rule_formulas:
            for t in terms:
                for s in nodes[t]:
                    if type(s) is Hole:
                        err(line, f"rule {rule.name!r} mentions a context hole")

        if isinstance(rule.conclusion, (Reduction, MachineStep)):
            if any(not isinstance(p, (Reduction, MachineStep)) for p in rule.premises):
                err(line, f"rule {rule.name!r} concludes a step but has a non-step premise")
            terms = rule_formulas[-1][1]   # the left side, then the right
            lhs_terms, rhs_terms = terms[:len(terms) // 2], terms[len(terms) // 2:]
            lhs_mvs: list[str] = []
            lhs_bound: list[str] = []
            for t in lhs_terms:
                for s in nodes[t]:
                    if isinstance(s, Metavariable):
                        lhs_mvs.append(s.token)
                    elif isinstance(s, BinderApp):
                        lhs_bound.append(s.bound_var)
                    elif isinstance(s, Subst):
                        err(line, f"rule {rule.name!r} has a substitution on its left-hand side")
            dupes = {v for v in lhs_mvs + lhs_bound
                     if (lhs_mvs + lhs_bound).count(v) > 1}
            if dupes:
                err(line, f"rule {rule.name!r} repeats {sorted(dupes)} in its pattern")
            for t in rhs_terms:
                for s in nodes[t]:
                    if isinstance(s, Metavariable) and s.token not in lhs_mvs:
                        err(line, f"rule {rule.name!r} uses {s.token!r} on the right only")
                    if isinstance(s, Subst) and s.var not in lhs_bound:
                        err(line, f"rule {rule.name!r} substitutes unbound variable {s.var!r}")

        # type positions carry type-category metavariables only
        for f, _, type_terms in rule_formulas:
            for t in type_terms:
                for s in nodes[t]:
                    if type(s) is Metavariable and s.category != "Type":
                        err(line, f"rule {rule.name!r} uses {s.token!r} in a type position")
            if isinstance(f, Typing) and len({v for v, _ in f.env.extensions}) != len(f.env.extensions):
                err(line, f"rule {rule.name!r} repeats a variable in one environment")

    # variance: marks match arity; table total over type constructors used in rules
    for ctor, marks in spec.variance.items():
        if ctor in arities and arities[ctor] != len(marks):
            err(1, f"variance entry for {ctor!r} has {len(marks)} marks, arity is {arities[ctor]}")
    for ctor, rule_name in type_ctors.items():
        if ctor not in spec.variance:
            err(rule_spans.get(rule_name, 1),
                f"missing variance entry for type constructor {ctor!r}")

    # base subtype lattice: declared on base types, acyclic, antisymmetric
    bases = set(spec.base_types())
    for a, b in spec.base_subtypes:
        if a not in bases or b not in bases:
            err(1, f"subtype-base pair {a} <: {b} names a non-base type")
        if a == b:
            err(1, f"subtype-base pair {a} <: {a} is reflexive")
    closure = spec.base_subtype_closure()
    for a, b in closure:
        if a == b or (b, a) in closure:
            err(1, f"ill-formed subtype lattice: {a} and {b} form a cycle")
            break

    # every value production has an expression production with its head; a
    # metavariable production, head ("any",), needs none
    value_cat, expr_cat = spec.value_category, spec.expression_category
    if value_cat is not None and expr_cat is not None:
        expr_heads = {("any",)} | {term_head(p) for p in expr_cat.productions}
        for p in value_cat.productions:
            if term_head(p) not in expr_heads:
                err(cat_spans.get(value_cat.name, 1),
                    f"value production {render_term(p, spec)} has no expression counterpart")


# ---------------------------------------------------------------------------
# printing


def render_term(t: Term, spec: LanguageSpec, memo: Optional[dict] = None) -> str:
    """t in concrete syntax.  Pass one memo dict to calls on terms that share
    subterms, such as the terms of one rule, to render those once."""
    text = fold(t, partial(_render_node, spec.binders), {} if memo is None else memo)
    if type(text) is str:
        return text
    pieces, stack = [], [text]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            pieces.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(pieces)


def _render_node(binders: dict[str, int], t: Term, kids: tuple) -> str | list:
    """t's text from its children's, for fold."""
    kind = type(t)
    if kind is Constructor:
        head = t.name
        if not kids:
            return head
        tail = t.args[-1]
        if head == "cons" and len(kids) == 2 and type(tail) is Constructor:
            # A cons chain ending in nil prints as a list; a cons node's
            # text opens with "[" only when it is such a chain.
            if tail.name == "nil" and not tail.args:
                return _joined(["[", kids[0], "]"])
            if tail.name == "cons" and kids[1][0] == "[":
                return _joined(["[", kids[0], ", ", kids[1][1:]])
    elif kind is BinderApp:
        head, kids = t.binder, list(kids)
        kids.insert(binders.get(t.binder, 1) - 1, t.bound_var)
    elif kind is Var:
        return t.name
    elif kind is Metavariable:
        return t.token
    elif kind is Hole:
        return "[.]"
    elif kind is Subst:
        return _joined([kids[0], "[", kids[1], f"/{t.var}]"])
    else:
        raise LangxError(f"cannot render {t!r}")
    pieces = [f"({head}"]
    for kid in kids:
        pieces += (" ", kid)
    pieces.append(")")
    return _joined(pieces)


# Past this many characters a node's text is kept as a rope, a list of strings
# and ropes, so that the nodes of a deep term do not each hold a copy of the
# text of all their subterms.
_ROPE_AT = 2048


def _joined(pieces: list) -> str | list:
    try:
        text = "".join(pieces)
    except TypeError:   # a piece is a rope
        return pieces
    return text if len(text) <= _ROPE_AT else pieces


def render_state(state: Term | MachineConfig, spec: LanguageSpec,
                 memo: Optional[dict] = None) -> str:
    """A term, or a machine configuration as <focus , continuation>, with
    one render memo for both."""
    memo = {} if memo is None else memo
    if isinstance(state, MachineConfig):
        return (f"<{render_term(state.focus, spec, memo)} , "
                f"{render_term(state.continuation, spec, memo)}>")
    return render_term(state, spec, memo)


class TraceTexts:
    """render_state's text of each state of one trace, rendered in the
    trace's order.

    A machine configuration is rendered with one memo for the whole trace:
    a machine step builds a few new nodes, so the memo grows with the steps.
    A small-step state, a Focused, is rendered from its frames.  A stack,
    root first, holds each frame's text either side of its hole, rendered
    when the frame is pushed.  A state renders its focus and the frames
    that differ from the last state's, and joins the rest from the stack.
    A memo would keep the text of every node of every path instead.

    A (cons v [.]) frame prints as list sugar exactly when the text below it
    is a list, as render_term decides: then the frame's left text opens the
    list, and the text below loses its "[".  So the stack holds each text as
    the line shows it, and when the text below a frame changes, the texts
    are worked out again up the stack, as far as they change.
    """

    def __init__(self, spec: LanguageSpec):
        self.spec = spec
        self.memo: dict = {}
        self.frames: list[Frame] = []
        self.sides: list[tuple[str, str] | str] = []   # _frame_sides of each frame
        self.lefts: list[str] = []
        self.rights: list[str] = []

    def render(self, state: Term | MachineConfig | Focused) -> str:
        if type(state) is not Focused:
            return render_state(state, self.spec,
                                self.memo if isinstance(state, MachineConfig) else None)
        frames, sides, lefts, rights = self.frames, self.sides, self.lefts, self.rights
        pushed: list[Frame] = []
        frame = state.frames
        while frame is not None and not (
                frame.depth <= len(frames) and frames[frame.depth - 1] is frame):
            pushed.append(frame)
            frame = frame.above
        kept = 0 if frame is None else frame.depth
        for stack in (frames, sides, lefts, rights):
            del stack[kept:]
        for frame in reversed(pushed):
            frames.append(frame)
            sides.append(_frame_sides(frame, self.spec))
        lefts += [""] * len(pushed)
        rights += [""] * len(pushed)

        focus = state.focus
        text = render_term(focus, self.spec)
        focus_nil = focus is _NIL
        focus_list = type(focus) is Constructor and focus.name == "cons" and text[0] == "["
        below_nil, below_list = focus_nil, focus_list
        for i in range(len(frames) - 1, -1, -1):
            side = sides[i]
            if type(side) is not str:
                left, right = side
            elif below_nil:
                left, right = "[" + side, "]"
            elif below_list:
                left, right = "[" + side + ", ", ""
            else:
                left, right = "(cons " + side + " ", ")"
            is_list = left[0] == "["
            if is_list and i and type(sides[i - 1]) is str:
                left = left[1:]   # the (cons v [.]) frame above opens the list
            if i < kept and lefts[i] == left and rights[i] == right:
                break   # this frame shows as before, and so do those above it
            lefts[i], rights[i] = left, right
            below_nil, below_list = False, is_list
        if sides and type(sides[-1]) is str and (focus_nil or focus_list):
            text = "" if focus_nil else text[1:]   # the frame above prints it
        return "".join(lefts) + text + "".join(reversed(rights))



def _frame_sides(frame: Frame, spec: LanguageSpec) -> tuple[str, str] | str:
    """render_term's text of frame's node, split at its hole's "[.]",
    which no run-time term's text contains; for a (cons v [.]) node, whose
    text depends on the subterm, v's text alone."""
    node = frame.node
    if node.name == "cons" and len(node.args) == 2 and frame.hole_at == 1:
        return render_term(node.args[0], spec)
    left, _, right = render_term(node, spec).partition("[.]")
    return left, right


def render_formula(f: Formula, spec: LanguageSpec, memo: Optional[dict] = None) -> str:
    memo = {} if memo is None else memo

    def term(t: Term) -> str:
        return render_term(t, spec, memo)

    match f:
        case Typing(env, subject, ty):
            bindings = ", ".join([env.root, *(f"{v} : {term(t)}" for v, t in env.extensions)])
            return f"{bindings} |- {term(subject)} : {term(ty)}"
        case Reduction(lhs, rhs):
            return f"{term(lhs)} --> {term(rhs)}"
        case MachineStep(lhs, rhs):
            return f"{render_state(lhs, spec, memo)} --> {render_state(rhs, spec, memo)}"
        case Subtype(sub, sup):
            return f"{term(sub)} <: {term(sup)}"
        case TypeEq(left, right):
            return f"{term(left)} = {term(right)}"
        case Join(result, operands):
            return f"{term(result)} = " + " \\/ ".join(term(o) for o in operands)
    raise LangxError(f"cannot render {f!r}")


def print_spec(spec: LanguageSpec) -> str:
    memo: dict = {}   # one for the whole spec: its rules share terms
    out: list[str] = [f"language {spec.name}"]
    if spec.variables:
        out += ["", "variables " + " ".join(spec.variables)]
    if spec.categories:
        out += ["", "grammar"]
        for cat in spec.categories:
            prods = " | ".join(render_term(p, spec, memo) for p in cat.productions)
            out.append(f"  {cat.name} {cat.metavariable} ::= {prods}")
    if spec.binders:
        out.append("")
        out += [f"binder {name} {pos}" for name, pos in spec.binders.items()]
    if spec.context_name is not None and spec.context_name != "Context":
        out += ["", f"contexts {spec.context_name}"]
    printable_variance = {c: m for c, m in spec.variance.items() if m}
    if printable_variance:
        out += ["", "variance"]
        out += [f"  {c} : {' '.join(m)}" for c, m in printable_variance.items()]
    if spec.base_subtypes:
        out += ["", "subtype-base"]
        out += [f"  {a} <: {b}" for a, b in spec.base_subtypes]
    for rule in spec.rules:
        out += ["", f"rule {rule.name}"]
        out += [f"  {render_formula(p, spec, memo)}" for p in rule.premises]
        out.append(f"  {RULE_SEPARATOR}")
        out.append(f"  {render_formula(rule.conclusion, spec, memo)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# standalone terms


def parse_term(text: str, spec: LanguageSpec, concrete: bool = False) -> Term:
    """Parse one term against a finished spec.

    With concrete=True metavariables are rejected, which is what the CLI
    wants for program text.
    """
    res = _Resolver(
        categories=[(c.name, c.metavariable) for c in spec.categories],
        variables=spec.variables,
        binders=spec.binders,
        constructors=spec.constructor_arities(),
        mode=_CONCRETE if concrete else _RULE,
    )
    errors = _Errors()
    with errors:
        p = _P(_tokenize(text, 1), 1, res)
        t = p.term()
        p.done()
    errors.raise_if_any("<term>")
    return t
