"""Command line for checking, transforming, and executing language specs.

Subcommands:
  check          parse and validate a spec
  add-subtyping  rewrite typing rules with explicit subtype/join premises
  derive-ck      derive an abstract machine from the evaluation contexts
  eval           run one term under the small-step or machine semantics
  compare        run random well-typed terms under both semantics and diff

Exit codes: 0 success, 1 parse/validation error, unreadable input, unwritable
output, input nested too deeply or a command line that cannot be read,
2 transformation error, 3 stuck term, 4 out of fuel, 5 semantics
disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional

from .ck import CKError, derive_ck
from .engine import (
    MT,
    NotSyntaxDirected,
    OutOfFuel,
    Stuck,
    StuckMachine,
    TypecheckError,
    _typing_rules,
    ck_eval,
    evaluate,
    free_vars,
    iter_swarm_terms,
    member,
    typecheck,
)
from .ir import (
    LangxError,
    LanguageSpec,
    MachineConfig,
    Term,
    subterms,
    term_size,
)
from .parser import (
    SpecParseError,
    TraceTexts,
    parse_spec,
    parse_term,
    print_spec,
    render_state,
    render_term,
)
from .subtyping import (
    SubtypingError,
    add_subtyping,
    generate_join_relation,
    generate_subtype_relation,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TRANSFORM = 2
EXIT_STUCK = 3
EXIT_FUEL = 4
EXIT_DISAGREE = 5


class Style:
    """ANSI color helper honoring LANGX_COLOR={auto,always,never}."""

    def __init__(self):
        mode = os.environ.get("LANGX_COLOR", "auto")
        if mode == "always":
            self.enabled = True
        elif mode == "never":
            self.enabled = False
        else:
            self.enabled = hasattr(sys.stdout, "isatty") and sys.stdout.isatty()

    def _wrap(self, code: str, text: str) -> str:
        return f"\x1b[{code}m{text}\x1b[0m" if self.enabled else text

    def good(self, text: str) -> str:
        return self._wrap("32", text)

    def bad(self, text: str) -> str:
        return self._wrap("31", text)

    def rule(self, text: str) -> str:
        return self._wrap("36", text)


class Reporter:
    """Uniform text / line-delimited JSON output; every line the CLI prints
    goes through emit, or emit_encoded for a record already encoded."""

    def __init__(self, structured: bool, style: Style):
        self.structured = structured
        self.style = style

    def emit(self, text: Optional[str], err: bool = False, **record) -> None:
        """Print record as one JSON line in structured mode; otherwise print
        text, to stderr if err, unless it is None."""
        if self.structured:
            print(json.dumps(record))
        elif text is not None:
            print(text, file=sys.stderr if err else sys.stdout)

    def encode(self, **fields) -> str:
        """fields as JSON text for emit_encoded, or "" in text mode."""
        return json.dumps(fields)[1:-1] if self.structured else ""

    def emit_encoded(self, text: Optional[str], fields: str) -> None:
        """emit a record given as its encoded fields, the JSON text inside
        its braces as json.dumps writes it; text mode ignores fields."""
        if self.structured:
            sys.stdout.write(f"{{{fields}}}\n")
        else:
            self.emit(text)

    def emit_indexed(self, text: Optional[str], kind: str, index: int,
                     fields: str) -> None:
        """emit_encoded a record of kind and index followed by fields."""
        if self.structured:
            fields = f'"kind": {encode_basestring_ascii(kind)}, "index": {index:d}, {fields}'
        self.emit_encoded(text, fields)

    def diagnostic(self, message: str, span: Optional[str] = None) -> None:
        self.emit(message, err=True, kind="diagnostic", message=message, span=span)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise LangxError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise LangxError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc


def _load_spec(path: str) -> LanguageSpec:
    return parse_spec(_read(path), filename=path)


def _derive(spec: LanguageSpec, path: str) -> LanguageSpec:
    """The machine derived from spec's evaluation contexts."""
    if spec.context_category is None:
        raise LangxError(f"{path}: no evaluation-context category to derive from")
    return derive_ck(spec)


def _write_output(text: str, path: Optional[str], rep: Reporter) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise LangxError(f"cannot write {path}: {exc.strerror}") from exc
        rep.emit(None, kind="written", message=path)
    else:
        rep.emit(text.removesuffix("\n"), kind="spec", message=text)


def cmd_check(args, rep: Reporter) -> int:
    spec = _load_spec(args.spec)
    spec.derived(_typing_rules)   # raises NotSyntaxDirected, as compare would
    message = f"{spec.name}: valid"
    rep.emit(message, kind="ok", message=message)
    return EXIT_OK


def cmd_add_subtyping(args, rep: Reporter) -> int:
    spec = _load_spec(args.spec)
    try:
        out = add_subtyping(spec)
    except SubtypingError as exc:
        rep.emit(str(exc), err=True, kind="error", rule=exc.rule_name,
                 message=str(exc))
        return EXIT_TRANSFORM
    if args.with_relations:
        extra = generate_subtype_relation(spec) + generate_join_relation(spec)
        out = out.with_rules((*out.rules, *extra))
    _write_output(print_spec(out), args.output, rep)
    return EXIT_OK


def cmd_derive_ck(args, rep: Reporter) -> int:
    spec = _load_spec(args.spec)
    _write_output(print_spec(_derive(spec, args.spec)), args.output, rep)
    return EXIT_OK


def _print_trace(trace, spec: LanguageSpec, rep: Reporter) -> None:
    # A step usually starts from the state the step before it ended in, so
    # that state is rendered, and in structured mode escaped, once; a padded
    # looping trace may start a step elsewhere, and then its state is
    # rendered afresh.
    texts = TraceTexts(spec)
    shown_as = encode_basestring_ascii if rep.structured else str
    previous, shown = None, ""
    for step in trace:
        before = shown if step.start is previous else shown_as(texts.render(step.start))
        after = shown_as(texts.render(step.end))
        if rep.structured:
            rep.emit_encoded(None, f'"kind": {encode_basestring_ascii(step.kind)}, '
                                   f'"rule": {encode_basestring_ascii(step.rule_name)}, '
                                   f'"before": {before}, "after": {after}')
        else:
            label = rep.style.rule(f"[{step.kind}/{step.rule_name}]")
            rep.emit(f"{label} {before}  ~~>  {after}")
        previous, shown = step.end, after


def _outcome(run, state, spec: LanguageSpec, fuel: int, **memo):
    """How run (evaluate or ck_eval) ends on state, as (kind, value or the
    state the run stopped at, trace); kind is value, stuck or out-of-fuel.
    memo holds run's cats, when given."""
    try:
        value, trace = run(state, spec, fuel=fuel, **memo)
        return "value", value, trace
    except Stuck as exc:
        return "stuck", exc.term, exc.trace
    except StuckMachine as exc:
        return "stuck", exc.config, exc.trace
    except OutOfFuel as exc:
        return "out-of-fuel", exc.state, exc.trace


def cmd_eval(args, rep: Reporter) -> int:
    if args.term is not None and args.term_file:
        raise LangxError("eval takes a term argument or --term-file, not both")
    spec = _load_spec(args.spec)
    source = _read(args.term_file) if args.term_file else args.term
    if source is None:
        raise LangxError("eval needs a term argument or --term-file")
    term = parse_term(source, spec, concrete=True)
    free = sorted(free_vars(term))
    if free:
        noun = "variable" if len(free) == 1 else "variables"
        raise LangxError(f"eval needs a closed term; free {noun}: {', '.join(free)}")
    # The small-step run starts from the categories this test found; the
    # machine's spec may have another grammar, so its run keeps its own.
    cats: dict = {}
    expr = spec.expression_category
    if expr is not None and not member(term, expr.name, spec, cats):
        raise LangxError(f"eval needs a term of category {expr.name}; "
                         f"the grammar does not derive this one")

    if args.machine == "ck":
        if not spec.machine_rules():
            spec = _derive(spec, args.spec)
        kind, result, trace = _outcome(ck_eval, MachineConfig(term, MT), spec, args.fuel)
    else:
        kind, result, trace = _outcome(evaluate, term, spec, args.fuel, cats=cats)

    if args.trace:
        _print_trace(trace, spec, rep)
    shown = render_state(result, spec)
    if kind == "value":
        rep.emit(shown, kind=kind, message=shown)
        return EXIT_OK
    if kind == "stuck":
        rep.emit(rep.style.bad(f"stuck: {shown}"), err=True, kind=kind, message=shown)
        return EXIT_STUCK
    rep.emit(rep.style.bad(f"out of fuel after {args.fuel} steps at {shown}"),
             err=True, kind=kind, message=shown)
    return EXIT_FUEL


def outcomes_agree(a, b) -> bool:
    """Identical values agree; failing for any reason on both sides agrees."""
    if a[0] == "value" or b[0] == "value":
        return a == b
    return True


def _outcome_text(outcome, spec: LanguageSpec, memo: Optional[dict] = None) -> str:
    """An outcome as compare prints it; memo is render_term's, which the
    memo-free compare oracle of the tests leaves out."""
    kind, value = outcome
    return f"value {render_term(value, spec, memo)}" if kind == "value" else kind


def well_typed_terms(spec: LanguageSpec, count: int, seed: int,
                     max_size: int) -> Iterable[Term]:
    """First `count` generated terms that typecheck under `spec`; a spec
    without typing rules accepts every draw.

    Attempts are capped so a grammar whose terms almost never typecheck
    terminates with fewer terms.  Typing rules that are not syntax-directed
    are a fault of the spec, not of a term: NotSyntaxDirected passes through.
    """
    checked = bool(spec.typing_rules())
    # The stream repeats most of its draws, so each distinct draw's verdict
    # is kept for the rest of this call, and the draws share most of their
    # subterms, so one typing memo serves the whole call.  A draw may be in
    # the typing memo already, as a subterm of an earlier one; typecheck
    # still sees each distinct draw once.
    verdicts: dict[Term, bool] = {}
    types: dict = {}
    for term in islice(iter_swarm_terms(spec, seed=seed, max_size=max_size),
                       max(200 * count, 10000)):
        typed = verdicts.get(term)
        if typed is None:
            typed = verdicts[term] = not checked or _typechecks(term, spec, types)
        if typed:
            yield term
            count -= 1
            if count <= 0:
                return


def _typechecks(term: Term, spec: LanguageSpec, types: dict) -> bool:
    try:
        typecheck(term, spec, types=types)
    except NotSyntaxDirected:
        raise
    except TypecheckError:
        return False
    return True


def shrink_counterexample(term: Term, disagrees) -> Term:
    """Smallest closed subterm that still shows the disagreement."""
    current = term
    while True:
        sizes: dict[Term, int] = {}
        free: dict[Term, frozenset[str]] = {}
        size = term_size(current, sizes)
        free_vars(current, free)
        candidates = [s for s in subterms(current)
                      if s is not current and sizes[s] < size and not free[s]]
        candidates.sort(key=sizes.__getitem__)
        for candidate in candidates:
            if disagrees(candidate):
                current = candidate
                break
        else:
            return current


def cmd_compare(args, rep: Reporter) -> int:
    spec = _load_spec(args.spec)
    machine_spec = _load_spec(args.ck) if args.ck else _derive(spec, args.spec)
    if args.ck and not machine_spec.machine_rules():
        raise LangxError(f"{args.ck}: no machine rules to compare against")
    machine_fuel = 3 * args.fuel

    # Equal terms run and render alike, and most compared terms repeat an
    # earlier one, so each distinct term's row is worked out once per call.
    # Each spec keeps one membership memo and one render memo for the call:
    # terms are interned and immutable, so a subterm's categories and text
    # never change.
    rows: dict[Term, tuple[bool, str, str, str, str]] = {}
    source_cats: dict = {}
    machine_cats: dict = {}
    source_texts: dict = {}
    machine_texts: dict = {}

    def row(term: Term) -> tuple[bool, str, str, str, str]:
        """Whether the sides agree on term, the texts of term and of each
        side's outcome, and the encoded fields of its record after kind and
        index; agreement compares (kind, value), the stopping state plays no
        part."""
        found = rows.get(term)
        if found is None:
            source = _outcome(evaluate, term, spec, args.fuel, cats=source_cats)[:2]
            machine = _outcome(ck_eval, MachineConfig(term, MT), machine_spec,
                               machine_fuel, cats=machine_cats)[:2]
            ok = outcomes_agree(source, machine)
            shown = render_term(term, spec, source_texts)
            source_text = _outcome_text(source, spec, source_texts)
            machine_text = _outcome_text(machine, machine_spec, machine_texts)
            found = rows[term] = (ok, shown, source_text, machine_text, rep.encode(
                term=shown, source=source_text, machine=machine_text, agree=ok))
        return found

    def disagrees(term: Term) -> bool:
        return not row(term)[0]

    total = 0
    agreed = 0
    first_failure = None
    for index, term in enumerate(well_typed_terms(
            spec, args.count, args.seed, args.max_size)):
        ok, shown, source_text, machine_text, fields = row(term)
        total += 1
        agreed += ok
        rep.emit_indexed(None if ok else rep.style.bad(
                             f"disagreement on term {index}: {shown}\n"
                             f"  small-step: {source_text}\n"
                             f"  machine:    {machine_text}"),
                         "compare", index, fields)
        if not ok and first_failure is None:
            first_failure = term

    if total < args.count:
        rep.diagnostic(f"only {total} of the {args.count} requested terms "
                       f"typechecked within the attempt limit")
    summary = f"{agreed}/{total} agree"
    style = rep.style.good if agreed == total else rep.style.bad
    rep.emit(style(summary), kind="summary", message=summary, agree=agreed, total=total)
    if agreed == total:
        return EXIT_OK

    minimal = shrink_counterexample(first_failure, disagrees)
    shown = render_term(minimal, spec, source_texts)
    rep.emit(f"minimal counterexample ({term_size(minimal)} nodes): {shown}",
             kind="counterexample", term=shown, size=term_size(minimal))
    return EXIT_DISAGREE


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are LangxErrors, which main
    reports as one diagnostic; argparse itself would print its usage and
    exit 2, the code of a rejected transformation."""

    def error(self, message: str):
        raise LangxError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="langx",
        description="Check, transform, and execute operational-semantics language specs.")
    top.add_argument("--format", choices=("text", "structured"), default="text",
                     help="structured prints one JSON record per line")
    sub = top.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a spec")
    p_check.add_argument("spec")

    p_sub = sub.add_parser("add-subtyping",
                           help="make typing rules subtype-aware")
    p_sub.add_argument("spec")
    p_sub.add_argument("-o", "--output", help="write result here instead of stdout")
    p_sub.add_argument("--with-relations", action="store_true",
                       help="also append generated subtype and join rules")

    p_ck = sub.add_parser("derive-ck",
                          help="derive an abstract machine from contexts")
    p_ck.add_argument("spec")
    p_ck.add_argument("-o", "--output", help="write result here instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate a closed term")
    p_eval.add_argument("spec")
    p_eval.add_argument("term", nargs="?",
                        help="term text; give this or --term-file, not both")
    p_eval.add_argument("--term-file", help="read the term from a file")
    p_eval.add_argument("--machine", choices=("smallstep", "ck"),
                        default="smallstep")
    p_eval.add_argument("--trace", action="store_true",
                        help="print every step taken")
    p_eval.add_argument("--fuel", type=int, default=10000)

    p_cmp = sub.add_parser(
        "compare",
        help="diff small-step evaluation against the derived machine")
    p_cmp.add_argument("spec")
    p_cmp.add_argument("--ck", help="use this machine spec instead of deriving one")
    p_cmp.add_argument("--count", type=int, default=100)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--max-size", type=int, default=7)
    p_cmp.add_argument("--fuel", type=int, default=10000)

    return top


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    # One parser serves every call in a process: parsing leaves it as it
    # was.  It is built on the first call, not at import.
    global _parser
    if _parser is None:
        _parser = build_parser()
    # Options are stored as they are read, so a usage error met after
    # --format is reported in the format it asked for.
    args = argparse.Namespace()
    try:
        _parser.parse_args(argv, namespace=args)
    except LangxError as exc:
        Reporter(args.format == "structured", Style()).diagnostic(str(exc))
        return EXIT_INVALID
    rep = Reporter(args.format == "structured", Style())
    try:
        if getattr(args, "fuel", 1) <= 0:
            raise LangxError("fuel must be positive")
        if getattr(args, "count", 1) <= 0:
            raise LangxError("count must be positive")
        # Looked up at call time, so a command replaced on the module runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args, rep)
    except SpecParseError as exc:
        for err in exc.errors:
            rep.diagnostic(str(err), span=str(err.span))
        return EXIT_INVALID
    except CKError as exc:
        rep.emit(str(exc), err=True, kind="error", message=str(exc))
        return EXIT_TRANSFORM
    except LangxError as exc:
        rep.diagnostic(str(exc))
        return EXIT_INVALID
    except RecursionError:
        rep.diagnostic("input is nested too deeply to process")
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())
