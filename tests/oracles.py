"""Brute-force reference implementations the fast code is checked against."""

import dataclasses
import json
import random
from itertools import islice, product
from typing import Iterator

from langx.cli import (
    _outcome,
    _outcome_text,
    outcomes_agree,
    shrink_counterexample,
)
from langx.engine import (
    MT,
    EngineError,
    NoRuleApplies,
    NotSyntaxDirected,
    OutOfFuel,
    Stuck,
    StuckMachine,
    SubtypeFailure,
    TraceStep,
    TypecheckError,
    UnboundVariable,
    _machine_kind,
    _match_program,
    _min_sizes,
    _production_size,
    _run_match,
    _value_test,
    check_subtype,
    ck_eval,
    decompose,
    evaluate,
    instantiate,
    is_value,
    is_value_pattern,
    iter_swarm_terms,
    plug,
    substitute,
    typecheck,
)
from langx.ir import (
    CONTRAVARIANT,
    COVARIANT,
    HOLE,
    BinderApp,
    Constructor,
    GrammarCategory,
    Hole,
    Join,
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
    rebuild,
    term_head,
    term_size,
)
from langx.parser import render_state, render_term
from langx.subtyping import NoJoin, join_all


def oracle_term_size(t):
    """Number of nodes in a term, annotation subterms included."""
    match t:
        case Constructor(_, args):
            return 1 + sum(oracle_term_size(a) for a in args)
        case BinderApp(_, _, args):
            return 1 + sum(oracle_term_size(a) for a in args)
        case Subst(target, repl, _):
            return 1 + oracle_term_size(target) + oracle_term_size(repl)
        case _:
            return 1


def oracle_free_vars(t):
    """The variables of t not bound above their occurrence, recursing once
    per level."""
    match t:
        case Var(name):
            return {name}
        case Constructor(_, args):
            return set().union(*map(oracle_free_vars, args))
        case BinderApp(_, bound, args):
            return set().union(*map(oracle_free_vars, args)) - {bound}
    return set()


def oracle_substitute(t, var, replacement):
    """Capture-avoiding substitution, recursing once per level.  A term var
    is not free in comes back as it is.  A binder that would capture a free
    variable of replacement is first renamed to the first of bound, bound1,
    bound2, ... free in neither replacement nor its arguments, nor var."""
    if var not in oracle_free_vars(t):
        return t
    match t:
        case Var(_):
            return replacement
        case Constructor(name, args):
            return Constructor(name, tuple(oracle_substitute(a, var, replacement)
                                           for a in args))
        case BinderApp(binder, bound, args):
            if bound in oracle_free_vars(replacement):
                avoid = oracle_free_vars(replacement).union(
                    {var}, *map(oracle_free_vars, args))
                renamed = next(name for name in
                               (bound, *(f"{bound}{n}" for n in range(1, len(avoid) + 2)))
                               if name not in avoid)
                args = tuple(oracle_substitute(a, bound, Var(renamed)) for a in args)
                bound = renamed
            return BinderApp(binder, bound, tuple(oracle_substitute(a, var, replacement)
                                                  for a in args))
    return t


def oracle_member(t, category_name, spec, memo=None):
    """Top-down grammar membership: re-derive t from each production of the
    category, recursing once per level of t.  A memo dict, when given, keeps
    each answer by node and category.

    Plain loops in place of any() and all() keep the recursion in Python
    frames, which sys.setrecursionlimit governs on every supported Python:
    a deep term's recursion through those builtins meets the interpreter's
    fixed C recursion limit on 3.12."""
    if memo is not None and (t, category_name) in memo:
        return memo[t, category_name]
    cat = spec.category(category_name)
    found = False
    for p in cat.productions if cat is not None else ():
        if _generates(p, t, spec, memo):
            found = True
            break
    if memo is not None:
        memo[t, category_name] = found
    return found


def _generates(production, t, spec, memo=None):
    if isinstance(production, Metavariable):
        return oracle_member(t, production.category, spec, memo)
    if isinstance(production, Var):
        return isinstance(t, Var)
    if isinstance(production, Hole):
        return isinstance(t, Hole)
    if isinstance(production, Constructor):
        same_head = isinstance(t, Constructor) and t.name == production.name
    elif isinstance(production, BinderApp):
        same_head = isinstance(t, BinderApp) and t.binder == production.binder
    else:
        return False
    if not same_head or len(t.args) != len(production.args):
        return False
    for s, a in zip(production.args, t.args):
        if not _generates(s, a, spec, memo):
            return False
    return True


def oracle_decompose(t, spec):
    """engine.decompose as it was before it tested the hole first: at each
    node, descend by the first context production of its operator whose
    other slots derive their arguments and whose hole argument is not a
    value, every test by oracle_member with a fresh memo."""
    ctx = spec.context_category
    value = spec.value_category
    memo = {}
    path = []
    while isinstance(t, Constructor):
        for prod in ctx.productions if ctx is not None else ():
            if not (isinstance(prod, Constructor) and prod.name == t.name
                    and len(prod.args) == len(t.args)):
                continue
            holes = context_holes(prod, ctx.name)
            if not holes:
                continue
            hole_at = holes[0]
            if all(_generates(s, a, spec, memo)
                   for i, (s, a) in enumerate(zip(prod.args, t.args)) if i != hole_at) \
                    and not (value is not None
                             and oracle_member(t.args[hole_at], value.name, spec, memo)):
                path.append((t, hole_at))
                t = t.args[hole_at]
                break
        else:
            break
    context = HOLE
    for node, hole_at in reversed(path):
        context = Constructor(node.name,
                              node.args[:hole_at] + (context,) + node.args[hole_at + 1:])
    return context, t


def oracle_match(pattern, subject, sigma, spec, cats):
    """engine's matching as it was before patterns were compiled, recursing
    once per pattern level: a metavariable binds, a variable compares, and
    any other pattern matches the subjects with its head whose children its
    own match; a binder binds its bound variable too.  A hole or a
    substitution matches nothing."""
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
    return all(oracle_match(p, s, sigma, spec, cats)
               for p, s in zip(children(pattern), children(subject)))


def oracle_instantiate(pattern, sigma):
    """engine's instantiation as it was before patterns were compiled,
    recursing once per pattern level."""
    kind = type(pattern)
    if kind is Metavariable:
        if pattern.token not in sigma:
            raise EngineError(f"unbound metavariable {pattern.token!r} in a right-hand side")
        return sigma[pattern.token]
    if kind is Var:
        bound = sigma.get(pattern.name)
        return bound if isinstance(bound, Var) else pattern
    kids = tuple([oracle_instantiate(a, sigma) for a in children(pattern)])
    if kind is Subst:
        bound = sigma.get(pattern.var)
        return substitute(kids[0], bound.name if isinstance(bound, Var) else pattern.var, kids[1])
    if kind is BinderApp:   # the bound variable is renamed as the match bound it
        bound = sigma.get(pattern.bound_var)
        if isinstance(bound, Var):
            return BinderApp(pattern.binder, bound.name, kids)
    return rebuild(pattern, kids)


def oracle_evaluate(t, spec, fuel=10000):
    """Small-step evaluation that takes every step its fuel allows, each
    decomposing its term from the root and contracting the focus by the
    first reduction rule oracle_match matches."""
    trace = []
    current = t
    for _ in range(fuel):
        cats = {}
        if is_value(current, spec, cats):
            return current, trace
        context, redex = decompose(current, spec)
        for rule in spec.reduction_rules():
            sigma = {}
            if oracle_match(rule.conclusion.lhs, redex, sigma, spec, cats):
                after = plug(context, oracle_instantiate(rule.conclusion.rhs, sigma))
                trace.append(TraceStep("contextual-reduction", rule.name, current, after))
                current = after
                break
        else:
            raise Stuck(current, trace)
    if is_value(current, spec):
        return current, trace
    raise OutOfFuel(current, trace)


def oracle_ck_eval(config, spec, fuel=10000):
    """Machine evaluation that takes every transition its fuel allows, each
    by the first rule oracle_match matches among those for its focus: a
    value focus takes the rules with value-shaped focus patterns, any other
    focus the rest."""
    rules = {focus_is_value: [r for r in spec.machine_rules()
                              if is_value_pattern(r.conclusion.lhs.focus, spec) == focus_is_value]
             for focus_is_value in (False, True)}
    trace = []
    current = config
    for _ in range(fuel):
        cats = {}
        focus_is_value = is_value(current.focus, spec, cats)
        if focus_is_value and current.continuation == MT:
            return current.focus, trace
        stepped = None
        for rule in rules[focus_is_value]:
            lhs = rule.conclusion.lhs
            sigma = {}
            if not (oracle_match(lhs.focus, current.focus, sigma, spec, cats)
                    and oracle_match(lhs.continuation, current.continuation, sigma, spec, cats)):
                continue
            rhs = rule.conclusion.rhs
            after = MachineConfig(oracle_instantiate(rhs.focus, sigma),
                                  oracle_instantiate(rhs.continuation, sigma))
            stepped = TraceStep(_machine_kind(rule.name), rule.name, current, after)
            break
        if stepped is None:
            raise StuckMachine(current, trace)
        trace.append(stepped)
        current = stepped.after
    if is_value(current.focus, spec) and current.continuation == MT:
        return current.focus, trace
    raise OutOfFuel(current, trace)


# The generator as it was before it read a compiled generation plan: every
# draw filters its category's productions by budget and sizes each slot.

def _production_sizes(
        spec: LanguageSpec) -> dict[tuple[str, bool], tuple[tuple[Term, int], ...]]:
    """Per (category, closed): each production but the hole, with its smallest size."""
    open_sizes, closed_sizes = spec.derived(_min_sizes)
    return {(cat.name, closed): tuple(
                (p, _production_size(p, open_sizes, closed_sizes, closed))
                for p in cat.productions if not isinstance(p, Hole))
            for cat in spec.categories for closed in (False, True)}


def oracle_iter_random_terms(spec: LanguageSpec, seed: int = 0, max_size: int = 7,
                             min_budget: int = 0) -> Iterator[Term]:
    """Endless stream of random closed Expression terms of size <= max_size.

    The stream is deterministic in (seed, max_size) and prefix-stable, so a
    caller that filters it still sees reproducible terms.  min_budget lifts
    the low end of the per-term size draw, biasing toward larger terms.
    """
    rng = random.Random(seed)
    open_sizes, closed_sizes = spec.derived(_min_sizes)
    productions = spec.derived(_production_sizes)
    expr = spec.expression_category
    if expr is None:
        raise EngineError("spec has no Expression category to generate terms for")
    if closed_sizes[expr.name] > max_size:
        raise EngineError(
            f"smallest closed term has {closed_sizes[expr.name]} nodes, above max size {max_size}")
    var_base = spec.variables[0] if spec.variables else "x"

    # Each gen_* returns the term it builds with its size, so gen_slots
    # need not measure the arguments it has just built.
    def gen_cat(cat_name: str, budget: int, scope: tuple[str, ...],
                depth: int) -> tuple[Term, int]:
        options = [p for p, size in productions[cat_name, not scope] if size <= budget]
        production = rng.choice(options)
        return gen_prod(production, budget, scope, depth)

    def gen_prod(p: Term, budget: int, scope: tuple[str, ...],
                 depth: int) -> tuple[Term, int]:
        match p:
            case Metavariable(_, _, cat_name):
                return gen_cat(cat_name, budget, scope, depth)
            case Var(_):
                return Var(rng.choice(scope)), 1
            case Constructor(name, slots):
                args, size = gen_slots(slots, budget - 1, scope, depth)
                return Constructor(name, args), 1 + size
            case BinderApp(binder, _, slots):
                bound = f"{var_base}{depth}" if depth else var_base
                args, size = gen_slots(slots, budget - 1, scope + (bound,), depth + 1)
                return BinderApp(binder, bound, args), 1 + size
            case _:
                return p, term_size(p)

    def gen_slots(slots: tuple[Term, ...], budget: int, scope: tuple[str, ...],
                  depth: int) -> tuple[tuple[Term, ...], int]:
        args = []
        remaining = budget
        mins = [_production_size(s, open_sizes, closed_sizes, not scope) for s in slots]
        for i, slot in enumerate(slots):
            reserve = sum(mins[i + 1:])
            give = rng.randint(mins[i], max(mins[i], remaining - reserve))
            arg, size = gen_prod(slot, give, scope, depth)
            args.append(arg)
            remaining -= size
        return tuple(args), budget - remaining

    floor = max(closed_sizes[expr.name], min(min_budget, max_size))
    while True:
        budget = rng.randint(floor, max_size)
        yield gen_cat(expr.name, budget, (), 0)[0]


def oracle_iter_swarm_terms(spec: LanguageSpec, seed: int = 0,
                            max_size: int = 7) -> Iterator[Term]:
    """engine.iter_swarm_terms as it was before narrowed grammars became masks
    over one generation plan: each candidate is a spec of its own, with the
    Expression productions it keeps, sized whole and drawn from through
    oracle_iter_random_terms."""
    rng = random.Random(seed)
    expr = spec.expression_category
    if expr is None:
        raise EngineError("spec has no Expression category to generate terms for")
    productions = expr.productions
    leaf_idx = [i for i, p in enumerate(productions)
                if isinstance(p, Constructor) and not p.args]
    focus_idx = [i for i, p in enumerate(productions)
                 if (isinstance(p, Constructor) and p.args)
                 or isinstance(p, BinderApp)]
    while True:
        sub = spec
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
                kept = tuple(productions[i] for i in sorted(keep))
                candidate = dataclasses.replace(spec, categories=tuple(
                    GrammarCategory(c.name, c.metavariable, kept) if c.name == expr.name
                    else c for c in spec.categories))
                rng.randrange(2 ** 32)
                if candidate.derived(_min_sizes)[1][expr.name] > max_size:
                    continue
                sub = candidate
                floor = rng.choice((max_size // 2, max_size))
                break
        yield from islice(
            oracle_iter_random_terms(sub, rng.randrange(2 ** 32), max_size,
                                     min_budget=floor), 25)


def oracle_print_trace(trace, spec, rep):
    """cli._print_trace rendering both states of every step."""
    for step in trace:
        before = render_state(step.before, spec)
        after = render_state(step.after, spec)
        label = rep.style.rule(f"[{step.kind}/{step.rule_name}]")
        rep.emit(f"{label} {before}  ~~>  {after}", kind=step.kind,
                 rule=step.rule_name, before=before, after=after)


def oracle_check_subtype(t1, t2, spec):
    """Reflexivity, transitively closed base axioms, and structural variance."""
    if t1 == t2:
        return True
    if (isinstance(t1, Constructor) and isinstance(t2, Constructor)
            and not t1.args and not t2.args):
        return (t1.name, t2.name) in spec.base_subtype_closure()
    if (isinstance(t1, Constructor) and isinstance(t2, Constructor)
            and t1.name == t2.name and len(t1.args) == len(t2.args)):
        marks = spec.variance.get(t1.name)
        if marks is None or len(marks) != len(t1.args):
            return False
        for mark, a, b in zip(marks, t1.args, t2.args):
            if mark == COVARIANT:
                if not oracle_check_subtype(a, b, spec):
                    return False
            elif mark == CONTRAVARIANT:
                if not oracle_check_subtype(b, a, spec):
                    return False
            elif a != b:
                return False
        return True
    return False


def _rules_by_head(spec):
    table = {}
    for rule in spec.typing_rules():
        head = term_head(rule.conclusion.subject)
        if head in table:
            raise NotSyntaxDirected(str(head[1] if len(head) > 1 else head[0]))
        table[head] = rule
    return table


def oracle_typecheck(t, spec, env=None):
    """engine.typecheck as it was before its rules ran as typing steps on an
    explicit stack: it recurses once per level of t's typing derivation,
    discharging each rule's premises in order under one substitution and
    raising where a premise fails."""
    table = _rules_by_head(spec)
    value, membership = spec.derived(_value_test)

    def matches(pattern, subject, sigma):
        return _run_match(_match_program((pattern,), value), [subject], sigma,
                          value, membership, {})

    def build(pattern, sigma):
        return instantiate(pattern, sigma, spec)

    def bind_or_compare(pattern, ty, sigma):
        if isinstance(pattern, Metavariable) and pattern.token not in sigma:
            sigma[pattern.token] = ty
        elif (built := build(pattern, sigma)) != ty:
            raise SubtypeFailure(built, ty)

    env = env or {}
    if isinstance(t, Var):
        if t.name in env:
            return env[t.name]
        raise UnboundVariable(t.name)
    rule = table.get(term_head(t))
    sigma = {}
    if rule is None or not matches(rule.conclusion.subject, t, sigma):
        raise NoRuleApplies(t)
    try:
        for premise in rule.premises:
            match premise:
                case Typing(penv, subject, ty):
                    inner_env = dict(env)
                    for var, vty in penv.extensions:
                        inner_env[build(Var(var), sigma).name] = build(vty, sigma)
                    actual = oracle_typecheck(build(subject, sigma), spec, inner_env)
                    if not matches(ty, actual, sigma):
                        raise NoRuleApplies(t)
                case Subtype(sub, sup):
                    a, b = build(sub, sigma), build(sup, sigma)
                    if not check_subtype(a, b, spec):
                        raise SubtypeFailure(a, b)
                case TypeEq(left, right):
                    if isinstance(right, Metavariable) and right.token not in sigma:
                        left, right = right, left
                    bind_or_compare(left, build(right, sigma), sigma)
                case Join(result, operands):
                    joined = join_all(tuple(build(o, sigma) for o in operands), spec)
                    bind_or_compare(result, joined, sigma)
                case _:
                    raise TypecheckError(
                        f"rule {rule.name!r} has an unsupported premise for checking")
        return build(rule.conclusion.ty, sigma)
    except TypecheckError:   # the premises' own verdicts, and the subterms'
        raise
    except EngineError:   # a metavariable the rule leaves unbound: it cannot type t
        raise NoRuleApplies(t) from None
    except NoJoin as exc:
        raise SubtypeFailure(exc.t1, exc.t2) from None


def oracle_compare(spec, machine_spec, count, seed, max_size, fuel=10000):
    """Exit code and structured stdout of `langx compare`, typechecking every
    draw and running and rendering every compared term afresh."""
    machine_fuel = 3 * fuel

    def outcomes(term):
        return (_outcome(evaluate, term, spec, fuel)[:2],
                _outcome(ck_eval, MachineConfig(term, MT), machine_spec, machine_fuel)[:2])

    def disagrees(term):
        return not outcomes_agree(*outcomes(term))

    def well_typed_terms():
        stream = iter_swarm_terms(spec, seed=seed, max_size=max_size)
        if not spec.typing_rules():
            for _ in range(count):
                yield next(stream)
            return
        produced = 0
        for _ in range(max(200 * count, 10000)):
            term = next(stream)
            try:
                typecheck(term, spec)
            except (TypecheckError, NoJoin):
                continue
            yield term
            produced += 1
            if produced >= count:
                return

    records = []
    total = 0
    agreed = 0
    first_failure = None
    for index, term in enumerate(well_typed_terms()):
        source, machine = outcomes(term)
        ok = outcomes_agree(source, machine)
        total += 1
        agreed += ok
        records.append({"kind": "compare", "index": index,
                        "term": render_term(term, spec),
                        "source": _outcome_text(source, spec),
                        "machine": _outcome_text(machine, machine_spec),
                        "agree": ok})
        if not ok and first_failure is None:
            first_failure = term
    if total < count:
        records.append({"kind": "diagnostic",
                        "message": f"only {total} of the {count} requested terms "
                                   f"typechecked within the attempt limit",
                        "span": None})
    records.append({"kind": "summary", "message": f"{agreed}/{total} agree",
                    "agree": agreed, "total": total})
    code = 0
    if agreed < total:
        minimal = shrink_counterexample(first_failure, disagrees)
        records.append({"kind": "counterexample", "term": render_term(minimal, spec),
                        "size": term_size(minimal)})
        code = 5
    return code, "".join(json.dumps(record) + "\n" for record in records)

def compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in compositions(total - head, parts - 1):
            yield (head, *rest)


def enumerate_types(spec, max_depth, bases=None):
    """Ground type terms up to constructor-nesting depth `max_depth`."""
    cat = spec.type_category
    leaves = [p for p in cat.productions
              if isinstance(p, Constructor) and not p.args
              and (bases is None or p.name in bases)]
    ctors = [p for p in cat.productions
             if isinstance(p, Constructor) and p.args]
    levels = [list(leaves)]
    for _ in range(max_depth):
        grown = list(levels[-1])
        for ctor in ctors:
            for args in product(levels[-1], repeat=len(ctor.args)):
                grown.append(Constructor(ctor.name, args))
        levels.append(grown)
    # dedup, preserving order
    seen, out = set(), []
    for t in levels[-1]:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def subtype_fixpoint(universe, spec):
    """Least subtype relation on `universe`: reflexivity, declared base
    axioms, the per-constructor variance rule, and explicit transitivity."""
    rel = {(t, t) for t in universe}
    names = {t.name for t in universe if isinstance(t, Constructor) and not t.args}
    for a, b in spec.base_subtypes:
        if a in names and b in names:
            rel.add((Constructor(a), Constructor(b)))
    changed = True
    while changed:
        changed = False
        for t1 in universe:
            for t2 in universe:
                if (t1, t2) in rel:
                    continue
                if _structural(t1, t2, rel, spec) or any(
                        (t1, mid) in rel and (mid, t2) in rel for mid in universe):
                    rel.add((t1, t2))
                    changed = True
    return rel


def _structural(t1, t2, rel, spec):
    if not (isinstance(t1, Constructor) and isinstance(t2, Constructor)):
        return False
    if t1.name != t2.name or len(t1.args) != len(t2.args) or not t1.args:
        return False
    marks = spec.variance.get(t1.name)
    if marks is None:
        return False
    for mark, a1, a2 in zip(marks, t1.args, t2.args):
        if mark == "co" and (a1, a2) not in rel:
            return False
        if mark == "contra" and (a2, a1) not in rel:
            return False
        if mark == "inv" and a1 != a2:
            return False
    return True


def replace_at(term, path, replacement):
    if not path:
        return replacement
    head, *rest = path
    args = list(term.args)
    args[head] = replace_at(args[head], rest, replacement)
    return Constructor(term.name, tuple(args))


def type_paths(term, prefix=()):
    """Every path to a position inside `term`, the whole term included."""
    yield prefix
    if isinstance(term, Constructor):
        for i, arg in enumerate(term.args):
            yield from type_paths(arg, prefix + (i,))


def variance_by_substitution(term, path, spec, check_subtype):
    """Observed variance of one position: plug both ends of the two-point
    base lattice into it and see which way the whole types relate."""
    lo = replace_at(term, path, Constructor("int"))
    hi = replace_at(term, path, Constructor("float"))
    up = check_subtype(lo, hi, spec)
    down = check_subtype(hi, lo, spec)
    if up and not down:
        return "co"
    if down and not up:
        return "contra"
    return "inv"


def enumerate_closed_terms(spec, max_size, category="Expression"):
    """Every closed term of the category with at most `max_size` nodes.

    Bound variables are named by binder depth (x, x1, x2, ...) so terms are
    canonical; enumeration order is production order, then size splits.
    """
    cache = {}

    def of_category(cat_name, size, scope, depth):
        key = (cat_name, size, scope)
        if key in cache:
            return cache[key]
        out = []
        for production in spec.category(cat_name).productions:
            if isinstance(production, Hole):
                continue
            out.extend(of_production(production, size, scope, depth))
        cache[key] = out
        return out

    def of_production(p, size, scope, depth):
        if isinstance(p, Metavariable):
            return of_category(p.category, size, scope, depth)
        if isinstance(p, Var):
            return [Var(name) for name in scope] if size == 1 else []
        if isinstance(p, Constructor):
            if not p.args:
                return [p] if size == 1 else []
            out = []
            for split in compositions(size - 1, len(p.args)):
                for args in product(*(of_production(a, s, scope, depth)
                                      for a, s in zip(p.args, split))):
                    out.append(Constructor(p.name, args))
            return out
        if isinstance(p, BinderApp):
            bound = f"x{depth}" if depth else "x"
            inner = scope + (bound,)
            out = []
            for split in compositions(size - 1, len(p.args)):
                for args in product(*(of_production(a, s, inner, depth + 1)
                                      for a, s in zip(p.args, split))):
                    out.append(BinderApp(p.binder, bound, args))
            return out
        return []

    terms = []
    for size in range(1, max_size + 1):
        terms.extend(of_category(category, size, (), 0))
    return terms
