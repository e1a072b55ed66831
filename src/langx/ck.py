"""Deriving a CK abstract machine from evaluation-context semantics.

Each context production (op … E …) becomes a continuation constructor op_i
remembering the other arguments.  Machine rules then say how the focus moves:
a Start rule descends into the first evaluated position, Order rules shift a
finished value to the next position, and Computation rules fire the source
reduction once every evaluated position holds a value.  Value formers with
contexts but no reduction get a plug rule rebuilding the saturated value, so
the machine can resume the surrounding computation; a value former that no
such rule covers is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Constructor,
    GrammarCategory,
    Hole,
    InferenceRule,
    LangxError,
    LanguageSpec,
    MachineConfig,
    MachineStep,
    Metavariable,
    Term,
    context_holes,
)
from .engine import MT, _membership_table, is_value_pattern

CONTINUATION_CATEGORY = "Continuation"
CONTINUATION_METAVAR = "k"


class CKError(LangxError):
    pass


class BadContext(CKError):
    pass


class NoStart(CKError):
    def __init__(self, op: str):
        self.op = op
        super().__init__(f"operator {op!r} has no context free of value slots to start from")


class AmbiguousStart(CKError):
    def __init__(self, op: str):
        self.op = op
        super().__init__(f"operator {op!r} has several contexts free of value slots")


class OrderAmbiguity(CKError):
    def __init__(self, op: str, index: int):
        self.op = op
        self.index = index
        super().__init__(
            f"operator {op!r}: filling context {index} matches several hole positions")


class NoFinalContinuation(CKError):
    def __init__(self, op: str):
        self.op = op
        super().__init__(f"operator {op!r} has no final continuation for its reductions")


class NoPlugRule(CKError):
    def __init__(self, op: str):
        self.op = op
        super().__init__(
            f"operator {op!r} forms values, but no plug rule over value arguments rebuilds them")


class PatternMismatch(CKError):
    def __init__(self, op: str, rule_name: str, position: int):
        self.op = op
        self.rule_name = rule_name
        self.position = position
        super().__init__(
            f"rule {rule_name!r}: argument {position} of {op!r} is evaluated "
            f"but the pattern there is not a value")


@dataclass(frozen=True)
class ContinuationOp:
    """One continuation constructor, derived from one context production."""

    source_op: str
    index: int                      # 1-based hole position in the source context
    slots: tuple[tuple[int, str], ...]   # (source position, "e" | "v") minus the hole

    @property
    def name(self) -> str:
        return f"{self.source_op}_{self.index}"


def _k() -> Metavariable:
    return Metavariable(CONTINUATION_METAVAR, None, CONTINUATION_CATEGORY)


def _pos_metavar(spec: LanguageSpec, shape: str, position: int | None) -> Metavariable:
    """The value ("v") or expression ("e") metavariable for an argument
    position, suffixed with the position; bare for a position of None."""
    cat = spec.value_category if shape == "v" else spec.expression_category
    base = cat.metavariable if cat is not None else shape
    return Metavariable(base, None if position is None else str(position),
                        cat.name if cat is not None else "Expression")


def _machine_rule(name: str, focus: Term, continuation: Term,
                  focus_after: Term, continuation_after: Term) -> InferenceRule:
    """The axiom <focus , continuation> --> <focus_after , continuation_after>."""
    return InferenceRule(name, (), MachineStep(MachineConfig(focus, continuation),
                                               MachineConfig(focus_after, continuation_after)))


def _slot_shape(slot: Term, spec: LanguageSpec) -> str:
    if isinstance(slot, Metavariable):
        value = spec.value_category
        if value is not None and slot.category == value.name:
            return "v"
        expr = spec.expression_category
        if expr is not None and slot.category == expr.name:
            return "e"
    raise BadContext("context arguments must be expression or value metavariables")


def continuation_ops(spec: LanguageSpec) -> dict[str, list[ContinuationOp]]:
    """Continuation constructors per operator, in source-context order."""
    ctx = spec.context_category
    if ctx is None:
        raise BadContext("spec has no evaluation-context category")
    ops: dict[str, list[ContinuationOp]] = {}
    for prod in ctx.productions:
        if isinstance(prod, Hole):
            continue
        if not isinstance(prod, Constructor):
            raise BadContext(f"context production {prod!r} is not an operator application")
        holes = context_holes(prod, ctx.name)
        if len(holes) != 1:
            raise BadContext(
                f"context production for {prod.name!r} must have exactly one hole")
        hole_at = holes[0]
        slots = tuple(
            (i + 1, _slot_shape(a, spec))
            for i, a in enumerate(prod.args) if i != hole_at
        )
        ops.setdefault(prod.name, []).append(
            ContinuationOp(prod.name, hole_at + 1, slots))
    return ops


def generate_continuation_grammar(spec: LanguageSpec) -> GrammarCategory:
    productions: list[Term] = [MT]
    k = _k()
    for conts in continuation_ops(spec).values():
        for cont in conts:
            args = [_pos_metavar(spec, shape, None) for _, shape in cont.slots]
            productions.append(Constructor(cont.name, (*args, k)))
    return GrammarCategory(CONTINUATION_CATEGORY, CONTINUATION_METAVAR,
                           tuple(productions))


def generate_start_rule(op: str, conts: list[ContinuationOp],
                        spec: LanguageSpec) -> InferenceRule:
    starts = [c for c in conts if all(shape == "e" for _, shape in c.slots)]
    if not starts:
        raise NoStart(op)
    if len(starts) > 1:
        raise AmbiguousStart(op)
    start = starts[0]
    arity = len(start.slots) + 1
    k = _k()
    lhs_args = [_pos_metavar(spec, "e", p) for p in range(1, arity + 1)]
    stored = [_pos_metavar(spec, "e", p) for p, _ in start.slots]
    return _machine_rule(f"{op}-start", Constructor(op, tuple(lhs_args)), k,
                         lhs_args[start.index - 1], Constructor(start.name, (*stored, k)))


def generate_order_rules(op: str, conts: list[ContinuationOp],
                         spec: LanguageSpec) -> tuple[list[InferenceRule], list[ContinuationOp]]:
    """Order rules for one operator, plus its final continuations.

    Once cont's hole holds a value, the next context is any other context of
    the operator whose slots all line up with the filled shapes; its hole
    takes either shape.
    """
    rules: list[InferenceRule] = []
    finals: list[ContinuationOp] = []
    k = _k()
    for cont in conts:
        filled = dict(sorted((*cont.slots, (cont.index, "v"))))
        targets = {other.index for other in conts
                   if other.index != cont.index and len(other.slots) == len(cont.slots)
                   and all(filled[p] == shape for p, shape in other.slots)}
        if not targets:
            finals.append(cont)
            continue
        if len(targets) > 1:
            raise OrderAmbiguity(op, cont.index)
        (j,) = targets
        focus = _pos_metavar(spec, "v", cont.index)
        stored = [_pos_metavar(spec, shape, p) for p, shape in cont.slots]
        new_stored = [_pos_metavar(spec, shape, p) for p, shape in filled.items() if p != j]
        extracted = _pos_metavar(spec, filled[j], j)
        rules.append(_machine_rule(
            f"{op}-order-{cont.index}", focus, Constructor(cont.name, (*stored, k)),
            extracted, Constructor(f"{op}_{j}", (*new_stored, k))))
    return rules, finals


def generate_computation_rules(op: str, final: ContinuationOp,
                               reductions: list[InferenceRule],
                               evaluated: set[int],
                               spec: LanguageSpec) -> list[InferenceRule]:
    rules = []
    k = _k()
    for n, rule in enumerate(reductions, start=1):
        lhs = rule.conclusion.lhs
        for pos in sorted(evaluated):
            if not is_value_pattern(lhs.args[pos - 1], spec):
                raise PatternMismatch(op, rule.name, pos)
        focus = lhs.args[final.index - 1]
        stored = tuple(a for i, a in enumerate(lhs.args, start=1) if i != final.index)
        rules.append(_machine_rule(f"{op}-comp-{n}", focus,
                                   Constructor(final.name, (*stored, k)),
                                   rule.conclusion.rhs, k))
    return rules


def _plug_rule(op: str, final: ContinuationOp, spec: LanguageSpec) -> InferenceRule | None:
    """The rule rebuilding op's saturated value once final's hole holds a
    value, or None when such an op node is not a value."""
    values = [_pos_metavar(spec, "v", p) for p in range(1, len(final.slots) + 2)]
    saturated = Constructor(op, tuple(values))
    if not is_value_pattern(saturated, spec):
        return None
    k = _k()
    stored = tuple(values[p - 1] for p, _ in final.slots)
    return _machine_rule(f"{op}-plug", values[final.index - 1],
                         Constructor(final.name, (*stored, k)), saturated, k)


def _forms_values(op: str, arity: int, spec: LanguageSpec) -> bool:
    """Does the Value category derive some node (op ...) of this arity?"""
    value = spec.value_category
    entry = spec.derived(_membership_table).get(("con", op, arity))
    return value is not None and entry is not None and value.name in entry[0]


def derive_ck(spec: LanguageSpec) -> LanguageSpec:
    """Replace context-based reduction with an equivalent machine.

    The result keeps typing rules, drops the context category and the
    reduction rules, and gains a Continuation category plus per-operator
    machine rules.
    """
    ops = continuation_ops(spec)
    continuation = generate_continuation_grammar(spec)

    reductions_by_op: dict[str, list[InferenceRule]] = {}
    direct: list[InferenceRule] = []
    for rule in spec.reduction_rules():
        lhs = rule.conclusion.lhs
        if isinstance(lhs, Constructor) and lhs.name in ops:
            reductions_by_op.setdefault(lhs.name, []).append(rule)
        else:
            direct.append(rule)

    machine: list[InferenceRule] = []
    for op, conts in ops.items():
        machine.append(generate_start_rule(op, conts, spec))
        order, finals = generate_order_rules(op, conts, spec)
        machine.extend(order)
        reductions = reductions_by_op.get(op, [])
        if reductions:
            if not finals:
                raise NoFinalContinuation(op)
            evaluated = {c.index for c in conts}
            machine.extend(generate_computation_rules(
                op, finals[0], reductions, evaluated, spec))
        elif finals:
            plug = _plug_rule(op, finals[0], spec)
            if plug is not None:
                machine.append(plug)
            elif _forms_values(op, len(finals[0].slots) + 1, spec):
                # the machine would be stuck where small-step finds a value
                raise NoPlugRule(op)

    k = _k()
    for n, rule in enumerate(direct, start=1):
        head = rule.conclusion.lhs
        name = head.name if isinstance(head, Constructor) else "step"
        machine.append(_machine_rule(f"{name}-comp-{n}", rule.conclusion.lhs, k,
                                     rule.conclusion.rhs, k))

    ctx = spec.context_category
    categories = tuple(c for c in spec.categories if ctx is None or c.name != ctx.name)
    kept = spec.typing_rules()
    return LanguageSpec(
        name=spec.name,
        categories=(*categories, continuation),
        variance=dict(spec.variance),
        base_subtypes=spec.base_subtypes,
        rules=(*kept, *machine),
        variables=spec.variables,
        binders=dict(spec.binders),
        context_name=None,
    )
