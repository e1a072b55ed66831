"""Variance of metavariable occurrences inside type terms.

A position's variance is the composition of the marks along the path from
the root of the type down to the occurrence.  Composition starts covariant;
invariance absorbs everything, and two contravariant steps cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ir import (
    CONTRAVARIANT,
    COVARIANT,
    INVARIANT,
    Constructor,
    Formula,
    LangxError,
    LanguageSpec,
    Metavariable,
    Term,
    Typing,
    InferenceRule,
)


class MissingVariance(LangxError):
    def __init__(self, constructor: str):
        self.constructor = constructor
        super().__init__(f"no variance declaration for type constructor {constructor!r}")


def compose_variance(outer: str, inner: str) -> str:
    if outer == INVARIANT or inner == INVARIANT:
        return INVARIANT
    if outer == CONTRAVARIANT:
        return COVARIANT if inner == CONTRAVARIANT else CONTRAVARIANT
    return inner


@dataclass(frozen=True)
class Occurrence:
    """One occurrence of a type metavariable in a premise's output type."""

    premise_index: int
    path: tuple[int, ...]
    variance: str


def occurrence_variance(ty: Term, path: tuple[int, ...], spec: LanguageSpec) -> str:
    """Variance of the position reached by following path from the root of ty."""
    variance = COVARIANT
    node = ty
    for index in path:
        if not isinstance(node, Constructor) or index >= len(node.args):
            raise LangxError(f"path {path} does not exist in the given type")
        marks = spec.variance.get(node.name)
        if marks is None or len(marks) != len(node.args):
            raise MissingVariance(node.name)
        variance = compose_variance(variance, marks[index])
        node = node.args[index]
    return variance


def output_type_metavariables(
    premises: tuple[Formula, ...],
) -> Iterator[tuple[int, tuple[int, ...], Metavariable]]:
    """(premise index, path, metavariable) for every metavariable in the
    output type of a Typing premise, in premise order and pre-order within
    one type.  The bound types of environment extensions are not visited.

    The walk runs on an explicit stack and keeps one path list, below a
    dummy root entry: each stack entry holds the length of its parent's
    path and its own position there."""
    for i, premise in enumerate(premises):
        if isinstance(premise, Typing):
            path: list[int] = []
            stack: list[tuple[Term, int, int]] = [(premise.ty, 0, 0)]
            while stack:
                t, above, at = stack.pop()
                path[above:] = (at,)
                if isinstance(t, Metavariable):
                    yield i, tuple(path[1:]), t
                elif isinstance(t, Constructor):
                    stack.extend((t.args[j], len(path), j) for j in reversed(range(len(t.args))))


def collect_occurrences(rule: InferenceRule, token: str, spec: LanguageSpec) -> tuple[Occurrence, ...]:
    """All occurrences of a type metavariable in the rule's Typing premises.

    Only the output type of each premise is scanned, in premise order, and
    pre-order within one type.  The bound types of environment extensions and
    the conclusion are deliberately excluded.
    """
    return tuple(
        Occurrence(i, path, occurrence_variance(rule.premises[i].ty, path, spec))
        for i, path, mv in output_type_metavariables(rule.premises)
        if mv.token == token
    )
