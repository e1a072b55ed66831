"""langx: parse, transform, and execute small-language specifications.

A language lives in a `.lang` file as a grammar plus inference rules.  This
package parses those files, rewrites typing rules to be subtype-aware,
derives CK-style abstract machines from evaluation contexts, runs both kinds
of semantics, and checks that they agree.
"""

from .ir import (
    BinderApp,
    Constructor,
    EnvExpr,
    GrammarCategory,
    Hole,
    HOLE,
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
    subterms,
    term_size,
)
from .parser import (
    ParseError,
    SpecParseError,
    parse_spec,
    parse_term,
    print_spec,
    render_formula,
    render_term,
)
from .variance import (
    MissingVariance,
    Occurrence,
    collect_occurrences,
    compose_variance,
    occurrence_variance,
)
from .subtyping import (
    NoJoin,
    SubtypingError,
    add_subtyping,
    canonical_rule,
    generate_join_relation,
    generate_subtype_relation,
    join_types,
    meet_types,
    split_equal_types,
)
from .ck import (
    AmbiguousStart,
    BadContext,
    CKError,
    ContinuationOp,
    NoFinalContinuation,
    NoPlugRule,
    NoStart,
    OrderAmbiguity,
    PatternMismatch,
    derive_ck,
)
from .engine import (
    MT,
    OutOfFuel,
    Stuck,
    StuckMachine,
    TraceStep,
    TypecheckError,
    check_subtype,
    ck_eval,
    decompose,
    evaluate,
    is_value,
    match_pattern,
    plug,
    random_terms,
    step,
    substitute,
    typecheck,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
