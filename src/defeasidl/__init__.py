"""defeasidl: defeasible theories compiled to Datalog with negation.

The pipeline: parse a theory, validate it, compile it to a Datalog
program for team or individual defeat, evaluate that program under the
stratified, Fitting or well-founded semantics (or the hybrid stratified
floor + Fitting backend), and cross-check everything against a direct
proof-theoretic oracle.
"""

from types import ModuleType as _ModuleType

from .compiler import (
    CompilationOutput,
    compile_individual,
    compile_team,
    compiled_size,
    emit_datalog_text,
    read_conclusions,
)
from .datalog import (
    DatalogProgram,
    DClause,
    DependencyGraph,
    compute_signing,
    dependency_graph,
    is_call_consistent,
    is_safe,
    parse_datalog,
    print_datalog,
    stratify,
)
from .evaluator import (
    GroundProgram,
    NotStratified,
    ThreeValuedInterpretation,
    UnsafeProgram,
    eval_fitting,
    eval_hybrid,
    eval_stratified,
    eval_wellfounded,
    ground_program,
)
from .oracle import (
    ConclusionSet,
    conclusions,
    delta_closure,
    dpar_closure,
    dpar_star_closure,
    lambda_closure,
)
from .parser import ParseError, format_theory, parse_theory
from .theory import (
    Atom,
    DefeasibleTheory,
    EmptyUniverse,
    Literal,
    Rule,
    RuleKind,
    Term,
    ValidationFailed,
    ValidationReport,
    ground_theory,
    is_hierarchical,
    is_locally_hierarchical,
    is_range_restricted,
    theory_size,
    validate_theory,
)

# The imported API names; importing them also bound the submodules.
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
