"""lexpress — schema translation and integration.

"lexpress is a tool for schema translation and integration whose
declarative mapping language supports string operations and table
translations of attributes, alternate attribute mappings, multi-valued
attribute processing, and pattern matching."  (Paper section 4.2;
reimplemented from the paper's description — the original is Bell Labs
internal, reference [23].)

Pipeline: source text → :func:`~repro.lexpress.parser.parse` (AST) →
:func:`~repro.lexpress.compiler.compile_expr` (byte code) →
:func:`~repro.lexpress.interpreter.execute`.  The user-facing entry
points are :func:`compile_description` / :func:`compile_mapping`, the
:class:`ClosureEngine` for cross-repository propagation, and
:class:`MappingSetBuilder` for generating both directions of a pair.
"""

from .ast import Span
from .bytecode import CodeObject, Instruction, Op
from .closure import (
    ClosureEngine,
    ClosureResult,
    Conflict,
    CycleReport,
    analyze_cycles,
    check_cycles,
    dependency_graph,
)
from .codegen import MODES, CompiledClosure, Runner, bind, compile_closure
from .compiler import compile_expr, optimize_expr
from .descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
    normalize_attrs,
)
from .errors import (
    CyclicDependencyError,
    FixpointError,
    LexpressCompileError,
    LexpressDivergenceError,
    LexpressError,
    LexpressRuntimeError,
    LexpressSyntaxError,
)
from .functions import known_functions
from .interpreter import execute, lower_attrs, truthy
from .lexer import Token, TokenType, tokenize
from .library import MappingSetBuilder
from .mapping import (
    CompiledMapping,
    CompiledRule,
    MappingInstance,
    compile_description,
    compile_mapping,
)
from .parser import parse
from .partition import AlwaysTrue, PartitionConstraint, route

__all__ = [
    "AlwaysTrue", "ClosureEngine", "ClosureResult", "CodeObject",
    "CompiledClosure", "CompiledMapping", "CompiledRule", "Conflict",
    "CycleReport", "CyclicDependencyError", "FixpointError", "Instruction",
    "LexpressCompileError", "LexpressDivergenceError", "LexpressError",
    "LexpressRuntimeError", "LexpressSyntaxError", "MODES",
    "MappingInstance", "MappingSetBuilder", "Op", "PartitionConstraint",
    "Runner", "Span", "TargetAction", "TargetUpdate", "Token", "TokenType",
    "UpdateDescriptor", "UpdateOp", "analyze_cycles", "bind",
    "check_cycles", "compile_closure", "compile_description",
    "compile_expr", "compile_mapping", "dependency_graph", "execute",
    "known_functions", "lower_attrs", "normalize_attrs", "optimize_expr",
    "parse", "route", "tokenize", "truthy",
]
