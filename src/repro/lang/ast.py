"""Abstract syntax tree for MiniC.

Every node is a plain dataclass carrying an optional source location so
error messages and analysis reports can refer back to the program text.
Expressions and statements form two small class hierarchies rooted at
:class:`Expr` and :class:`Stmt`.

Nodes are mutable dataclasses, but once the parser has built a tree no
pass edits a node in place.  Passes build new nodes and share every
subtree they leave unchanged: the loop unroller
(:mod:`repro.ir.unroll`) returns a tree that shares its input's
statements and in which all iterations of an unrolled loop are one body
object.  A tree may thus be a DAG, and a node edited in place would
change every program and every iteration that shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class BaseType(Enum):
    """Scalar base types with their size in bytes."""

    CHAR = 1
    INT = 4
    LONG = 8
    VOID = 0

    @property
    def size(self) -> int:
        return self.value


@dataclass(frozen=True)
class Qualifiers:
    """Declaration qualifiers that affect the analysis.

    ``is_reg`` variables never generate memory references; ``is_secret``
    variables taint the expressions they flow into, which is how the
    side-channel application identifies secret-indexed array accesses.
    """

    is_reg: bool = False
    is_secret: bool = False
    is_const: bool = False

    def merged_with(self, other: "Qualifiers") -> "Qualifiers":
        return Qualifiers(
            is_reg=self.is_reg or other.is_reg,
            is_secret=self.is_secret or other.is_secret,
            is_const=self.is_const or other.is_const,
        )


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    column: int = field(default=0, kw_only=True)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class Index(Expr):
    """An array element access ``array[index]``."""

    array: str = ""
    index: Expr = None  # type: ignore[assignment]


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnaryOp(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statements and declarations
# ----------------------------------------------------------------------
@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Declaration of a scalar variable, possibly with an initializer."""

    name: str = ""
    base_type: BaseType = BaseType.INT
    qualifiers: Qualifiers = field(default_factory=Qualifiers)
    init: Expr | None = None


@dataclass
class ArrayDecl(Stmt):
    """Declaration of a one-dimensional array, possibly with an initializer
    list.  Initializer values must be integer constants."""

    name: str = ""
    base_type: BaseType = BaseType.INT
    length: int = 0
    qualifiers: Qualifiers = field(default_factory=Qualifiers)
    init: list[int] | None = None


@dataclass
class Assign(Stmt):
    """Assignment to either a scalar (``Identifier``) or an array element
    (``Index``)."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStatement(Stmt):
    """An expression evaluated for its side effects, such as a call or a
    bare array read used to touch a cache line (``ph[i];``)."""

    expr: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: Block = field(default_factory=Block)
    else_body: Block | None = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Block = field(default_factory=Block)


@dataclass
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: Block = field(default_factory=Block)


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Fence(Stmt):
    """A speculation barrier statement (``fence;``).

    Lowered to the IR :class:`~repro.ir.instructions.Fence` instruction;
    architecturally a no-op, but it stops speculative execution, which is
    how synthesised mitigations close speculative leaks.
    """


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Param(Node):
    name: str = ""
    base_type: BaseType = BaseType.INT
    qualifiers: Qualifiers = field(default_factory=Qualifiers)


@dataclass
class FunctionDef(Node):
    name: str = ""
    return_type: BaseType = BaseType.INT
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)


@dataclass
class Program(Node):
    """A MiniC translation unit: global declarations plus functions."""

    globals: list[VarDecl | ArrayDecl] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        """Return the function named ``name``.

        Raises ``KeyError`` if the function does not exist.
        """
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def has_function(self, name: str) -> bool:
        return any(func.name == name for func in self.functions)


# ----------------------------------------------------------------------
# Generic traversal helpers
# ----------------------------------------------------------------------
def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions in pre-order."""
    yield expr
    if isinstance(expr, Index):
        yield from walk_expr(expr.index)
    elif isinstance(expr, BinaryOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)


def walk_statements(stmt: Stmt):
    """Yield ``stmt`` and all nested statements in pre-order."""
    yield stmt
    if isinstance(stmt, Block):
        for child in stmt.statements:
            yield from walk_statements(child)
    elif isinstance(stmt, If):
        yield from walk_statements(stmt.then_body)
        if stmt.else_body is not None:
            yield from walk_statements(stmt.else_body)
    elif isinstance(stmt, While):
        yield from walk_statements(stmt.body)
    elif isinstance(stmt, For):
        if stmt.init is not None:
            yield from walk_statements(stmt.init)
        if stmt.step is not None:
            yield from walk_statements(stmt.step)
        yield from walk_statements(stmt.body)
