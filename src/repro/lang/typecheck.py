"""Symbol resolution, size computation, and secret-taint analysis for MiniC.

The checker produces a :class:`ProgramInfo` that later phases (lowering,
memory layout, side-channel detection) consume:

* a global symbol table and one local table per function;
* the byte size of every variable and array;
* the set of *secret-tainted* symbols: symbols declared with the
  ``secret`` qualifier plus any symbol that is (transitively) assigned an
  expression mentioning a secret symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TypeError_
from repro.lang.ast import (
    ArrayDecl,
    Assign,
    BaseType,
    Block,
    Call,
    Expr,
    ExprStatement,
    For,
    FunctionDef,
    Identifier,
    If,
    Index,
    Program,
    Qualifiers,
    Return,
    Stmt,
    VarDecl,
    While,
    walk_expr,
    walk_statements,
)

#: Functions treated as pure intrinsics: calls to them are allowed without a
#: definition and produce no memory references.
INTRINSIC_FUNCTIONS = frozenset(
    {"my_abs", "abs", "min", "max", "nondet", "input", "assume", "assert"}
)


@dataclass(frozen=True)
class Symbol:
    """A resolved variable or array symbol."""

    name: str
    base_type: BaseType
    is_array: bool
    length: int
    qualifiers: Qualifiers
    is_global: bool
    is_param: bool = False

    @property
    def element_size(self) -> int:
        return self.base_type.size

    @property
    def size_bytes(self) -> int:
        """Total size in bytes occupied in memory (0 for ``reg`` symbols)."""
        if self.qualifiers.is_reg:
            return 0
        if self.is_array:
            return self.base_type.size * self.length
        return self.base_type.size

    @property
    def in_memory(self) -> bool:
        """Whether accesses to this symbol touch memory (and thus the cache)."""
        return not self.qualifiers.is_reg


class SymbolTable:
    """A simple two-level (global + function-local) symbol table."""

    def __init__(self, parent: "SymbolTable | None" = None):
        self.parent = parent
        self._symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> None:
        if symbol.name in self._symbols:
            raise TypeError_(f"duplicate declaration of {symbol.name!r}")
        self._symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        if name in self._symbols:
            return self._symbols[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def local_symbols(self) -> list[Symbol]:
        return list(self._symbols.values())

    def all_symbols(self) -> list[Symbol]:
        symbols = list(self._symbols.values())
        if self.parent is not None:
            symbols = self.parent.all_symbols() + symbols
        return symbols

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None


@dataclass
class FunctionInfo:
    """Checker output for one function."""

    definition: FunctionDef
    table: SymbolTable


@dataclass
class ProgramInfo:
    """Checker output for a whole program."""

    program: Program
    globals_table: SymbolTable
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    secret_symbols: set[str] = field(default_factory=set)
    array_initializers: dict[str, list[int]] = field(default_factory=dict)

    def symbol(self, function: str, name: str) -> Symbol:
        info = self.functions.get(function)
        table = info.table if info is not None else self.globals_table
        symbol = table.lookup(name)
        if symbol is None:
            raise TypeError_(f"unknown symbol {name!r} in function {function!r}")
        return symbol

    def is_secret(self, name: str) -> bool:
        return name in self.secret_symbols


class TypeChecker:
    """Checks a program and builds its :class:`ProgramInfo`."""

    def __init__(self, program: Program):
        self.program = program
        self.info = ProgramInfo(program=program, globals_table=SymbolTable())

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check(self) -> ProgramInfo:
        self._check_globals()
        for function in self.program.functions:
            self._check_function(function)
        self._compute_secret_taint()
        return self.info

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _check_globals(self) -> None:
        for decl in self.program.globals:
            symbol = self._symbol_from_decl(decl, is_global=True)
            self.info.globals_table.declare(symbol)
            if isinstance(decl, ArrayDecl) and decl.init is not None:
                if len(decl.init) > decl.length:
                    raise TypeError_(
                        f"too many initializers for array {decl.name!r}",
                        decl.line,
                        decl.column,
                    )
                self.info.array_initializers[decl.name] = list(decl.init)

    def _check_function(self, function: FunctionDef) -> None:
        if function.name in self.info.functions:
            raise TypeError_(f"duplicate function {function.name!r}")
        table = SymbolTable(parent=self.info.globals_table)
        for param in function.params:
            table.declare(
                Symbol(
                    name=param.name,
                    base_type=param.base_type,
                    is_array=False,
                    length=1,
                    qualifiers=param.qualifiers,
                    is_global=False,
                    is_param=True,
                )
            )
        for stmt in walk_statements(function.body):
            if isinstance(stmt, (VarDecl, ArrayDecl)):
                table.declare(self._symbol_from_decl(stmt, is_global=False))
                if isinstance(stmt, ArrayDecl) and stmt.init is not None:
                    self.info.array_initializers[stmt.name] = list(stmt.init)
        self.info.functions[function.name] = FunctionInfo(definition=function, table=table)
        self._check_statement_uses(function, function.body, table)

    def _symbol_from_decl(self, decl: VarDecl | ArrayDecl, is_global: bool) -> Symbol:
        if isinstance(decl, ArrayDecl):
            if decl.length <= 0:
                raise TypeError_(
                    f"array {decl.name!r} must have a positive length", decl.line, decl.column
                )
            if decl.qualifiers.is_reg:
                raise TypeError_(
                    f"array {decl.name!r} cannot be register-allocated", decl.line, decl.column
                )
            return Symbol(
                name=decl.name,
                base_type=decl.base_type,
                is_array=True,
                length=decl.length,
                qualifiers=decl.qualifiers,
                is_global=is_global,
            )
        return Symbol(
            name=decl.name,
            base_type=decl.base_type,
            is_array=False,
            length=1,
            qualifiers=decl.qualifiers,
            is_global=is_global,
        )

    # ------------------------------------------------------------------
    # Use checking
    # ------------------------------------------------------------------
    def _check_statement_uses(
        self, function: FunctionDef, stmt: Stmt, table: SymbolTable
    ) -> None:
        if isinstance(stmt, Block):
            for child in stmt.statements:
                self._check_statement_uses(function, child, table)
        elif isinstance(stmt, (VarDecl, ArrayDecl)):
            if isinstance(stmt, VarDecl) and stmt.init is not None:
                self._check_expression_uses(stmt.init, table)
        elif isinstance(stmt, Assign):
            self._check_assign_target(stmt.target, table)
            self._check_expression_uses(stmt.value, table)
        elif isinstance(stmt, ExprStatement):
            self._check_expression_uses(stmt.expr, table)
        elif isinstance(stmt, If):
            self._check_expression_uses(stmt.cond, table)
            self._check_statement_uses(function, stmt.then_body, table)
            if stmt.else_body is not None:
                self._check_statement_uses(function, stmt.else_body, table)
        elif isinstance(stmt, While):
            self._check_expression_uses(stmt.cond, table)
            self._check_statement_uses(function, stmt.body, table)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                self._check_statement_uses(function, stmt.init, table)
            if stmt.cond is not None:
                self._check_expression_uses(stmt.cond, table)
            if stmt.step is not None:
                self._check_statement_uses(function, stmt.step, table)
            self._check_statement_uses(function, stmt.body, table)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self._check_expression_uses(stmt.value, table)

    def _check_assign_target(self, target: Expr, table: SymbolTable) -> None:
        if isinstance(target, Identifier):
            symbol = table.lookup(target.name)
            if symbol is None:
                raise TypeError_(f"assignment to undeclared {target.name!r}", target.line, target.column)
            if symbol.is_array:
                raise TypeError_(
                    f"cannot assign to array {target.name!r} as a whole", target.line, target.column
                )
        elif isinstance(target, Index):
            symbol = table.lookup(target.array)
            if symbol is None:
                raise TypeError_(f"indexing undeclared {target.array!r}", target.line, target.column)
            if not symbol.is_array:
                raise TypeError_(f"{target.array!r} is not an array", target.line, target.column)
            self._check_expression_uses(target.index, table)
        else:
            raise TypeError_("invalid assignment target", target.line, target.column)

    def _check_expression_uses(self, expr: Expr, table: SymbolTable) -> None:
        for node in walk_expr(expr):
            if isinstance(node, Identifier):
                symbol = table.lookup(node.name)
                if symbol is None:
                    raise TypeError_(f"use of undeclared {node.name!r}", node.line, node.column)
            elif isinstance(node, Index):
                symbol = table.lookup(node.array)
                if symbol is None:
                    raise TypeError_(f"indexing undeclared {node.array!r}", node.line, node.column)
                if not symbol.is_array:
                    raise TypeError_(f"{node.array!r} is not an array", node.line, node.column)
            elif isinstance(node, Call):
                if not self.program.has_function(node.name) and node.name not in INTRINSIC_FUNCTIONS:
                    # Unknown external calls are tolerated but flagged as
                    # intrinsics so the lowering treats them as opaque.
                    continue

    # ------------------------------------------------------------------
    # Secret taint
    # ------------------------------------------------------------------
    def _compute_secret_taint(self) -> None:
        """Propagate ``secret`` taint through assignments and parameter
        passing.

        One walk over the program collects every flow edge — an assigned
        name from each name its value reads, a declared name from its
        initializer, a callee parameter from its argument — and a worklist
        then closes the declared secrets under those edges.
        """
        secret: set[str] = set()
        for symbol in self.info.globals_table.local_symbols():
            if symbol.qualifiers.is_secret:
                secret.add(symbol.name)
        for info in self.info.functions.values():
            for symbol in info.table.local_symbols():
                if symbol.qualifiers.is_secret:
                    secret.add(symbol.name)
        self.info.secret_symbols = secret
        if not secret:
            return  # nothing to propagate

        flows: dict[str, set[str]] = {}

        def flow(sources: Expr, target: str | None) -> None:
            if target is None:
                return
            for name in _names_read(sources):
                flows.setdefault(name, set()).add(target)

        for info in self.info.functions.values():
            for stmt in walk_statements(info.definition.body):
                if isinstance(stmt, Assign):
                    flow(stmt.value, _target_name(stmt.target))
                elif isinstance(stmt, VarDecl) and stmt.init is not None:
                    flow(stmt.init, stmt.name)
                # Parameter taint: a call ``f(e1, .., ek)`` taints f's i-th
                # parameter when the i-th argument is tainted.
                for expr in _statement_expressions(stmt):
                    for node in walk_expr(expr):
                        if isinstance(node, Call) and self.program.has_function(node.name):
                            callee = self.program.function(node.name)
                            for param, arg in zip(callee.params, node.args):
                                flow(arg, param.name)

        worklist = list(secret)
        while worklist:
            for target in flows.get(worklist.pop(), ()):
                if target not in secret:
                    secret.add(target)
                    worklist.append(target)


def _names_read(expr: Expr) -> set[str]:
    """Names of the scalars and arrays ``expr`` reads."""
    names: set[str] = set()
    for node in walk_expr(expr):
        if isinstance(node, Identifier):
            names.add(node.name)
        elif isinstance(node, Index):
            names.add(node.array)
    return names


def _target_name(target: Expr) -> str | None:
    if isinstance(target, Identifier):
        return target.name
    if isinstance(target, Index):
        return target.array
    return None


def _statement_expressions(stmt: Stmt) -> list[Expr]:
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ExprStatement):
        return [stmt.expr]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    return []


def check_program(program: Program) -> ProgramInfo:
    """Type-check ``program`` and return its :class:`ProgramInfo`."""
    return TypeChecker(program).check()
