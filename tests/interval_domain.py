"""A textbook interval domain and a small interval analysis over the IR.

The paper points out that its lifting is independent of the abstract
domain ("the abstract domain may be interval or octagonal").  This
test-only module instantiates the generic solver
(:mod:`repro.ai.solver`) with intervals, which demonstrates that the
solver is domain-agnostic and gives the tests a second, simpler domain
on which to exercise the worklist machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ai.solver import FixpointResult, solve_forward
from repro.ir.cfg import CFG
from repro.ir.instructions import BinOp, Const, Copy, Load, Operand, Temp, UnOp

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (possibly unbounded)."""

    lo: float = _NEG_INF
    hi: float = _POS_INF

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def top(cls) -> "Interval":
        return cls(_NEG_INF, _POS_INF)

    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi and self.lo not in (_NEG_INF, _POS_INF)

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, previous: "Interval") -> "Interval":
        if previous.is_empty:
            return self
        lo = self.lo if self.lo >= previous.lo else _NEG_INF
        hi = self.hi if self.hi <= previous.hi else _POS_INF
        return Interval(lo, hi)

    def leq(self, other: "Interval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval(1, 0)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval(1, 0)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval(1, 0)
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        finite = [p for p in products if p == p]  # filter NaN from inf*0
        if not finite:
            return Interval.top()
        return Interval(min(finite), max(finite))

    def neg(self) -> "Interval":
        if self.is_empty:
            return self
        return Interval(-self.hi, -self.lo)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval(∅)"
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class IntervalState:
    """Map from temporaries to intervals; ⊥ marks unreachable code."""

    values: dict[Temp, Interval] = field(default_factory=dict)
    is_bottom: bool = False

    @classmethod
    def entry(cls) -> "IntervalState":
        return cls()

    @classmethod
    def bottom(cls) -> "IntervalState":
        return cls(is_bottom=True)

    def value_of(self, operand: Operand) -> Interval:
        if isinstance(operand, Const):
            return Interval.const(operand.value)
        if isinstance(operand, Temp):
            return self.values.get(operand, Interval.top())
        return Interval.top()

    def set(self, temp: Temp, interval: Interval) -> "IntervalState":
        values = dict(self.values)
        values[temp] = interval
        return IntervalState(values=values)

    def join(self, other: "IntervalState") -> "IntervalState":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        values: dict[Temp, Interval] = {}
        for temp in set(self.values) | set(other.values):
            values[temp] = self.values.get(temp, Interval.top()).join(
                other.values.get(temp, Interval.top())
            )
        return IntervalState(values=values)

    def join_changed(self, other: "IntervalState") -> tuple["IntervalState", bool]:
        joined = self.join(other)
        return joined, not joined.leq(self)

    def widen(self, previous: "IntervalState") -> "IntervalState":
        if previous.is_bottom or self.is_bottom:
            return self
        values: dict[Temp, Interval] = {}
        for temp, interval in self.values.items():
            prior = previous.values.get(temp)
            values[temp] = interval if prior is None else interval.widen(prior)
        return IntervalState(values=values)

    def leq(self, other: "IntervalState") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        for temp, other_interval in other.values.items():
            if not self.values.get(temp, Interval.top()).leq(other_interval):
                return False
        # Temps known only to self are unconstrained (top) in other.
        return True


def _transfer_block(cfg: CFG, name: str, state: IntervalState) -> IntervalState:
    if state.is_bottom:
        return state
    current = state
    for instruction in cfg.block(name).instructions:
        if isinstance(instruction, Copy):
            current = current.set(instruction.dest, current.value_of(instruction.src))
        elif isinstance(instruction, Load):
            current = current.set(instruction.dest, Interval.top())
        elif isinstance(instruction, UnOp):
            operand = current.value_of(instruction.operand)
            if instruction.op == "-":
                current = current.set(instruction.dest, operand.neg())
            else:
                current = current.set(instruction.dest, Interval.top())
        elif isinstance(instruction, BinOp):
            left = current.value_of(instruction.left)
            right = current.value_of(instruction.right)
            if instruction.op == "+":
                current = current.set(instruction.dest, left.add(right))
            elif instruction.op == "-":
                current = current.set(instruction.dest, left.sub(right))
            elif instruction.op == "*":
                current = current.set(instruction.dest, left.mul(right))
            elif instruction.op in ("<", "<=", ">", ">=", "==", "!="):
                current = current.set(instruction.dest, Interval(0, 1))
            else:
                current = current.set(instruction.dest, Interval.top())
        elif instruction.defined_temp() is not None:
            current = current.set(instruction.defined_temp(), Interval.top())
    return current


def analyze_intervals(cfg: CFG) -> FixpointResult[IntervalState]:
    """Run the interval analysis over ``cfg`` and return per-block states."""
    return solve_forward(
        cfg,
        entry_state=IntervalState.entry(),
        bottom=IntervalState.bottom(),
        transfer=lambda name, state: _transfer_block(cfg, name, state),
    )
