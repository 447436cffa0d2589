"""Unit tests for CFG structure, dominators, loops, unrolling, inlining,
memory layout, and the IR printer."""

import copy

import pytest

from repro import compile_source
from repro.errors import CFGError, ConfigError
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.dominators import (
    compute_dominators,
    compute_postdominators,
    immediate_dominators,
    immediate_postdominator,
)
from repro.ir.inline import inline_calls
from repro.ir.instructions import CallInstr, CondBranch, Const, Jump, MemoryRef, Return, Temp
from repro.ir.loops import find_natural_loops, infer_trip_count, loop_of_block
from repro.ir.lowering import lower_program
from repro.ir.memory import AccessKind, MemoryBlock, MemoryLayout, placeholder_blocks
from repro.ir.printer import format_cfg, format_instruction, format_memory_summary
from repro.ir.unroll import unroll_fixed_loops
from repro.lang.ast import Block
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.speculation.simulator import SpeculativeSimulator


def build_diamond() -> CFG:
    """entry -> (left | right) -> join -> exit(return)."""
    cfg = CFG(name="diamond")
    entry = cfg.add_block(BasicBlock("entry"))
    left = cfg.add_block(BasicBlock("left"))
    right = cfg.add_block(BasicBlock("right"))
    join = cfg.add_block(BasicBlock("join"))
    entry.terminator = CondBranch(cond=Temp("c"), true_target="left", false_target="right")
    left.terminator = Jump(target="join")
    right.terminator = Jump(target="join")
    join.terminator = Return(value=Const(0))
    return cfg


def build_loop() -> CFG:
    """entry -> header -> body -> header, header -> exit."""
    cfg = CFG(name="loop")
    entry = cfg.add_block(BasicBlock("entry"))
    header = cfg.add_block(BasicBlock("header"))
    body = cfg.add_block(BasicBlock("body"))
    exit_block = cfg.add_block(BasicBlock("exit"))
    entry.terminator = Jump(target="header")
    header.terminator = CondBranch(cond=Temp("c"), true_target="body", false_target="exit")
    body.terminator = Jump(target="header")
    exit_block.terminator = Return(value=None)
    return cfg


class TestCFG:
    def test_successors_and_predecessors(self):
        cfg = build_diamond()
        assert set(cfg.successors("entry")) == {"left", "right"}
        assert set(cfg.predecessors("join")) == {"left", "right"}
        assert cfg.predecessors("entry") == []

    def test_edges_are_labelled(self):
        cfg = build_diamond()
        labels = {(e.source, e.target): e.taken for e in cfg.edges()}
        assert labels[("entry", "left")] is True
        assert labels[("entry", "right")] is False
        assert labels[("left", "join")] is None

    def test_exit_and_conditional_blocks(self):
        cfg = build_diamond()
        assert cfg.exit_blocks() == ["join"]
        assert cfg.conditional_blocks() == ["entry"]

    def test_reverse_postorder_starts_at_entry(self):
        cfg = build_diamond()
        rpo = cfg.reverse_postorder()
        assert rpo[0] == "entry"
        assert rpo.index("join") > rpo.index("left")
        assert rpo.index("join") > rpo.index("right")

    def test_reachable_blocks_excludes_orphans(self):
        cfg = build_diamond()
        orphan = cfg.add_block(BasicBlock("orphan"))
        orphan.terminator = Return(value=None)
        assert "orphan" not in cfg.reachable_blocks()

    def test_duplicate_block_rejected(self):
        cfg = build_diamond()
        with pytest.raises(CFGError):
            cfg.add_block(BasicBlock("entry"))

    def test_unknown_block_rejected(self):
        cfg = build_diamond()
        with pytest.raises(CFGError):
            cfg.block("nope")

    def test_validate_catches_dangling_target(self):
        cfg = build_diamond()
        cfg.block("left").terminator = Jump(target="missing")
        with pytest.raises(CFGError):
            cfg.validate()

    def test_validate_catches_missing_terminator(self):
        cfg = build_diamond()
        cfg.block("left").terminator = None
        with pytest.raises(CFGError):
            cfg.validate()

    def test_instruction_count_includes_terminators(self):
        cfg = build_diamond()
        assert cfg.instruction_count == 4


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = build_diamond()
        dom = compute_dominators(cfg)
        for block in cfg.reachable_blocks():
            assert "entry" in dom[block]

    def test_branch_sides_do_not_dominate_join(self):
        dom = compute_dominators(build_diamond())
        assert "left" not in dom["join"]
        assert "right" not in dom["join"]

    def test_immediate_dominators(self):
        idom = immediate_dominators(build_diamond())
        assert idom["join"] == "entry"
        assert idom["left"] == "entry"
        assert idom["entry"] is None

    def test_postdominators_join_postdominates_sides(self):
        pdom = compute_postdominators(build_diamond())
        assert "join" in pdom["left"]
        assert "join" in pdom["entry"]

    def test_immediate_postdominator_of_branch_is_join(self):
        assert immediate_postdominator(build_diamond(), "entry") == "join"

    def test_loop_header_postdominates_body(self):
        cfg = build_loop()
        pdom = compute_postdominators(cfg)
        assert "header" in pdom["body"]


class TestLoops:
    def test_natural_loop_detection(self):
        cfg = build_loop()
        loops = find_natural_loops(cfg)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == "header"
        assert loop.blocks == {"header", "body"}
        assert loop.exits(cfg) == ["exit"]

    def test_no_loops_in_diamond(self):
        assert find_natural_loops(build_diamond()) == []

    def test_loop_of_block(self):
        cfg = build_loop()
        loops = find_natural_loops(cfg)
        assert loop_of_block(loops, "body") is loops[0]
        assert loop_of_block(loops, "exit") is None

    def test_trip_count_of_counter_loop(self):
        source = (
            "int a[64]; int s; int main() { reg int i; reg int x; x = 0;"
            "  for (i = 0; i < 10; i++) { s = s + 1; }"
            "  return x; }"
        )
        program, _ = unroll_fixed_loops(parse_program(source), max_iterations=0)
        cfgs = lower_program(check_program(program))
        cfg = cfgs["main"]
        loops = find_natural_loops(cfg)
        assert len(loops) == 1
        count = infer_trip_count(cfg, loops[0])
        assert count in (10, None)  # pattern-match is best effort

    def test_quantl_loop_trip_count_is_upper_bound(self):
        from repro.bench.programs import quantl_client_source

        cfgs = lower_program(check_program(parse_program(quantl_client_source())))
        cfg = cfgs["quantl"]
        loops = find_natural_loops(cfg)
        assert loops
        # The loop has a data-dependent break; the counter-based inference
        # reports the header bound (an upper bound on the iterations).
        assert infer_trip_count(cfg, loops[0]) == 30


class TestUnrolling:
    def test_fixed_loop_fully_unrolled(self):
        source = "char a[256]; int main() { reg int i; for (i = 0; i < 4; i++) { a[i * 64]; } return 0; }"
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 1
        assert stats.iterations_emitted == 4
        cfgs = lower_program(check_program(program))
        refs = [r for r in cfgs["main"].all_memory_refs() if r.symbol == "a"]
        assert sorted(r.index_const for r in refs) == [0, 64, 128, 192]

    def test_loop_with_break_not_unrolled(self):
        source = (
            "int a[64]; int w; int main() { int i;"
            "  for (i = 0; i < 30; i++) { if (a[i] > w) break; } return i; }"
        )
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 0

    def test_data_dependent_bound_not_unrolled(self):
        source = "int n; int s; int main() { int i; for (i = 0; i < n; i++) { s = s + 1; } return s; }"
        _, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 0

    def test_too_many_iterations_not_unrolled(self):
        source = "int s; int main() { int i; for (i = 0; i < 100; i++) { s = s + 1; } return s; }"
        _, stats = unroll_fixed_loops(parse_program(source), max_iterations=10)
        assert stats.loops_unrolled == 0

    def test_nested_fixed_loops_unrolled(self):
        source = (
            "char a[1024]; int main() { reg int i; reg int j;"
            "  for (i = 0; i < 2; i++) { for (j = 0; j < 2; j++) { a[i * 128 + j * 64]; } }"
            "  return 0; }"
        )
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 2  # the inner loop is unrolled once, then the outer
        cfgs = lower_program(check_program(program))
        refs = [r.index_const for r in cfgs["main"].all_memory_refs() if r.symbol == "a"]
        assert sorted(refs) == [0, 64, 128, 192]

    def test_downward_counting_loop(self):
        source = "char a[256]; int main() { reg int i; for (i = 192; i >= 0; i -= 64) { a[i]; } return 0; }"
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.iterations_emitted == 4

    def test_counter_value_after_loop_usable_as_index(self):
        source = (
            "char a[256]; int main() { reg int i;"
            "  for (i = 0; i < 3; i++) { a[0]; }"
            "  a[i * 64]; return 0; }"
        )
        program, _ = unroll_fixed_loops(parse_program(source))
        cfgs = lower_program(check_program(program))
        refs = [r.index_const for r in cfgs["main"].all_memory_refs() if r.symbol == "a"]
        # The post-loop access resolves because the counter is left at its
        # final value (3) by the unrolling pass.
        assert 192 in refs

    @staticmethod
    def _counted_loop_source(step: int, trips: int) -> str:
        """A ``trips``-iteration loop of stride ``step`` whose counter is
        read, as a return value and an array index, after the loop."""
        if step > 0:
            start, op, limit = 0, "<", (trips - 1) * step + 1
            update = f"i = i + {step}"
        else:
            start = -step * trips + 4
            op, limit = ">", start + (trips - 1) * step - 1
            update = f"i = i - {-step}"
        return (
            "int arr[256]; int main() { reg int i; reg int acc; acc = 0;"
            f"  for (i = {start}; i {op} {limit}; {update}) {{ acc = acc + arr[i]; }}"
            "  return i + arr[i]; }"
        )

    @pytest.mark.parametrize("trips", [1, 2, 5])
    @pytest.mark.parametrize("step", [1, 3, 32, -2])
    def test_unrolled_loop_matches_rolled_execution(self, step, trips):
        source = self._counted_loop_source(step, trips)
        runs = []
        for unroll in (False, True):
            program = compile_source(source, unroll=unroll)
            assert program.unroll_stats.loops_unrolled == int(unroll)
            result = SpeculativeSimulator(program).run()
            blocks = [record.memory_block for record in result.non_speculative_accesses()]
            runs.append((result.return_value, blocks))
        rolled, unrolled = runs
        # The counter leaves the loop at start + trips * step, also after a
        # single iteration, where no second value shows the stride.
        assert rolled == unrolled

    def test_input_program_is_not_mutated(self):
        source = (
            "char a[1024]; int s; int main() { reg int i; reg int j;"
            "  for (i = 0; i < 3; i++) {"
            "    if (s) { for (j = 0; j < 2; j++) { a[i * 128 + j * 64]; } }"
            "    else { while (s) { for (j = 0; j < 2; j++) { a[j * 64]; } s = s - 1; } }"
            "  }"
            "  return 0; }"
        )
        program = parse_program(source)
        before = copy.deepcopy(program)
        unrolled, stats = unroll_fixed_loops(program)
        assert stats.loops_unrolled == 3
        assert program == before
        assert unrolled != before

    def test_iterations_share_one_unrolled_body(self):
        source = "char a[256]; int main() { reg int i; for (i = 0; i < 4; i++) { a[i * 64]; } return 0; }"
        program = parse_program(source)
        unrolled, _ = unroll_fixed_loops(program)
        statements = unrolled.functions[0].body.statements
        bodies = [stmt for stmt in statements if isinstance(stmt, Block)]
        assert len(bodies) == 4
        assert all(body is bodies[0] for body in bodies)
        # Statements the pass does not rewrite are the input's own objects.
        assert statements[0] is program.functions[0].body.statements[0]


class TestInlining:
    def test_call_is_inlined_into_main(self):
        source = (
            "int t[64];"
            "int helper(int x) { return t[0] + x; }"
            "int main() { return helper(2); }"
        )
        program = compile_source(source)
        assert program.cfg.name == "main"
        symbols = program.cfg.referenced_symbols()
        assert "t" in symbols
        assert not any(
            getattr(i, "callee", None) == "helper"
            for block in program.cfg.blocks.values()
            for i in block.instructions
        )

    def test_argument_passing_touches_memory_parameters(self):
        source = (
            "int kernel(int el) { return el + 1; }"
            "int main() { return kernel(5); }"
        )
        program = compile_source(source)
        writes = [r for r in program.cfg.all_memory_refs() if r.symbol == "el" and r.is_write]
        assert writes

    def test_multiple_call_sites_each_inlined(self):
        source = (
            "int f(int x) { return x * 2; }"
            "int main() { return f(1) + f(2); }"
        )
        program = compile_source(source)
        program.cfg.validate()
        assert len(program.cfg.blocks) >= 5

    def test_input_cfgs_are_not_mutated(self):
        source = (
            "int t[64];"
            "int g(int y) { if (y) { return t[1]; } return y; }"
            "int f(int x) { return g(x) + t[0]; }"
            "int main() { int r; r = f(1); return f(r) + g(2); }"
        )
        info = check_program(parse_program(source))
        cfgs = lower_program(info)
        before = {name: str(cfg) for name, cfg in cfgs.items()}
        inlined = inline_calls(cfgs, "main", info)
        assert {name: str(cfg) for name, cfg in cfgs.items()} == before
        assert str(inlined) != before["main"]
        assert not any(
            isinstance(instruction, CallInstr)
            for block in inlined.blocks.values()
            for instruction in block.instructions
        )

    def test_recursion_detected(self):
        source = "int f(int x) { return f(x - 1); } int main() { return f(3); }"
        from repro.errors import LoweringError

        with pytest.raises(LoweringError):
            compile_source(source)


class TestMemoryLayout:
    def _layout(self, source: str, line_size: int = 64) -> MemoryLayout:
        info = check_program(parse_program(source))
        return MemoryLayout.from_program(info, line_size=line_size)

    def test_scalar_occupies_one_block(self):
        layout = self._layout("int x; int main() { return x; }")
        assert layout.object("x").num_blocks == 1

    def test_array_block_count_rounds_up(self):
        layout = self._layout("char a[130]; int main() { return 0; }")
        assert layout.object("a").num_blocks == 3

    def test_reg_symbols_have_no_layout(self):
        layout = self._layout("reg int i; int main() { return i; }")
        assert not layout.has_symbol("i")

    def test_total_blocks(self):
        layout = self._layout("char a[128]; int x; int main() { return x; }")
        assert layout.total_blocks == 3

    def test_concrete_resolution(self):
        layout = self._layout("int a[64]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=17, element_size=4)
        access = layout.resolve(ref)
        assert access.kind is AccessKind.CONCRETE
        assert access.concrete_block == MemoryBlock("a", 1)

    def test_unknown_resolution_covers_all_blocks(self):
        layout = self._layout("int a[64]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=None, element_size=4)
        access = layout.resolve(ref)
        assert access.kind is AccessKind.UNKNOWN
        assert len(access.blocks) == 4

    def test_secret_resolution(self):
        layout = self._layout("int a[64]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=None, index_secret=True, element_size=4)
        assert layout.resolve(ref).kind is AccessKind.SECRET

    def test_out_of_range_index_clamped(self):
        layout = self._layout("int a[16]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=400, element_size=4)
        access = layout.resolve(ref)
        assert access.concrete_block.index == 0  # single-block array

    def test_unknown_symbol_raises(self):
        layout = self._layout("int x; int main() { return x; }")
        with pytest.raises(ConfigError):
            layout.object("nope")

    def test_invalid_line_size(self):
        info = check_program(parse_program("int main() { return 0; }"))
        with pytest.raises(ConfigError):
            MemoryLayout.from_program(info, line_size=0)

    def test_placeholder_blocks_are_distinct_and_flagged(self):
        placeholders = placeholder_blocks("a", 3)
        assert len(set(placeholders)) == 3
        assert all(p.is_placeholder for p in placeholders)
        assert not MemoryBlock("a", 0).is_placeholder

    def test_placeholder_str_uses_paper_notation(self):
        assert str(MemoryBlock("decis_levl", -1)) == "decis_levl[1*]"

    def test_describe_mentions_every_object(self):
        layout = self._layout("char a[128]; int x; int main() { return x; }")
        text = layout.describe()
        assert "a" in text and "x" in text


class TestPrinter:
    def test_format_cfg_contains_blocks_and_instructions(self, quantl_program):
        text = format_cfg(quantl_program.cfgs["quantl"])
        assert "function quantl" in text
        assert "decis_levl" in text
        assert "br " in text

    def test_format_instruction(self):
        assert "bb1" in format_instruction(Jump(target="bb1"))
        assert format_instruction(Return(value=None)) == "ret"
        assert "load x" in str(MemoryRef(symbol="x", element_size=0))

    def test_memory_summary_counts(self, figure7_program):
        text = format_memory_summary(figure7_program.cfg)
        assert "a: 2" in text
