"""Seeded MiniC program generators for the benchmark workloads.

Every generator takes a ``seed`` that changes *names and constants only*:
symbol names get a seed-derived prefix and array subscripts move inside
the cache line they already address.  The shape of the program — its
declarations, statements, branches and loop trip counts, and therefore
its CFG, memory layout (up to names) and cache behaviour — is fixed by
the size parameters alone.  Fixpoint pops, access sites, speculation
scenarios, IR block counts and the must-hit share are thus identical for
every seed, which the benchmark asserts; what the seed defeats is every
content-keyed memo (compile cache, result cache, the vcfg scenario memo,
the on-disk result store).

The program under test only ever sees the generated source text.
"""

from __future__ import annotations

import random

LINE_SIZE = 64


def _prefix(rng: random.Random) -> str:
    # A letter followed by digits can never collide with a MiniC keyword.
    return f"s{rng.randrange(10**6):06d}_"


def _in_line(rng: random.Random, line_index: int, element_bytes: int = 1) -> int:
    """A subscript that addresses cache line ``line_index`` of an array of
    ``element_bytes``-sized elements, at a seed-chosen offset inside it."""
    per_line = LINE_SIZE // element_bytes
    return line_index * per_line + rng.randrange(per_line)


def branchy_source(num_branches: int, seed: int) -> str:
    """``num_branches`` data-dependent diamonds in a straight line.

    The shape of ``repro.bench.programs.branchy_kernel_source``: each
    condition loads its own single-line array (a may-miss condition, so
    two full-depth scenarios per branch) and the arms alternate over four
    shared single-line arrays.  The condition reads its line twice, so
    every diamond also has one provable must-hit and the must-hit share
    of the workload is a non-zero precision signal.
    """
    rng = random.Random(f"branchy/{num_branches}/{seed}")
    p = _prefix(rng)
    decls = [f"char {p}c{i}[{LINE_SIZE}];" for i in range(num_branches)]
    decls.append(
        f"char {p}ta[{LINE_SIZE}]; char {p}tb[{LINE_SIZE}]; "
        f"char {p}ea[{LINE_SIZE}]; char {p}eb[{LINE_SIZE}];"
    )
    body = []
    for i in range(num_branches):
        taken, other = ("ta", "ea") if i % 2 == 0 else ("tb", "eb")
        cond = f"{p}c{i}[{_in_line(rng, 0)}] + {p}c{i}[{_in_line(rng, 0)}]"
        body.append(
            f"  if ({cond}) {{ {p}{taken}[{_in_line(rng, 0)}]; }}"
            f" else {{ {p}{other}[{_in_line(rng, 0)}]; }}"
        )
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


def unroll_source(n: int, seed: int) -> str:
    """An ``n`` x ``n`` fixed-trip-count loop nest with a straight-line body,
    plus one small callee called before and after it.

    The body touches a row array and a column array one line per step and
    accumulates into a memory variable, so unrolling emits ``n * n``
    copies of a four-access body and the fully unrolled CFG stays a
    handful of blocks long: the front end (unroll, lower, inline) and
    classification carry the cost, the fixpoint almost none.  No branch
    sits inside the nest (a data-dependent ``if`` there multiplies the
    speculative fixpoint instead, which ``branchy_scaling`` measures).
    """
    rng = random.Random(f"unroll/{n}/{seed}")
    p = _prefix(rng)
    rows = n * LINE_SIZE
    k1, k2, k3 = (rng.randrange(1, 1000) for _ in range(3))
    return f"""
char {p}row[{rows}];
char {p}col[{rows}];
int {p}tab[16];
int {p}acc;

int {p}mix(int x) {{
  return x * {k1} + {p}tab[{_in_line(rng, 0, 4)}];
}}

int main() {{
  reg int i;
  reg int j;
  {p}acc = {p}mix({k2});
  for (i = 0; i < {n}; i = i + 1) {{
    for (j = 0; j < {n}; j = j + 1) {{
      {p}acc = {p}acc + {p}row[j * {LINE_SIZE} + {rng.randrange(LINE_SIZE)}]
             + {p}col[i * {LINE_SIZE} + {rng.randrange(LINE_SIZE)}] + {k3};
    }}
  }}
  {p}acc = {p}mix({p}acc);
  return {p}acc;
}}
"""


def wcet_shaped_source(seed: int, num_lines: int = 64) -> str:
    """A fresh WCET-style kernel for the daemon's cold traffic: a state
    buffer streamed one line at a time, a data-dependent branch choosing
    between two tables, and reuse of the buffer afterwards (the shape of
    the Table-5 kernels in ``repro.bench.programs``)."""
    rng = random.Random(f"wcet/{seed}")
    p = _prefix(rng)
    # The buffer plus one table fill the cache exactly, so only a
    # mispredicted branch (touching both tables) evicts buffer lines.
    state_lines = num_lines - 4
    state_bytes = state_lines * LINE_SIZE
    reuse = " ".join(
        f"{p}state[{_in_line(rng, line)}];" for line in range(8)
    )
    return f"""
char {p}state[{state_bytes}];
char {p}hi[{2 * LINE_SIZE}];
char {p}lo[{2 * LINE_SIZE}];
int {p}sel; int {p}out;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {state_bytes}; i += {LINE_SIZE}) {{
    {p}state[i];
  }}
  acc = {p}sel * {rng.randrange(1, 100)};
  if (acc > {rng.randrange(1000)}) {{
    acc = acc + {p}hi[{_in_line(rng, 0)}] + {p}hi[{_in_line(rng, 1)}];
  }} else {{
    acc = acc + {p}lo[{_in_line(rng, 0)}] + {p}lo[{_in_line(rng, 1)}];
  }}
  {reuse}
  {p}out = acc;
  return acc;
}}
"""
