"""The set-based (post)dominator solver: the reference for the
Cooper-Harvey-Kennedy implementation in :mod:`repro.ir.dominators`.

This is the module as it was before the rewrite: iterative dominator
*sets*, with the immediate (post)dominator picked from the strict sets by
a chain test, and a ``cfg.predecessors`` scan per block.  It is cubic in
the number of blocks and is not a runtime path;
``tests/test_dominators_reference.py`` requires the runtime module to
return identical results on seeded random CFGs.
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.loops import Loop

#: Name of the virtual exit node used for post-dominator computation when a
#: function has several return blocks.
VIRTUAL_EXIT = "__virtual_exit__"


def _iterative_dominators(
    nodes: list[str],
    entry: str,
    predecessors: dict[str, list[str]],
) -> dict[str, set[str]]:
    """Classic iterative dominator-set computation."""
    all_nodes = set(nodes)
    dom: dict[str, set[str]] = {node: set(all_nodes) for node in nodes}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == entry:
                continue
            preds = [pred for pred in predecessors.get(node, []) if pred in all_nodes]
            if preds:
                new_dom = set(all_nodes)
                for pred in preds:
                    new_dom &= dom[pred]
            else:
                new_dom = set()
            new_dom.add(node)
            if new_dom != dom[node]:
                dom[node] = new_dom
                changed = True
    return dom


def compute_dominators(cfg: CFG) -> dict[str, set[str]]:
    """Return, for every reachable block, the set of blocks dominating it."""
    nodes = cfg.reachable_blocks()
    predecessors = {node: cfg.predecessors(node) for node in nodes}
    return _iterative_dominators(nodes, cfg.entry, predecessors)


def immediate_dominators(cfg: CFG) -> dict[str, str | None]:
    """Return the immediate dominator of every reachable block.

    The strict dominators of a node are totally ordered by dominance; the
    immediate dominator is the *nearest* one — the candidate that every
    other strict dominator dominates.
    """
    dom = compute_dominators(cfg)
    idom: dict[str, str | None] = {}
    for node, dominators in dom.items():
        strict = dominators - {node}
        idom[node] = _nearest_in_chain(strict, dom)
    return idom


def _nearest_in_chain(
    candidates: set[str], relation: dict[str, set[str]]
) -> str | None:
    """The element of ``candidates`` that all other candidates (strictly)
    relate to — i.e. the nearest strict (post)dominator, the bottom of the
    chain.  ``relation[x]`` is the set of nodes (post)dominating ``x``.

    Returns None when ``candidates`` is empty or does not form a chain
    (which cannot happen for the (post)dominator sets of a node computed
    over a graph where every node reaches the (virtual) root).
    """
    for candidate in sorted(candidates):
        if all(
            other in relation[candidate]
            for other in candidates
            if other != candidate
        ):
            return candidate
    return None


def compute_postdominators(cfg: CFG) -> dict[str, set[str]]:
    """Return, for every reachable block, the set of blocks post-dominating it.

    A virtual exit node (``VIRTUAL_EXIT``) is used to join all return
    blocks; it appears in the result sets but is not a real block.
    """
    nodes = cfg.reachable_blocks()
    exits = [node for node in cfg.exit_blocks() if node in nodes]
    # Build the reverse graph including the virtual exit.
    reverse_succ: dict[str, list[str]] = {node: [] for node in nodes}
    reverse_succ[VIRTUAL_EXIT] = []
    for node in nodes:
        for successor in cfg.successors(node):
            if successor in reverse_succ:
                reverse_succ[successor].append(node)
    for exit_node in exits:
        reverse_succ[exit_node].append(VIRTUAL_EXIT)
    # In the reversed graph "predecessors" are the original successors plus
    # the virtual-exit wiring above.
    all_nodes = nodes + [VIRTUAL_EXIT]
    predecessors_in_reverse: dict[str, list[str]] = {node: [] for node in all_nodes}
    for node in nodes:
        successors = list(cfg.successors(node))
        if node in exits:
            successors.append(VIRTUAL_EXIT)
        predecessors_in_reverse[node] = successors
    predecessors_in_reverse[VIRTUAL_EXIT] = []
    return _iterative_dominators(all_nodes, VIRTUAL_EXIT, predecessors_in_reverse)


def _exit_reaching_postdominators(cfg: CFG) -> tuple[dict[str, set[str]], set[str]]:
    """Postdominator sets computed over the *exit-reaching* subgraph only.

    Returns ``(pdom, can_reach_exit)``.  Blocks that cannot reach any
    return are excluded from the computation entirely: running the
    iterative algorithm over the full graph leaves the doomed blocks'
    sets at their ``all_nodes`` initialisation, and those polluted sets
    do not form chains, so any selection from them (such as the
    historical ``sorted(candidates)[0]`` fallback) returns an arbitrary
    block that need not postdominate anything.
    """
    nodes = cfg.reachable_blocks()
    node_set = set(nodes)
    exits = [node for node in cfg.exit_blocks() if node in node_set]
    # Backward reachability: which blocks can reach an exit at all.
    can_reach_exit: set[str] = set(exits)
    stack = list(exits)
    while stack:
        node = stack.pop()
        for predecessor in cfg.predecessors(node):
            if predecessor in node_set and predecessor not in can_reach_exit:
                can_reach_exit.add(predecessor)
                stack.append(predecessor)
    sub_nodes = [node for node in nodes if node in can_reach_exit]
    all_nodes = sub_nodes + [VIRTUAL_EXIT]
    predecessors_in_reverse: dict[str, list[str]] = {VIRTUAL_EXIT: []}
    for node in sub_nodes:
        successors = [s for s in cfg.successors(node) if s in can_reach_exit]
        if node in exits:
            successors.append(VIRTUAL_EXIT)
        predecessors_in_reverse[node] = successors
    pdom = _iterative_dominators(all_nodes, VIRTUAL_EXIT, predecessors_in_reverse)
    return pdom, can_reach_exit


def postdominator_tree(cfg: CFG) -> dict[str, str | None]:
    """Return the immediate postdominator of every reachable block.

    Computed over the exit-reaching subgraph (see
    :func:`_exit_reaching_postdominators`): a block that cannot reach any
    return (e.g. inside an infinite loop) has no postdominators at all
    and maps to None.

    For exit-reaching blocks the strict postdominators form a chain and
    the immediate one — the *nearest*, i.e. the first control-flow point
    every path from the block to the exit must cross — is the candidate
    that every other candidate postdominates.
    """
    pdom, can_reach_exit = _exit_reaching_postdominators(cfg)
    tree: dict[str, str | None] = {}
    for node in cfg.reachable_blocks():
        if node not in can_reach_exit:
            tree[node] = None
            continue
        candidates = pdom[node] - {node, VIRTUAL_EXIT}
        tree[node] = _nearest_in_chain(candidates, pdom)
    return tree


def immediate_postdominator(cfg: CFG, block: str) -> str | None:
    """Return the nearest real block that post-dominates ``block``.

    Returns ``None`` when the only post-dominator is the virtual exit
    (i.e. the branch never reconverges before returning) or when
    ``block`` cannot reach any exit.
    """
    return postdominator_tree(cfg).get(block)


def common_postdominator(cfg: CFG, left: str, right: str) -> str | None:
    """Return the nearest block post-dominating both ``left`` and ``right``.

    None when either block cannot reach an exit (its postdominator set is
    empty) or when the only common postdominator is the virtual exit.
    The common postdominators are the intersection of two chains and so
    form a chain themselves; no arbitrary fallback is needed.
    """
    pdom, can_reach_exit = _exit_reaching_postdominators(cfg)
    if left not in can_reach_exit or right not in can_reach_exit:
        return None
    common = (pdom[left] & pdom[right]) - {VIRTUAL_EXIT, left, right}
    if not common:
        return None
    return _nearest_in_chain(common, pdom)


def find_natural_loops(cfg: CFG) -> list[Loop]:
    """Natural loops over the set-based dominators (one per header, back
    edges merged), with a ``cfg.predecessors`` scan per body block."""
    dom = compute_dominators(cfg)
    loops: dict[str, Loop] = {}
    for source in cfg.reachable_blocks():
        for target in cfg.successors(source):
            if target in dom.get(source, set()):
                loop = loops.setdefault(target, Loop(header=target, blocks={target}))
                loop.back_edges.append((source, target))
                _collect_loop_body(cfg, loop, source)
    return list(loops.values())


def _collect_loop_body(cfg: CFG, loop: Loop, latch: str) -> None:
    stack = [latch]
    while stack:
        block = stack.pop()
        if block in loop.blocks:
            continue
        loop.blocks.add(block)
        for pred in cfg.predecessors(block):
            if pred not in loop.blocks:
                stack.append(pred)
