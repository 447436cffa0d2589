"""Dominator and post-dominator computation.

The speculative VCFG construction needs post-dominators to find the
control-flow merge point of a branch (where Just-in-Time merging converts
the speculative state back into the normal state), and natural-loop
detection needs dominators to identify back edges.

Immediate (post)dominators are computed with the Cooper-Harvey-Kennedy
algorithm ("A Simple, Fast Dominance Algorithm"): iterate over reverse
postorder, intersecting the idom chains of processed predecessors until
nothing changes.  Each call builds its own predecessor map once, so the
cost is near-linear in the CFG's size; the map is deliberately not cached
on the CFG, which would need invalidating whenever a terminator is
patched.  Dominator *sets* are derived from the idom chains only where a
caller asks for them.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.ir.cfg import CFG

#: Name of the virtual exit node used for post-dominator computation when a
#: function has several return blocks.
VIRTUAL_EXIT = "__virtual_exit__"


def predecessor_map(cfg: CFG) -> dict[str, list[str]]:
    """``{block: predecessors}`` over every block of ``cfg`` (reachable or
    not), each list in block-insertion order — the order
    :meth:`CFG.predecessors` returns, built in one pass."""
    preds: dict[str, list[str]] = {name: [] for name in cfg.blocks}
    for name in cfg.blocks:
        for successor in cfg.successors(name):
            targets = preds.get(successor)
            if targets is not None and (not targets or targets[-1] != name):
                targets.append(name)
    return preds


def _reverse_postorder(root: str, successors: Callable[[str], Iterable[str]]) -> list[str]:
    """Nodes reachable from ``root`` in reverse postorder (iterative DFS)."""
    visited = {root}
    postorder: list[str] = []
    stack = [(root, iter(successors(root)))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(successors(child))))
                break
        else:
            stack.pop()
            postorder.append(node)
    postorder.reverse()
    return postorder


def _idoms(
    root: str,
    successors: Callable[[str], Iterable[str]],
    predecessors: Callable[[str], Iterable[str]],
) -> tuple[dict[str, str], dict[str, int]]:
    """Cooper-Harvey-Kennedy over the graph reachable from ``root``.

    Returns ``(idom, rpo_index)``; ``idom[root] == root``.  Predecessors
    outside the reachable graph are ignored.
    """
    order = _reverse_postorder(root, successors)
    index = {node: position for position, node in enumerate(order)}
    idom: dict[str, str] = {root: root}
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new_idom = None
            for pred in predecessors(node):
                if pred not in idom:
                    continue
                if new_idom is None:
                    new_idom = pred
                    continue
                new_idom = _intersect(pred, new_idom, idom, index)
            if new_idom is not None and idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom, index


def _intersect(left: str, right: str, idom: dict[str, str], index: dict[str, int]) -> str:
    """The nearest common ancestor of two nodes in the idom tree: walk the
    finger that sits later in reverse postorder up until they meet."""
    while left != right:
        while index[left] > index[right]:
            left = idom[left]
        while index[right] > index[left]:
            right = idom[right]
    return left


def _chain(node: str, idom: dict[str, str]) -> set[str]:
    """``node`` plus every node on its idom chain up to the root."""
    chain = {node}
    parent = idom[node]
    while parent != node:
        chain.add(parent)
        node, parent = parent, idom[parent]
    return chain


class DominatorTree:
    """Immediate dominators of the blocks reachable from the entry.

    ``predecessors`` may pass in a map from :func:`predecessor_map` that
    the caller needs anyway (natural-loop detection does).
    """

    def __init__(self, cfg: CFG, predecessors: dict[str, list[str]] | None = None):
        preds = predecessor_map(cfg) if predecessors is None else predecessors
        self.idom, self._index = _idoms(cfg.entry, cfg.successors, preds.__getitem__)

    def dominates(self, dominator: str, node: str) -> bool:
        """True when every path from the entry to ``node`` passes
        ``dominator`` (a node dominates itself).  A parent precedes its
        children in reverse postorder, so the walk up ``node``'s chain
        stops as soon as it passes ``dominator``'s position."""
        index, idom = self._index, self.idom
        target = index[dominator]
        while index[node] > target:
            node = idom[node]
        return node == dominator


def compute_dominators(cfg: CFG) -> dict[str, set[str]]:
    """Return, for every reachable block, the set of blocks dominating it."""
    idom = DominatorTree(cfg).idom
    return {node: _chain(node, idom) for node in cfg.reachable_blocks()}


def immediate_dominators(cfg: CFG) -> dict[str, str | None]:
    """Return the immediate dominator of every reachable block (None for
    the entry)."""
    idom = DominatorTree(cfg).idom
    return {
        node: (None if idom[node] == node else idom[node])
        for node in cfg.reachable_blocks()
    }


class _PostDominance:
    """Immediate postdominators over the *exit-reaching* subgraph.

    Blocks that cannot reach any return (e.g. inside an infinite loop)
    are excluded: they have no postdominator chain.  The reversed graph
    is rooted at :data:`VIRTUAL_EXIT`, which every return block feeds.
    """

    def __init__(self, cfg: CFG):
        reachable = cfg.reachable_blocks()
        node_set = set(reachable)
        preds = predecessor_map(cfg)
        exits = [node for node in cfg.exit_blocks() if node in node_set]
        self.reachable = reachable
        exit_set = set(exits)

        def reverse_successors(node: str) -> Iterable[str]:
            if node == VIRTUAL_EXIT:
                return exits
            return [pred for pred in preds[node] if pred in node_set]

        def reverse_predecessors(node: str) -> Iterable[str]:
            successors = cfg.successors(node)
            if node in exit_set:
                return [*successors, VIRTUAL_EXIT]
            return successors

        self.ipdom, self.index = _idoms(
            VIRTUAL_EXIT, reverse_successors, reverse_predecessors
        )

    def can_reach_exit(self, node: str) -> bool:
        return node in self.ipdom

    def nearest_real(self, node: str) -> str | None:
        """The immediate postdominator of ``node``, None for the virtual
        exit or a block that cannot reach it."""
        if node not in self.ipdom:
            return None
        parent = self.ipdom[node]
        return None if parent == VIRTUAL_EXIT else parent

    def common(self, left: str, right: str) -> str:
        """The nearest node postdominating both (the chains' meeting point)."""
        return _intersect(left, right, self.ipdom, self.index)


def compute_postdominators(cfg: CFG) -> dict[str, set[str]]:
    """Return, for every reachable block, the set of blocks post-dominating it.

    A virtual exit node (``VIRTUAL_EXIT``) is used to join all return
    blocks; it appears in the result sets but is not a real block.  A
    block that cannot reach any return is vacuously postdominated by
    every node.
    """
    post = _PostDominance(cfg)
    every_node = set(post.reachable) | {VIRTUAL_EXIT}
    result = {
        node: _chain(node, post.ipdom) if post.can_reach_exit(node) else set(every_node)
        for node in post.reachable
    }
    result[VIRTUAL_EXIT] = {VIRTUAL_EXIT}
    return result


def postdominator_tree(cfg: CFG) -> dict[str, str | None]:
    """Return the immediate postdominator of every reachable block.

    Computed over the exit-reaching subgraph: a block that cannot reach
    any return (e.g. inside an infinite loop) has no postdominators at
    all and maps to None, as does a block whose only strict
    postdominator is the virtual exit.
    """
    post = _PostDominance(cfg)
    return {node: post.nearest_real(node) for node in post.reachable}


def immediate_postdominator(cfg: CFG, block: str) -> str | None:
    """Return the nearest real block that post-dominates ``block``.

    Returns ``None`` when the only post-dominator is the virtual exit
    (i.e. the branch never reconverges before returning) or when
    ``block`` cannot reach any exit.
    """
    return postdominator_tree(cfg).get(block)


def common_postdominator(cfg: CFG, left: str, right: str) -> str | None:
    """Return the nearest block post-dominating both ``left`` and ``right``,
    other than ``left`` and ``right`` themselves.

    None when either block cannot reach an exit or when the only common
    postdominator is the virtual exit.
    """
    post = _PostDominance(cfg)
    if not (post.can_reach_exit(left) and post.can_reach_exit(right)):
        return None
    meet = post.common(left, right)
    while meet in (left, right):
        meet = post.ipdom[meet]
    return None if meet == VIRTUAL_EXIT else meet
