"""Club stability conditions and the coalition-growth graph.

Given a club, outsiders may notice the deviation and tag along one at a
time. The graph built here tracks every coalition reachable that way:
nodes are coalitions, edges add exactly one eager joiner. Leaves admit
no further joiner, which makes them the candidate resting points of the
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import PreconditionError
from .game import Coalition, PayoffMatrix, _flip_gainers, _unpriced_flips, is_strong


@dataclass(frozen=True)
class ClubNode:
    """One coalition of the growth graph with its stability annotations.

    ``internally_stable`` and ``is_nash_state`` are ``None`` when a
    partial matrix lacks the entries needed to decide them; a definite
    ``False`` only requires one witness, so it survives missing data.
    """

    members: Coalition
    internally_stable: bool | None
    externally_stable: bool
    is_nash_state: bool | None


@dataclass(frozen=True)
class ClubGraph:
    """Directed acyclic growth graph rooted at a club.

    Edges ``(C, C | {j}, j)`` strictly grow coalitions, so levels follow
    coalition size and a node can have several parents (a bush, not a
    tree). Nodes are deduplicated by member set.
    """

    root: Coalition
    nodes: Mapping[Coalition, ClubNode]
    edges: frozenset[tuple[Coalition, Coalition, int]]

    def leaves(self) -> frozenset[Coalition]:
        return frozenset(c for c, node in self.nodes.items() if node.externally_stable)


def _check_members(g: PayoffMatrix, members: Iterable[int]) -> tuple[Coalition, int]:
    """The coalition and its joint action, refusing an empty or non-strategic one."""
    coalition = frozenset(members)
    if not coalition:
        raise PreconditionError("coalition must be non-empty")
    try:
        return coalition, g.indicator(coalition)
    except ValueError as err:
        raise PreconditionError(str(err)) from None


def is_internally_stable(g: PayoffMatrix, members: Iterable[int]) -> bool:
    """True iff no member gains by walking out and leaving the rest deviated.

    The coalition's own action must be priced. On a partial matrix the
    verdict is restricted to the members whose walk-out action is
    priced: one priced witness suffices for False.
    """
    _, x = _check_members(g, members)
    return not any(_flip_gainers(g, x, x))


def joiners(g: PayoffMatrix, members: Iterable[int]) -> frozenset[int]:
    """Outsiders who strictly gain by joining the deviated coalition.

    On a partial matrix only priced join actions can witness a joiner.
    """
    _, x = _check_members(g, members)
    return g.members_of(sum(_flip_gainers(g, x, ~x & ((1 << g.n_av) - 1))))


def build_club_graph(g: PayoffMatrix, root: Iterable[int]) -> ClubGraph:
    """Close the one-step joiner relation starting from ``root``.

    Needs payoffs for every reachable coalition's action and its
    join-by-one neighbours (a complete matrix always suffices). The
    result is independent of traversal order.
    """
    root_coalition, _ = _check_members(g, root)
    full = (1 << g.n_av) - 1
    nodes: dict[Coalition, ClubNode] = {}
    edges: set[tuple[Coalition, Coalition, int]] = set()
    frontier = [root_coalition]
    while frontier:
        coalition = frontier.pop()
        if coalition in nodes:
            continue
        x = g.indicator(coalition)
        gainers = sum(_flip_gainers(g, x, full))
        # a gainer refutes a verdict; without one, an unpriced flip leaves it open
        unpriced = _unpriced_flips(g, x)
        eager = g.members_of(gainers & ~x)
        nodes[coalition] = ClubNode(
            members=coalition,
            internally_stable=False if gainers & x else None if unpriced & x else True,
            externally_stable=not eager,
            is_nash_state=False if gainers else None if unpriced else True,
        )
        for j in sorted(eager):
            child = coalition | {j}
            edges.add((coalition, child, j))
            if child not in nodes:
                frontier.append(child)
    return ClubGraph(root=root_coalition, nodes=nodes, edges=frozenset(edges))


def terminal_coalitions(graph: ClubGraph) -> frozenset[Coalition]:
    """Leaves of the growth graph, i.e. coalitions no outsider wants to join.

    A leaf has no outside gainer, so a leaf that is not a Nash state has
    a member who gains by walking out: it is internally unstable.
    """
    return graph.leaves()


def se_candidates(g: PayoffMatrix, graph: ClubGraph) -> frozenset[Coalition]:
    """Leaves whose deviated action no coalition whatsoever can improve upon."""
    return frozenset(
        coalition
        for coalition in graph.leaves()
        if is_strong(g, g.indicator(coalition))
    )
