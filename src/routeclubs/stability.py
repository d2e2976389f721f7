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

from .errors import ModelInconsistencyError
from .game import Coalition, PayoffMatrix, is_strong, MAX_AV_PLAYERS, _nash_verdict


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


def _check_members(g: PayoffMatrix, members: Iterable[int]) -> Coalition:
    coalition = frozenset(members)
    if not coalition:
        raise ValueError("coalition must be non-empty")
    for p in coalition:
        g.bit(p)
    return coalition


def is_internally_stable(g: PayoffMatrix, members: Iterable[int]) -> bool:
    """True iff no member gains by walking out and leaving the rest deviated.

    The coalition's own action must be priced. On a partial matrix the
    verdict is restricted to the members whose walk-out action is
    priced: one priced witness suffices for False.
    """
    coalition = _check_members(g, members)
    g.require(g.indicator(coalition))
    return _internal_tristate(g, coalition) is not False


def is_externally_stable(g: PayoffMatrix, members: Iterable[int]) -> bool:
    """True iff no outsider strictly gains by joining the deviated coalition."""
    return not joiners(g, members)


def joiners(g: PayoffMatrix, members: Iterable[int]) -> frozenset[int]:
    """Outsiders who strictly gain by joining the deviated coalition.

    On a partial matrix only priced join actions can witness a joiner.
    """
    coalition = _check_members(g, members)
    current = g.indicator(coalition)
    g.require(current)
    eager = set()
    for j in g.av_ids:
        if j in coalition:
            continue
        joined = current | 1 << g.bit(j)
        if g.has(joined) and g.payoff(j, joined) > g.payoff(j, current):
            eager.add(j)
    return frozenset(eager)


def _internal_tristate(g: PayoffMatrix, coalition: Coalition) -> bool | None:
    stay = g.indicator(coalition)
    unknown = False
    for i in sorted(coalition):
        leave = g.indicator(coalition - {i})
        if not g.has(leave):
            unknown = True
        elif g.payoff(i, leave) > g.payoff(i, stay):
            return False
    return None if unknown else True


def build_club_graph(g: PayoffMatrix, root: Iterable[int]) -> ClubGraph:
    """Close the one-step joiner relation starting from ``root``.

    Needs payoffs for every reachable coalition's action and its
    join-by-one neighbours (a complete matrix always suffices). The
    result is independent of traversal order.
    """
    root_coalition = _check_members(g, root)
    nodes: dict[Coalition, ClubNode] = {}
    edges: set[tuple[Coalition, Coalition, int]] = set()
    frontier = [root_coalition]
    while frontier:
        coalition = frontier.pop()
        if coalition in nodes:
            continue
        eager = joiners(g, coalition)
        nodes[coalition] = ClubNode(
            members=coalition,
            internally_stable=_internal_tristate(g, coalition),
            externally_stable=not eager,
            is_nash_state=_nash_verdict(g, g.indicator(coalition)),
        )
        for j in sorted(eager):
            child = coalition | {j}
            edges.add((coalition, child, j))
            if child not in nodes:
                frontier.append(child)
    return ClubGraph(root=root_coalition, nodes=nodes, edges=frozenset(edges))


def terminal_coalitions(graph: ClubGraph) -> frozenset[Coalition]:
    """Leaves of the growth graph, i.e. coalitions no outsider wants to join.

    Where annotations allow it, verifies that every leaf is either a
    Nash state or internally unstable, raising
    :class:`ModelInconsistencyError` on a violation.
    """
    leaves = graph.leaves()
    for coalition in leaves:
        node = graph.nodes[coalition]
        if node.is_nash_state is False and node.internally_stable is True:
            raise ModelInconsistencyError(
                f"leaf {sorted(coalition)} is neither a Nash state nor internally unstable"
            )
    return leaves


def se_candidates(g: PayoffMatrix, graph: ClubGraph, *,
                  av_limit: int = MAX_AV_PLAYERS) -> frozenset[Coalition]:
    """Leaves whose deviated action no coalition whatsoever can improve upon."""
    return frozenset(
        coalition
        for coalition in terminal_coalitions(graph)
        if is_strong(g, g.indicator(coalition), av_limit=av_limit)
    )
