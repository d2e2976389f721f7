from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_game
from test_game import tie_heavy_games
from routeclubs import (
    PayoffMatrix,
    PreconditionError,
    build_club_graph,
    improving_coalitions,
    is_internally_stable,
    is_nash,
    joiners,
    se_candidates,
    sort_coalitions,
    terminal_coalitions,
)


class TestInternalStability:
    def test_overfull_club_is_unstable_via_player_seven(self, fixture_partial):
        g = fixture_partial
        assert not is_internally_stable(g, {0, 1, 5, 6, 7})
        assert g.payoff(7, g.indicator({0, 1, 5, 6, 7})) == -71
        assert g.payoff(7, g.indicator({0, 1, 5, 6})) == -60

    def test_strong_club_is_stable_on_known_rows(self, fixture_partial):
        assert is_internally_stable(fixture_partial, {0, 1, 5, 6})

    def test_singleton_in_constant_matrix(self):
        from test_game import make_matrix
        g = make_matrix({"00": [-3, -3], "10": [-3, -3],
                         "01": [-3, -3], "11": [-3, -3]})
        assert is_internally_stable(g, {0})

    def test_rejects_non_players(self, fixture_partial):
        for check in (is_internally_stable, joiners, build_club_graph):
            with pytest.raises(PreconditionError, match="not a strategic player"):
                check(fixture_partial, {2})
            with pytest.raises(PreconditionError, match="non-empty"):
                check(fixture_partial, set())


class TestExternalStabilityAndJoiners:
    def test_root_club_attracts_zero_and_seven(self, fixture_partial):
        assert joiners(fixture_partial, {1, 5, 6}) == {0, 7}

    def test_partial_extension_attracts_zero(self, fixture_partial):
        assert joiners(fixture_partial, {1, 5, 6, 7}) == {0}

    def test_terminal_club_attracts_nobody(self, fixture_partial):
        assert joiners(fixture_partial, {0, 1, 5, 6}) == frozenset()

    def test_full_membership_is_vacuously_stable(self, fixture_partial):
        assert joiners(fixture_partial, {0, 1, 5, 6, 7}) == frozenset()

    def test_joiners_empty_iff_externally_stable(self, adaptive_matrix):
        rng = random.Random(3)
        for _ in range(30):
            members = frozenset(rng.sample(range(10), rng.randint(1, 9)))
            found = joiners(adaptive_matrix, members)
            assert found == oracle.eager_joiners(adaptive_matrix, members)
            node = build_club_graph(adaptive_matrix, members).nodes[members]
            assert (not found) == node.externally_stable


class TestClubGraph:
    def test_fixture_topology(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {1, 5, 6})
        expected_nodes = {
            frozenset({1, 5, 6}),
            frozenset({0, 1, 5, 6}),
            frozenset({1, 5, 6, 7}),
            frozenset({0, 1, 5, 6, 7}),
        }
        assert set(graph.nodes) == expected_nodes
        assert graph.edges == {
            (frozenset({1, 5, 6}), frozenset({0, 1, 5, 6}), 0),
            (frozenset({1, 5, 6}), frozenset({1, 5, 6, 7}), 7),
            (frozenset({1, 5, 6, 7}), frozenset({0, 1, 5, 6, 7}), 0),
        }

    def test_fixture_topology_holds_on_raw_partial(self, fixture_partial):
        graph = build_club_graph(fixture_partial, {1, 5, 6})
        assert len(graph.nodes) == 4 and len(graph.edges) == 3
        node = graph.nodes[frozenset({0, 1, 5, 6, 7})]
        assert node.internally_stable is False
        assert graph.nodes[frozenset({0, 1, 5, 6})].internally_stable is None

    def test_full_root_gives_single_node(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {0, 1, 5, 6, 7})
        assert set(graph.nodes) == {frozenset({0, 1, 5, 6, 7})}
        assert not graph.edges

    def test_edges_grow_by_exactly_one(self, adaptive_matrix):
        graph = build_club_graph(adaptive_matrix, {7, 8, 9})
        for parent, child, joining in graph.edges:
            assert child == parent | {joining}
            assert joining not in parent
        for members in graph.nodes:
            assert members >= graph.root

    def test_matches_recursive_closure_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_game(rng, n_av=4)
            root = frozenset(rng.sample(sorted(g.av_ids), rng.randint(1, 3)))
            nodes, edges = oracle.closure(g, root)
            graph = build_club_graph(g, root)
            assert set(graph.nodes) == nodes
            assert set(graph.edges) == edges

    def test_node_count_is_bounded_by_outsider_subsets(self, adaptive_matrix):
        graph = build_club_graph(adaptive_matrix, {7, 8, 9})
        assert len(graph.nodes) <= 2 ** (10 - 3)

    def test_internal_and_external_stability_combine_to_nash(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {1, 5, 6})
        for members, node in graph.nodes.items():
            both = node.internally_stable and node.externally_stable
            assert both == is_nash(fixture_complete, fixture_complete.indicator(members))


@st.composite
def partial_games(draw):
    """A tie-heavy game with random rows deleted, and a coalition whose action is kept."""
    g = draw(tie_heavy_games())
    members = frozenset(draw(st.sets(st.sampled_from(g.av_ids), min_size=1)))
    x = g.indicator(members)
    entries = {a: row for a, row in g.entries.items() if a == x or draw(st.booleans())}
    return PayoffMatrix(n_players=g.n_players, av_ids=g.av_ids, entries=entries), members


class TestPartialMatrixVerdicts:
    @given(partial_games())
    @settings(max_examples=200, deadline=None)
    def test_single_flip_verdicts_match_oracle(self, case):
        g, members = case
        x = g.indicator(members)
        assert is_nash(g, x) == (oracle.flip_verdict(g, x, g.av_ids) is not False)
        assert is_internally_stable(g, members) == (oracle.flip_verdict(g, x, members) is not False)
        assert joiners(g, members) == oracle.priced_joiners(g, members)
        graph = build_club_graph(g, members)
        for coalition, node in graph.nodes.items():
            y = g.indicator(coalition)
            eager = oracle.priced_joiners(g, coalition)
            assert node.internally_stable is oracle.flip_verdict(g, y, coalition)
            assert node.is_nash_state is oracle.flip_verdict(g, y, g.av_ids)
            assert node.externally_stable == (not eager)
            assert {e for e in graph.edges if e[0] == coalition} == \
                {(coalition, coalition | {j}, j) for j in eager}


class TestTerminals:
    def test_fixture_has_two_terminal_leaves(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {1, 5, 6})
        assert terminal_coalitions(graph) == {
            frozenset({0, 1, 5, 6}),
            frozenset({0, 1, 5, 6, 7}),
        }

    def test_single_node_graph_terminal_is_root(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {0, 1, 5, 6, 7})
        assert terminal_coalitions(graph) == {frozenset({0, 1, 5, 6, 7})}

    def test_matches_oracle_leaves(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_game(rng, n_av=4)
            root = frozenset(rng.sample(sorted(g.av_ids), 2))
            graph = build_club_graph(g, root)
            assert terminal_coalitions(graph) == oracle.leaf_set(g, root)

    @given(tie_heavy_games(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_leaf_is_nash_or_internally_unstable(self, g, data):
        root = data.draw(st.sets(st.sampled_from(g.av_ids), min_size=1))
        graph = build_club_graph(g, root)
        for leaf in terminal_coalitions(graph):
            node = graph.nodes[leaf]
            assert node.is_nash_state is True or node.internally_stable is False


class TestSeCandidates:
    def test_fixture_stable_leaf_is_the_candidate(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {1, 5, 6})
        assert se_candidates(fixture_complete, graph) == {frozenset({0, 1, 5, 6})}

    def test_constant_matrix_every_leaf_qualifies(self):
        from test_game import make_matrix
        g = make_matrix({"00": [-3, -3], "10": [-3, -3],
                         "01": [-3, -3], "11": [-3, -3]})
        graph = build_club_graph(g, {0})
        assert se_candidates(g, graph) == terminal_coalitions(graph)

    def test_candidates_recheck_as_strong(self, fixture_complete):
        graph = build_club_graph(fixture_complete, {1, 5, 6})
        for members in se_candidates(fixture_complete, graph):
            x = fixture_complete.indicator(members)
            assert not improving_coalitions(fixture_complete, x)

    def test_deterministic_construction(self, adaptive_matrix):
        a = build_club_graph(adaptive_matrix, {7, 8, 9})
        b = build_club_graph(adaptive_matrix, {7, 8, 9})
        assert set(a.nodes) == set(b.nodes) and a.edges == b.edges
        assert sort_coalitions(a.nodes) == sort_coalitions(b.nodes)
