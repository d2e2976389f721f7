from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_game
from routeclubs import (
    MAX_AV_PLAYERS,
    EquilibriumTag,
    IncompleteMatrixError,
    PayoffMatrix,
    PreconditionError,
    action_from_string,
    action_to_string,
    build_club_graph,
    classify_all,
    find_clubs,
    improving_coalitions,
    is_nash,
    is_strong,
    se_candidates,
)


def make_matrix(payoffs_by_string, n_players=None, av_ids=None):
    entries = {action_from_string(s): tuple(float(v) for v in row)
               for s, row in payoffs_by_string.items()}
    n = n_players or len(next(iter(payoffs_by_string.values())))
    return PayoffMatrix(n_players=n, av_ids=av_ids or tuple(range(n)), entries=entries)


class TestActionEncoding:
    def test_player_zero_is_leftmost(self):
        assert action_to_string(action_from_string("0100011000"), 10) == "0100011000"
        assert action_from_string("1000000000") == 1

    def test_round_trip(self):
        for a in range(32):
            assert action_from_string(action_to_string(a, 5)) == a

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            action_from_string("01x0")
        with pytest.raises(ValueError, match="out of range"):
            action_to_string(32, 5)


class TestDeviate:
    # a coalition deviates from x to x ^ g.indicator(members)
    def test_flips_exactly_the_members(self, adaptive_matrix):
        x = action_from_string("0000000000")
        assert x ^ adaptive_matrix.indicator({1, 5, 6}) == action_from_string("0100011000")

    def test_involution(self, adaptive_matrix):
        y = action_from_string("0100011000") ^ adaptive_matrix.indicator({1, 5, 6})
        assert y == 0

    def test_single_flip_from_all_ones(self, adaptive_matrix):
        x = action_from_string("1111111111")
        assert x ^ adaptive_matrix.indicator({0}) == action_from_string("0111111111")

    def test_out_of_range_member(self, adaptive_matrix):
        with pytest.raises(ValueError, match="not a strategic player"):
            adaptive_matrix.indicator({10})

    def test_matrix_deviate_maps_player_ids(self, fixture_partial):
        g = fixture_partial
        assert 0 ^ g.indicator({1, 5, 6}) == g.parse_action("01110")
        with pytest.raises(ValueError, match="not a strategic player"):
            g.indicator({3})

    @given(st.integers(0, 1023), st.sets(st.integers(0, 9)))
    def test_involution_property(self, adaptive_matrix, action, members):
        once = action ^ adaptive_matrix.indicator(members)
        assert once == oracle.flip_many(adaptive_matrix, action, members)
        assert once ^ adaptive_matrix.indicator(members) == action


class TestImprovingCoalitions:
    def test_constant_payoffs_have_none(self):
        g = make_matrix({"00": [-10, -10], "10": [-10, -10],
                         "01": [-10, -10], "11": [-10, -10]})
        assert improving_coalitions(g, 0) == frozenset()

    def test_fixture_club_is_the_only_improving_group(self, fixture_complete):
        improving = improving_coalitions(fixture_complete, 0)
        groups = {c for c in improving if len(c) >= 2}
        assert groups == {frozenset({1, 5, 6})}

    def test_matches_oracle_on_random_games(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_game(rng, n_av=4)
            for x in range(16):
                assert improving_coalitions(g, x) == oracle.improving(g, x)

    def test_missing_target_is_named(self, fixture_partial):
        with pytest.raises(IncompleteMatrixError, match="10000"):
            improving_coalitions(fixture_partial, 0)

    def test_enumeration_cap(self):
        # one priced row: past the cap check, each call would fail on a
        # missing action or start a 2**21 walk
        n = MAX_AV_PLAYERS + 1
        g = PayoffMatrix(n_players=n, av_ids=tuple(range(n)), entries={1: (-1.0,) * n})
        graph = build_club_graph(g, {0})
        calls = (lambda: improving_coalitions(g, 1), lambda: is_strong(g, 1),
                 lambda: find_clubs(g, 1), lambda: classify_all(g),
                 lambda: se_candidates(g, graph))
        for call in calls:
            with pytest.raises(PreconditionError, match=f"cap of {MAX_AV_PLAYERS}"):
                call()


class TestIsNash:
    def test_fixture_strong_row_is_nash(self, fixture_partial):
        g = fixture_partial
        assert is_nash(g, g.indicator({0, 1, 5, 6}))

    def test_fixture_overfull_club_is_not(self, fixture_partial):
        g = fixture_partial
        assert not is_nash(g, g.indicator({0, 1, 5, 6, 7}))

    def test_constant_matrix_everything_nash(self):
        g = make_matrix({"00": [-5, -5], "10": [-5, -5],
                         "01": [-5, -5], "11": [-5, -5]})
        assert all(is_nash(g, x) for x in range(4))


class TestIsStrong:
    def test_adaptive_x0_is_not_strong(self, adaptive_matrix):
        assert not is_strong(adaptive_matrix, 0)

    def test_static_x0_is_strong(self, static_matrix):
        assert is_strong(static_matrix, 0)

    def test_constant_matrix_is_strong_everywhere(self):
        g = make_matrix({"00": [-5, -5], "10": [-5, -5],
                         "01": [-5, -5], "11": [-5, -5]})
        assert all(is_strong(g, x) for x in range(4))


class TestFindClubs:
    def test_fixture_club(self, fixture_complete):
        assert find_clubs(fixture_complete, 0) == {frozenset({1, 5, 6})}

    def test_fixture_member_deltas(self, fixture_partial):
        g = fixture_partial
        x0, club = 0, g.indicator({1, 5, 6})
        assert (g.payoff(1, x0), g.payoff(1, club)) == (-58, -52)
        assert (g.payoff(5, x0), g.payoff(5, club)) == (-59, -52)
        assert (g.payoff(6, x0), g.payoff(6, club)) == (-59, -57)

    def test_static_matrix_has_no_clubs(self, static_matrix):
        assert find_clubs(static_matrix, 0) == frozenset()

    def test_requires_nash_base(self):
        g = make_matrix({"00": [-9, -9], "10": [-1, -9],
                         "01": [-9, -1], "11": [-5, -5]})
        with pytest.raises(PreconditionError, match="not a Nash equilibrium"):
            find_clubs(g, 0)

    def test_clubs_are_subset_of_improving(self, adaptive_matrix):
        clubs = find_clubs(adaptive_matrix, 0)
        improving = improving_coalitions(adaptive_matrix, 0)
        assert clubs <= improving
        assert all(len(c) >= 2 for c in clubs)

    def test_matches_oracle(self):
        rng = random.Random(7)
        checked = 0
        while checked < 10:
            g = random_game(rng, n_av=3)
            if not oracle.nash(g, 0):
                continue
            checked += 1
            assert find_clubs(g, 0) == oracle.clubs(g, 0)


class TestClassifyAll:
    def test_single_player_dominance(self):
        g = make_matrix({"0": [-5], "1": [-9]})
        result = classify_all(g)
        assert result[0].tag is EquilibriumTag.STRONG_NASH
        assert result[1].tag is EquilibriumTag.NOT_NASH

    def test_matches_oracle_on_random_games(self):
        rng = random.Random(99)
        for _ in range(10):
            g = random_game(rng, n_av=3)
            result = classify_all(g)
            for x in range(8):
                assert result[x].improving_coalitions == oracle.improving(g, x)
                expected = (
                    EquilibriumTag.STRONG_NASH if oracle.strong(g, x)
                    else EquilibriumTag.NASH if oracle.nash(g, x)
                    else EquilibriumTag.NOT_NASH
                )
                assert result[x].tag is expected

    def test_club_flag_matches_definition(self):
        rng = random.Random(5)
        g = random_game(rng, n_av=3)
        result = classify_all(g)
        for x in range(8):
            assert result[x].club_found == bool(oracle.clubs(g, x))

    def test_not_nash_iff_singleton_improves(self, adaptive_matrix):
        result = classify_all(adaptive_matrix)
        for x, item in result.items():
            has_singleton = any(len(c) == 1 for c in item.improving_coalitions)
            assert (item.tag is EquilibriumTag.NOT_NASH) == has_singleton


@st.composite
def tie_heavy_games(draw):
    """Complete games with 1 to 5 strategic players and payoffs from {-3, -2, -1, 0}.

    With four payoff levels, equal payoffs across a flip are common, so
    the strict inequality of "improving" is exercised on every game.
    """
    n_av = draw(st.integers(1, 5))
    n_players = n_av + draw(st.integers(0, 2))
    av_ids = tuple(sorted(draw(st.permutations(range(n_players)))[:n_av]))
    level = st.sampled_from((-3.0, -2.0, -1.0, 0.0))
    entries = {a: tuple(draw(level) for _ in range(n_players)) for a in range(1 << n_av)}
    return PayoffMatrix(n_players=n_players, av_ids=av_ids, entries=entries)


class TestCoalitionKernel:
    @given(tie_heavy_games())
    @settings(max_examples=60, deadline=None)
    def test_classification_matches_oracle(self, g):
        result = classify_all(g)
        for x, item in result.items():
            # tag and club flag come from the early-exit search alone
            assert "improving_coalitions" not in vars(item)
            expected = (
                EquilibriumTag.STRONG_NASH if oracle.strong(g, x)
                else EquilibriumTag.NASH if oracle.nash(g, x)
                else EquilibriumTag.NOT_NASH
            )
            assert item.tag is expected
            assert item.club_found == bool(oracle.clubs(g, x))
            assert is_strong(g, x) == (expected is EquilibriumTag.STRONG_NASH)
        for x, item in result.items():
            assert item.improving_coalitions == oracle.improving(g, x)

    @given(tie_heavy_games(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_partial_matrix_is_rejected(self, g, data):
        missing = data.draw(st.sampled_from(sorted(g.entries)))
        partial = PayoffMatrix(
            n_players=g.n_players, av_ids=g.av_ids,
            entries={a: row for a, row in g.entries.items() if a != missing})
        with pytest.raises(IncompleteMatrixError, match=g.action_string(missing)):
            classify_all(partial)


def first_unpriced_target(g, x):
    """x if unpriced, else the unpriced x ^ c with the least mask c."""
    if x not in g.entries:
        return x
    return next(x ^ c for c in range(1, 1 << g.n_av) if x ^ c not in g.entries)


class TestLevelSets:
    @given(tie_heavy_games(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partial_matrix_names_the_first_unpriced_target(self, g, data):
        missing = data.draw(st.sets(st.sampled_from(sorted(g.entries)), min_size=1))
        partial = PayoffMatrix(
            n_players=g.n_players, av_ids=g.av_ids,
            entries={a: row for a, row in g.entries.items() if a not in missing})
        calls = {"improving_coalitions": improving_coalitions, "is_strong": is_strong,
                 "find_clubs": find_clubs}
        for x in range(1 << g.n_av):
            expected = g.action_string(first_unpriced_target(partial, x))
            for name, call in calls.items():
                with pytest.raises(IncompleteMatrixError) as raised:
                    call(partial, x)
                assert raised.value.action_label == expected, (name, x)
        with pytest.raises(IncompleteMatrixError) as raised:
            classify_all(partial)
        assert raised.value.action_label == g.action_string(first_unpriced_target(partial, 0))

    def test_many_payoff_levels_match_oracle(self):
        # 512 actions: players 0-3 take 11 payoff levels, players 4-8 about
        # 290 of 400, with ties left; past 256 levels a rank takes two bytes
        rng = random.Random(11)
        entries = {a: tuple(float(rng.randint(-10, 0) if p < 4 else rng.randint(-400, -1))
                            for p in range(9)) for a in range(512)}
        g = PayoffMatrix(n_players=9, av_ids=tuple(range(9)), entries=entries)
        assert all(len({row[p] for row in entries.values()}) > 256 for p in range(4, 9))
        result = classify_all(g)
        for x in rng.sample(range(512), 12):
            improving = oracle.improving(g, x)
            assert improving_coalitions(g, x) == improving
            assert is_strong(g, x) == (not improving)
            assert result[x].club_found == bool(oracle.clubs(g, x))
            assert result[x].tag is (EquilibriumTag.NOT_NASH if not oracle.nash(g, x)
                                     else EquilibriumTag.NASH if improving
                                     else EquilibriumTag.STRONG_NASH)

    def test_dropped_matrix_and_level_sets_are_collected(self):
        # the level sets live on the matrix, not in a cache that pins it
        g = random_game(random.Random(3), n_av=4)
        classify_all(g)
        improving_coalitions(g, 5)
        levels = g._levels
        assert len(levels) == 4
        alive, sets = weakref.ref(g), weakref.ref(levels)
        del g, levels
        gc.collect()
        assert alive() is None and sets() is None

    def test_classify_all_reuses_the_level_sets(self):
        g = random_game(random.Random(4), n_av=4)
        classify_all(g)
        levels = g._levels
        built = {(b, v): keep for b, player in levels.items() for v, keep in player.items()}
        assert len(built) > len(levels)  # more than each player's route-keeping sets
        classify_all(g)
        assert g._levels is levels
        assert {(b, v): keep for b, player in levels.items() for v, keep in player.items()} == built
        assert all(levels[b][v] is keep for (b, v), keep in built.items())


class TestInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_strong_implies_nash(self, seed):
        g = random_game(random.Random(seed))
        for x in range(1 << g.n_av):
            if is_strong(g, x):
                assert is_nash(g, x)

    @given(st.integers(0, 2**31 - 1), st.floats(0.25, 4.0),
           st.integers(-50, 0))
    @settings(max_examples=40, deadline=None)
    def test_affine_rescaling_preserves_classification(self, seed, scale, shift):
        g = random_game(random.Random(seed))
        rescaled = PayoffMatrix(
            n_players=g.n_players,
            av_ids=g.av_ids,
            entries={a: tuple(scale * v + shift for v in row)
                     for a, row in g.entries.items()},
        )
        assert classify_all(g) == classify_all(rescaled)

    def test_payoffs_must_be_nonpositive_and_finite(self):
        with pytest.raises(ValueError, match="finite"):
            make_matrix({"0": [1.0]})
        with pytest.raises(ValueError, match="finite"):
            make_matrix({"0": [float("-inf")]})
