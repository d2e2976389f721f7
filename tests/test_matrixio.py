from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import TABLE1_ROW_MEANS, random_game
from routeclubs import (
    MatrixFormatError,
    PayoffMatrix,
    action_from_string,
    complete_with_fill,
    load_matrix,
    save_matrix,
)


class TestRoundTrip:
    def test_generated_matrix_round_trips_exactly(self, adaptive_matrix, tmp_path):
        path = tmp_path / "full.matrix"
        save_matrix(adaptive_matrix, path)
        assert load_matrix(path) == adaptive_matrix

    def test_fixture_round_trips(self, fixture_partial, tmp_path):
        path = tmp_path / "fixture.matrix"
        save_matrix(fixture_partial, path)
        assert load_matrix(path) == fixture_partial

    def test_random_games_round_trip(self, tmp_path):
        rng = random.Random(2024)
        for i in range(20):
            g = random_game(rng, with_humans=True)
            path = tmp_path / f"g{i}.matrix"
            save_matrix(g, path)
            assert load_matrix(path) == g

    def test_fractional_payoffs_survive(self, tmp_path):
        g = PayoffMatrix(n_players=1, av_ids=(0,),
                         entries={0: (-1.25,), 1: (-0.1,)}, quantum=0.05)
        path = tmp_path / "frac.matrix"
        save_matrix(g, path)
        assert load_matrix(path) == g

    def test_save_is_deterministic(self, fixture_partial, tmp_path):
        a, b = tmp_path / "a.matrix", tmp_path / "b.matrix"
        save_matrix(fixture_partial, a)
        save_matrix(fixture_partial, b)
        assert a.read_bytes() == b.read_bytes()


class TestBundledFixture:
    def test_loads_with_partial_flag(self, fixture_partial):
        assert not fixture_partial.complete
        assert fixture_partial.n_players == 5
        assert fixture_partial.av_ids == (0, 1, 5, 6, 7)
        assert len(fixture_partial.entries) == 5

    def test_known_rows(self, fixture_partial):
        g = fixture_partial
        assert g.require(0) == (-27, -58, -59, -59, -51)
        assert g.require(action_from_string("11110")) == (-53, -53, -53, -57, -60)

    def test_row_means_cover_every_stored_action(self, fixture_partial):
        stored = {fixture_partial.action_string(a) for a in fixture_partial.actions()}
        assert stored == set(TABLE1_ROW_MEANS)


class TestCompletion:
    def test_fill_prices_all_actions(self, fixture_partial):
        completed = complete_with_fill(fixture_partial)
        assert completed.complete
        assert len(completed.entries) == 32
        for action, row in fixture_partial.entries.items():
            assert completed.entries[action] == row

    def test_fill_must_be_nonpositive(self, fixture_partial):
        with pytest.raises(ValueError, match="fill"):
            complete_with_fill(fixture_partial, fill=1.0)

    def test_partial_fixture_does_not_pass_complete_operations(self, fixture_partial):
        from routeclubs import IncompleteMatrixError, is_strong
        with pytest.raises(IncompleteMatrixError):
            is_strong(fixture_partial, 0)


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "m.matrix"
        path.write_text(text)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write(tmp_path, "something else\n")
        with pytest.raises(MatrixFormatError, match="line 1"):
            load_matrix(path)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "routeclubs-matrix 1",
            "n_players 15",
            "av_ids 0 1 2 3 4 5 6 7 8 9",
            "quantum 1",
            "supply_mode adaptive",
            "partial true",
            "actions 1",
            "---",
            "0000000000 -1 -2 -3 -4 -5 -6 -7 -8 -9",
        ]) + "\n")
        with pytest.raises(MatrixFormatError, match="line 9.*9 payoffs, expected 15"):
            load_matrix(path)

    def test_duplicate_action(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "routeclubs-matrix 1",
            "n_players 1",
            "av_ids 0",
            "quantum 1",
            "supply_mode fixture",
            "partial true",
            "actions 2",
            "---",
            "0 -1",
            "0 -2",
        ]) + "\n")
        with pytest.raises(MatrixFormatError, match="duplicate action"):
            load_matrix(path)

    def test_partial_flag_must_match_contents(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "routeclubs-matrix 1",
            "n_players 1",
            "av_ids 0",
            "quantum 1",
            "supply_mode fixture",
            "partial true",
            "actions 2",
            "---",
            "0 -1",
            "1 -2",
        ]) + "\n")
        with pytest.raises(MatrixFormatError, match="partial"):
            load_matrix(path)

    def test_declared_count_must_match(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "routeclubs-matrix 1",
            "n_players 1",
            "av_ids 0",
            "quantum 1",
            "supply_mode fixture",
            "partial true",
            "actions 3",
            "---",
            "0 -1",
        ]) + "\n")
        with pytest.raises(MatrixFormatError, match="declares 3 actions"):
            load_matrix(path)

    def test_missing_header_key(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "routeclubs-matrix 1",
            "n_players 1",
            "av_ids 0",
            "quantum 1",
            "partial true",
            "actions 0",
            "---",
        ]) + "\n")
        with pytest.raises(MatrixFormatError, match="supply_mode"):
            load_matrix(path)

    def test_positive_payoff_rejected(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "routeclubs-matrix 1",
            "n_players 1",
            "av_ids 0",
            "quantum 1",
            "supply_mode fixture",
            "partial true",
            "actions 1",
            "---",
            "0 3",
        ]) + "\n")
        with pytest.raises(MatrixFormatError, match="finite and <= 0"):
            load_matrix(path)


@st.composite
def matrices(draw):
    """Matrices of quantized payoffs, partial or complete, with humans and shuffled ids.

    Each matrix draws up to twelve payoff levels and fills its rows from them.
    """
    n_av = draw(st.integers(1, 8), label="n_av")
    n_players = n_av + draw(st.integers(0, 3), label="humans")
    player_ids = tuple(draw(st.permutations(range(n_players + 2)))[:n_players])
    av_ids = tuple(draw(st.permutations(player_ids))[:n_av])
    quantum = draw(st.sampled_from((0.05, 0.1, 0.3)), label="quantum")
    payoff = st.one_of(
        st.just(-0.0),
        st.floats(0.0, 1e6).map(lambda t: -math.floor(t / quantum + 0.5) * quantum),
    )
    levels = draw(st.lists(payoff, min_size=1, max_size=12), label="levels")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    actions = range(1 << n_av)
    if draw(st.booleans(), label="partial"):
        actions = sorted(rng.sample(actions, rng.randrange(len(actions))))
    entries = {a: tuple(rng.choices(levels, k=n_players)) for a in actions}
    return PayoffMatrix(n_players=n_players, av_ids=av_ids, entries=entries,
                        player_ids=player_ids, quantum=quantum)


class TestOracleIdentity:
    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_save_and_load_match_the_naive_format(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("oracle") / "g.matrix"
        save_matrix(g, path)
        text = path.read_text()
        assert text == oracle.matrix_text(g)
        loaded, expected = load_matrix(path), oracle.parse_matrix(text)
        assert loaded == PayoffMatrix(**expected)
        assert loaded.entries.keys() == expected["entries"].keys()
        for action, row in loaded.entries.items():
            assert all(type(v) is float for v in row)
            assert list(map(repr, row)) == list(map(repr, expected["entries"][action]))


class TestRowErrors:
    HEADER = ["routeclubs-matrix 1", "n_players 5", "av_ids 0 1 2 3", "quantum 1",
              "supply_mode fixture", "partial true", "actions 2", "---",
              "0000 -1 -2 -3 -4 -5", ""]

    def load_row(self, tmp_path, row):
        path = tmp_path / "m.matrix"
        path.write_text("\n".join([*self.HEADER, row]) + "\n")
        with pytest.raises(MatrixFormatError) as caught:
            load_matrix(path)
        return str(caught.value), caught.value.line

    @pytest.mark.parametrize("action_text", ["0_10", "+010", "01x0", "0 10", "010"])
    def test_malformed_action_string(self, tmp_path, action_text):
        shown = action_text.split()[0]
        assert self.load_row(tmp_path, action_text + " -1 -2 -3 -4 -5") == (
            f"line 11: action string {shown!r} is not 4 chars of 0/1", 11)

    def test_duplicate_action(self, tmp_path):
        assert self.load_row(tmp_path, "0000 -1 -2 -3 -4 -5") == (
            "line 11: duplicate action '0000'", 11)

    def test_wrong_arity(self, tmp_path):
        assert self.load_row(tmp_path, "0100 -1 -2 -3 -4") == (
            "line 11: row has 4 payoffs, expected 5", 11)

    def test_malformed_payoff(self, tmp_path):
        assert self.load_row(tmp_path, "0100 -1 -2 -3 -4 1x") == (
            "line 11: malformed payoff number", 11)

    @pytest.mark.parametrize("token, shown", [("nan", "nan"), ("inf", "inf"), ("1", "1.0")])
    def test_payoff_out_of_range(self, tmp_path, token, shown):
        assert self.load_row(tmp_path, f"0100 -1 -2 {token} -4 -5") == (
            f"payoffs must be finite and <= 0, got {shown}", None)


class TestStoredPayoffs:
    def test_int_rows_are_stored_as_floats(self):
        g = PayoffMatrix(n_players=2, av_ids=(0,), entries={0: (-1, 0), 1: [-2, -1]})
        assert g.entries == {0: (-1.0, 0.0), 1: (-2.0, -1.0)}
        assert all(type(v) is float for row in g.entries.values() for v in row)

    def test_mixed_int_and_float_rows_are_stored_as_floats(self):
        g = PayoffMatrix(n_players=2, av_ids=(0,), entries={0: (-1, -1.0), 1: (-1.0, -1)})
        assert all(type(v) is float for row in g.entries.values() for v in row)

    def test_first_bad_payoff_in_row_order_is_named(self):
        with pytest.raises(ValueError, match=r"got 3\.0$"):
            PayoffMatrix(n_players=2, av_ids=(0, 1),
                         entries={0: (-1, -2), 2: (-1.0, 3.0), 1: (float("nan"), 2), 3: (5, 0)})

    def test_loaded_rows_share_one_float_per_distinct_token(self, adaptive_matrix, tmp_path):
        path = tmp_path / "full.matrix"
        save_matrix(adaptive_matrix, path)
        payoffs = [v for row in load_matrix(path).entries.values() for v in row]
        assert len(set(map(id, payoffs))) == len(set(payoffs))

    @pytest.mark.parametrize("quantum", [float("nan"), float("inf")])
    def test_non_finite_quantum_is_refused(self, quantum):
        with pytest.raises(ValueError, match="quantum must be finite"):
            PayoffMatrix(n_players=1, av_ids=(0,), entries={}, quantum=quantum)
